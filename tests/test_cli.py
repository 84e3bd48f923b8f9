"""CLI modes, exit statuses, CSV/SVG artifacts."""

import warnings

import pytest

from doubleslit import cli, farfield, kernels, output, quadrature
from doubleslit.cli import EXIT_OK, EXIT_RESIDUAL, EXIT_VALIDATION, RunRequest, run
from doubleslit.config import parse_config, with_detector
from doubleslit.farfield import scan
from doubleslit.modes import TruncationWarning

FAST_KEYS = "m_max = 3\nn_max = 3\nbeta_steps = 201\n"


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestRunRequest:
    def test_figure_id_requires_figure_mode(self):
        with pytest.raises(ValueError):
            RunRequest(config_path=None, output_path="x.csv", mode="scan", figure_id=5)
        with pytest.raises(ValueError):
            RunRequest(config_path=None, output_path="x.csv", mode="figure")

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            RunRequest(config_path="c", output_path="o", mode="scan", threshold=1.0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            RunRequest(config_path="c", output_path="o", mode="sweep")


class TestScanMode:
    def test_csv_written_with_exact_header_and_row_count(self, tmp_path):
        cfg_path = write_config(tmp_path, "m_max = 3\nn_max = 3\nbeta_steps = 501\n")
        out = tmp_path / "scan.csv"
        status = run(RunRequest(cfg_path, str(out), "scan"))
        assert status == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == output.CSV_HEADER
        assert len(lines) == 502

    def test_csv_round_trips_doubles_bit_exactly(self, tmp_path):
        cfg = parse_config(FAST_KEYS)
        result = scan(cfg)
        lines = output.scan_csv(result).splitlines()[1:]
        assert len(lines) == result.beta.size
        for i, line in enumerate(lines):
            parts = [float(v) for v in line.split(",")]
            assert parts == [
                result.beta[i],
                result.intensity_total[i],
                result.intensity_slit1[i],
                result.two_slit_factor[i],
                result.intensity_normalized[i],
            ]

    def test_normalized_column_max_is_one(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST_KEYS)
        out = tmp_path / "scan.csv"
        run(RunRequest(cfg_path, str(out), "scan"))
        norms = [
            float(line.rsplit(",", 1)[1])
            for line in out.read_text().splitlines()[1:]
        ]
        assert max(norms) == 1.0

    def test_empty_range_grid(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            "m_max = 3\nn_max = 3\nbeta_steps = 2\n"
            "beta_min_rad = 0.0999999\nbeta_max_rad = 0.1\n",
        )
        out = tmp_path / "tiny.csv"
        assert run(RunRequest(cfg_path, str(out), "scan")) == EXIT_OK
        assert len(out.read_text().splitlines()) == 3  # header + 2 rows

    def test_determinism_csv_and_svg_bytes(self, tmp_path):
        cfg = parse_config(FAST_KEYS)
        first = scan(cfg)
        second = scan(cfg)
        assert output.scan_csv(first) == output.scan_csv(second)
        assert output.scan_svg(first) == output.scan_svg(second)

    def test_plot_flag_writes_svg(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST_KEYS)
        out = tmp_path / "scan.csv"
        status = run(RunRequest(cfg_path, str(out), "scan", plot=True))
        assert status == EXIT_OK
        assert (tmp_path / "scan.svg").exists()


class TestSvg:
    def test_two_point_polyline_and_labels(self):
        cfg = parse_config(
            "m_max = 3\nn_max = 3\nbeta_steps = 2\n"
            "beta_min_rad = -0.01\nbeta_max_rad = 0.01\n"
        )
        svg = output.scan_svg(scan(cfg))
        points = svg.split('points="')[1].split('"')[0]
        assert len(points.split()) == 2
        assert 'viewBox="0 0 800 600"' in svg
        assert "beta(rad)" in svg and ">I<" in svg

    def test_single_row_rejected(self, coarse_detector_config):
        single = scan(with_detector(coarse_detector_config, steps=2))
        truncated = farfield.DiffractionScan(
            single.config_echo,
            **{name: getattr(single, name)[:1] for name in farfield.SCAN_COLUMNS},
        )
        with pytest.raises(ValueError):
            output.scan_svg(truncated)


class TestFigureMode:
    def test_figure_4_reports_no_missing_orders(self, tmp_path, capsys):
        out = tmp_path / "fig4.csv"
        status = run(RunRequest(None, str(out), "figure", figure_id=4))
        assert status == EXIT_OK
        text = capsys.readouterr().out
        assert "analytic missing    : none" in text
        assert "numeric missing     : none" in text

    def test_figure_5_lists_analytic_orders_three_and_six(self, tmp_path, capsys):
        out = tmp_path / "fig5.csv"
        status = run(RunRequest(None, str(out), "figure", figure_id=5))
        assert status == EXIT_OK
        assert "analytic missing    : [3, 6]" in capsys.readouterr().out
        assert out.read_text().splitlines()[0] == output.CSV_HEADER

    def test_unknown_figure_id(self, tmp_path):
        status = run(RunRequest(None, str(tmp_path / "x.csv"), "figure", figure_id=2))
        assert status == EXIT_VALIDATION


class TestMissingOrdersMode:
    def test_report_appended_to_csv(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            "a = 5 lambda\nd = 10 lambda\nm_max = 9\nn_max = 9\n"
            "beta_min_rad = -0.45\nbeta_max_rad = 0.45\nbeta_steps = 1001\n",
        )
        out = tmp_path / "orders.csv"
        status = run(RunRequest(cfg_path, str(out), "missing-orders"))
        assert status == EXIT_OK
        body = out.read_text()
        assert "order,beta_rad,intensity,missing_analytic,missing_numeric" in body
        assert "missing-order report" in capsys.readouterr().out


@pytest.fixture(scope="module")
def memoised_oracles():
    """Memoising wrappers of the two oracles, keyed by their arguments.

    The failure probes perturb only the closed forms, which the oracle
    never calls (test_quadrature checks its imports), so they can share
    the oracle values of one oracle-check run.
    """
    memo = {}

    def memoise(oracle):
        def wrapped(*args, **kwargs):
            key = (oracle.__name__, args, tuple(sorted(kwargs.items())))
            if key not in memo:
                memo[key] = oracle(*args, **kwargs)
            return memo[key]

        return wrapped

    return {
        name: memoise(getattr(quadrature, name))
        for name in ("oracle_sine_fourier", "oracle_surface_amplitude")
    }


class TestOracleCheckMode:
    def test_oracle_check_passes(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, FAST_KEYS)
        out = tmp_path / "residuals.csv"
        # The surface checks cap m and n at 3 on purpose, and say nothing
        # about it; pyproject hides TruncationWarning, so show every warning.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = run(RunRequest(cfg_path, str(out), "oracle-check"))
        assert status == EXIT_OK
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = out.read_text().splitlines()
        assert lines[0] == "case,residual,tolerance,pass"
        assert len(lines) == 1 + 200 + 3
        assert all(line.endswith("True") for line in lines[1:])
        # One stdout line: each family's case count and worst residual.
        rows = [line.split(",") for line in lines[1:]]
        worst = {
            family: max(float(r[1]) for r in rows if r[0].startswith(family))
            for family in ("sine", "surface")
        }
        assert captured.out == (
            f"oracle-check: sine 200 cases, worst residual {worst['sine']:.3e}; "
            f"surface 3 cases, worst residual {worst['surface']:.3e}\n"
        )
        # Only the oracle check's own cap is silenced: a scan still warns.
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            with pytest.warns(TruncationWarning):
                run(RunRequest(cfg_path, str(tmp_path / "s.csv"), "scan"))

    def test_residual_failure_exits_two(self, tmp_path, monkeypatch, memoised_oracles):
        # Designed failure probe: perturb the closed form past tolerance.
        for name, oracle in memoised_oracles.items():
            monkeypatch.setattr(quadrature, name, oracle)
        true_form = farfield.sine_fourier_integral
        monkeypatch.setattr(
            farfield,
            "sine_fourier_integral",
            lambda p, q, L: true_form(p, q, L) * (1 + 1e-6),
        )
        cfg_path = write_config(tmp_path, FAST_KEYS)
        status = run(RunRequest(cfg_path, str(tmp_path / "r.csv"), "oracle-check"))
        assert status == EXIT_RESIDUAL

    def test_kernel_drift_fails_only_the_surface_rows(
        self, tmp_path, monkeypatch, memoised_oracles
    ):
        # Designed failure probe: perturb the mode-sum kernel past tolerance.
        for name, oracle in memoised_oracles.items():
            monkeypatch.setattr(quadrature, name, oracle)
        true_kernel = kernels.mode_sum
        monkeypatch.setattr(kernels, "mode_sum", lambda *args: true_kernel(*args) * (1 + 1e-5))
        cfg_path = write_config(tmp_path, FAST_KEYS)
        out = tmp_path / "r.csv"
        assert run(RunRequest(cfg_path, str(out), "oracle-check")) == EXIT_RESIDUAL
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [case for case, *_, passed in rows if passed != "True"] == [
            "surface_0",
            "surface_1",
            "surface_2",
        ]

    def test_non_converging_oracle_is_reported_cleanly(self, tmp_path, monkeypatch, capsys):
        def stuck(p, q, L, tol):
            raise quadrature.QuadratureDepthError(0.25, 0.5)

        monkeypatch.setattr(quadrature, "oracle_sine_fourier", stuck)
        cfg_path = write_config(tmp_path, FAST_KEYS)
        out = tmp_path / "r.csv"
        status = run(RunRequest(cfg_path, str(out), "oracle-check"))
        assert status == EXIT_RESIDUAL
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "[0.25, 0.5]" in err
        assert not out.exists()


class TestExitStatusContract:
    def test_validation_failure_is_one(self, tmp_path):
        for text in ("a = -1 m\n", "time_s = 0.0\n"):
            cfg_path = write_config(tmp_path, text)
            assert run(RunRequest(cfg_path, str(tmp_path / "x.csv"), "scan")) == EXIT_VALIDATION

    def test_missing_config_file_is_one(self, tmp_path):
        req = RunRequest(str(tmp_path / "absent.cfg"), str(tmp_path / "x.csv"), "scan")
        assert run(req) == EXIT_VALIDATION

    def test_scan_mode_requires_config(self, tmp_path):
        assert run(RunRequest(None, str(tmp_path / "x.csv"), "scan")) == EXIT_VALIDATION

    def test_memory_error_is_reported_cleanly(self, tmp_path, monkeypatch, capsys):
        def oversized(config):
            raise MemoryError("Unable to allocate 74.5 TiB for an array")

        monkeypatch.setattr(farfield, "scan", oversized)
        cfg_path = write_config(tmp_path, FAST_KEYS)
        out = tmp_path / "x.csv"
        assert run(RunRequest(cfg_path, str(out), "scan")) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "74.5 TiB" in err
        assert not out.exists()


class TestMain:
    def test_figure_flag_promotes_scan_mode(self, tmp_path, capsys):
        out = tmp_path / "fig6.csv"
        status = cli.main(["--figure", "6", "--out", str(out)])
        assert status == EXIT_OK
        assert "missing-order report" in capsys.readouterr().out

    def test_bad_threshold_is_validation_error(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST_KEYS)
        status = cli.main(
            ["--config", cfg_path, "--out", str(tmp_path / "x.csv"), "--threshold", "2"]
        )
        assert status == EXIT_VALIDATION

    def test_plain_scan_via_main(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST_KEYS)
        out = tmp_path / "main.csv"
        assert cli.main(["--config", cfg_path, "--out", str(out)]) == EXIT_OK
        assert out.exists()
