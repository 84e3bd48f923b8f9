"""Each output check passes a correct output and rejects a corrupted one."""

from dataclasses import replace

import numpy as np
import pytest

import checks
import workloads
from doubleslit import analysis, farfield
from doubleslit.config import de_broglie_wavelength, parse_config

GEOMETRY = "a = 20 lambda\nd = 40 lambda\nbeta_min_rad = -0.45\nbeta_max_rad = 0.45\nbeta_steps = 2001\n"


@pytest.fixture(scope="module")
def config():
    return parse_config(GEOMETRY)


@pytest.fixture(scope="module")
def cols(config):
    return checks.columns_from_scan(farfield.scan(config))


@pytest.fixture(scope="module")
def reference(config, cols):
    return checks.References(seed=7).slit1("wide", config, cols.beta)


def test_correct_scan_passes(config, cols, reference):
    assert checks.check_scan(cols, config, reference) == []


def test_scaled_slit1_value_is_rejected(config, cols, reference):
    at_peak = cols.slit1.copy()
    at_peak[np.argmax(at_peak)] *= 1.001
    assert checks.check_factorization(replace(cols, slit1=at_peak), config)

    idx, _ = reference
    sampled = cols.slit1.copy()
    sampled[idx[0]] += 1e-6 * float(np.max(cols.total))
    assert checks.check_slit1(replace(cols, slit1=sampled), reference)
    assert checks.check_scan(replace(cols, slit1=sampled), config, reference)


def test_slit1_samples_include_the_fixed_angles(config, cols, reference):
    idx, _ = reference
    sines = np.sin(cols.beta)
    zero = de_broglie_wavelength(config.beam) / config.slits.width_a
    fixed = {int(np.argmin(np.abs(cols.beta))), cols.beta.size - 1, int(np.argmin(np.abs(sines - zero)))}
    assert fixed <= set(idx.tolist())
    assert idx.size > checks.SLIT1_SAMPLES


@pytest.mark.parametrize("where", ["centre", "envelope zero"])
def test_symmetric_band_error_is_rejected(config, cols, reference, where):
    # An error in I_slit1 and I_total alike, the same at beta and -beta,
    # keeps the factorization and the symmetry; only the per-mode sum sees it.
    mid = cols.beta.size // 2
    if where == "centre":
        centre = mid
    else:
        zero = de_broglie_wavelength(config.beam) / config.slits.width_a
        centre = int(np.argmin(np.abs(np.sin(cols.beta) - zero)))
    band = np.zeros(cols.beta.size)
    band[centre - 2 : centre + 3] = 1e-6 * float(np.max(cols.total))
    band += band[::-1]
    factor = cols.total / cols.slit1
    corrupt = replace(cols, slit1=cols.slit1 + band, total=cols.total + band * factor)
    assert checks.check_factorization(corrupt, config) == []
    assert checks.check_symmetry(corrupt, config) == []
    assert checks.check_slit1(corrupt, reference)


def test_mirrored_half_shifted_is_rejected(config, cols, reference):
    mid = cols.total.size // 2
    shifted = cols.total.copy()
    shifted[mid + 1 :] = cols.total[mid:-1]
    assert checks.check_symmetry(replace(cols, total=shifted), config)
    assert checks.check_scan(replace(cols, total=shifted), config, reference)


def test_grid_and_value_corruptions_are_rejected(config, cols):
    beta = cols.beta.copy()
    beta[3] = np.nextafter(beta[3], 1.0)
    assert checks.check_grid(replace(cols, beta=beta), config)
    assert checks.check_values(replace(cols, normalized=cols.normalized * 0.999))
    negative = cols.total.copy()
    negative[0] = -1e-30
    assert checks.check_values(replace(cols, total=negative))
    assert checks.check_values(replace(cols, slit1=np.full_like(cols.slit1, np.nan)))


def test_analytic_orders_follow_the_ratio_rule(config, cols):
    # (d+a)/a = 3: orders 3, 6, 9, ... inside the scanned sine range.
    expected = checks.expected_analytic(config, cols.beta)
    assert expected[:2] == (3, 6) and all(j % 3 == 0 for j in expected)
    assert expected == analysis.missing_orders(config, farfield.scan(config)).analytic_missing
    assert checks.check_analytic(expected, config, cols.beta) == []
    assert checks.check_analytic(expected[:-1], config, cols.beta)
    assert checks.check_analytic((2, 4), config, cols.beta)

    non_integer = parse_config(GEOMETRY.replace("d = 40", "d = 41.5"))
    assert checks.check_analytic((), non_integer, cols.beta) == []
    assert checks.check_analytic((3,), non_integer, cols.beta)


def _oracle_csv(rows):
    return "case,residual,tolerance,pass\n" + "".join(
        f"{case},{res},{tol},{res < tol}\n" for case, res, tol in rows
    )


def test_oracle_residual_over_tolerance_is_rejected():
    rows = [(f"sine_fourier_{i}", 1e-13, 1e-9) for i in range(200)]
    rows += [(f"surface_{i}", 1e-9, 1e-6) for i in range(3)]
    assert checks.check_oracle_csv(_oracle_csv(rows)) == []

    over = list(rows)
    over[201] = ("surface_1", 2e-6, 1e-6)
    assert checks.check_oracle_csv(_oracle_csv(over))
    # A row marked as passing but over its tolerance is still rejected.
    text = _oracle_csv(rows).replace("sine_fourier_5,1e-13,", "sine_fourier_5,2e-09,")
    assert checks.check_oracle_csv(text)
    assert checks.check_oracle_csv(_oracle_csv(rows[:-1]))


def test_figure_request_is_checked_from_its_csv(tmp_path):
    # Preset 9: a = 30, d = 60 wavelengths, so orders 3, 6, ... are analytic.
    (inp,) = [i for i in workloads.presets_inputs(1, tmp_path) if i.figure_id == 9]
    refs = checks.References(seed=1)
    result = workloads.presets_request(inp)
    assert workloads.presets_check(inp, result, refs) == []

    lines = inp.output_path.read_text(encoding="utf-8").splitlines()
    order_start = lines.index("order,beta_rad,intensity,missing_analytic,missing_numeric")
    row = lines[order_start + 3].split(",")  # order 3
    assert row[0] == "3" and row[3] == "True"
    lines[order_start + 3] = ",".join(row[:3] + ["False", row[4]])
    inp.output_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert workloads.presets_check(inp, result, refs)
    assert workloads.presets_check(inp, (1, ""), refs)
