"""The benchmark's four workloads: seeded inputs, one request, its checks.

Every workload is a closed loop with one client: the runner sends the next
request only after the last one returned. A round is one request per input;
the runner attempts whole rounds, so the inputs of a round fix the mix.
Inputs are drawn from the seed alone; the program sees only config files
(CLI workloads) or ``SimConfig`` objects (the library workload).

Geometries are laid out on a fixed ladder that the seed perturbs: input i
of a round has its slit width near the i-th of evenly spaced widths from the
narrow end of the range to the wide end, and (d+a)/a near 2 + i. The seed
moves each width by up to 1% of the range and draws the fraction of the
non-integer ratios. The cost of a request follows the mode count, and so
the width, so every seed's round costs about the same, and the widest slit,
which sets the peak memory, is always there.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import checks

BETA_MAX = 0.45
SCAN_STEPS = 20001
PRESET_IDS = tuple(range(3, 15))


@dataclass(frozen=True)
class Input:
    """One request's input: a label, and what the program is handed."""

    label: str
    config_text: Optional[str] = None  # geometry config file text
    config_path: Optional[Path] = None  # where that text is written
    figure_id: Optional[int] = None  # preset id, for CLI figure mode
    output_path: Optional[Path] = None  # the CLI's --out
    config: Any = None  # SimConfig, for the library workload


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int, Path], list]  # (seed, workdir) -> one round
    request: Callable[[Any], Any]  # the timed call
    check: Callable[[Any, Any, checks.References], list]  # -> problems
    warmup: bool  # run one round, untimed, before the loop


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


def _geometry_text(a: float, c: float, d: float, steps: int) -> str:
    return (
        f"a = {a!r} lambda\n"
        "b = 1000.0 lambda\n"
        f"c = {c!r} lambda\n"
        f"d = {d!r} lambda\n"
        f"beta_min_rad = {-BETA_MAX!r}\n"
        f"beta_max_rad = {BETA_MAX!r}\n"
        f"beta_steps = {steps}\n"
    )


def _ladder(rng: np.random.Generator, lo: float, hi: float, count: int) -> list:
    """(a, d) per input: widths on the ladder, (d+a)/a = 2 + i, integer for even i."""
    out = []
    for i in range(count):
        jitter = 0.01 * (hi - lo) * float(rng.uniform(-1.0, 1.0))
        a = round(min(hi, max(lo, lo + (hi - lo) * i / (count - 1) + jitter)), 3)
        frac = 0.0 if i % 2 == 0 else float(rng.uniform(0.2, 0.8))
        out.append((a, round((1 + i + frac) * a, 6)))
    return out


def _write_configs(inputs: list, workdir: Path) -> list:
    workdir.mkdir(parents=True, exist_ok=True)
    for inp in inputs:
        inp.config_path.write_text(inp.config_text, encoding="utf-8")
    return inputs


def _run_cli(**kwargs) -> tuple:
    """cli.run on one RunRequest; returns (exit status, captured stdout)."""
    from doubleslit import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.run(cli.RunRequest(**kwargs))
    return status, buf.getvalue()


# --- presets: CLI figure mode over the 12 paper presets --------------------


def presets_inputs(seed: int, workdir: Path) -> list:
    order = _rng(seed, "presets").permutation(PRESET_IDS)
    workdir.mkdir(parents=True, exist_ok=True)
    return [
        Input(label=f"figure-{fid}", figure_id=int(fid), output_path=workdir / f"figure-{fid}.csv")
        for fid in order
    ]


def presets_request(inp: Input) -> tuple:
    return _run_cli(
        config_path=None, output_path=str(inp.output_path), mode="figure", figure_id=inp.figure_id
    )


def presets_check(inp: Input, result: tuple, refs: checks.References) -> list:
    from doubleslit.figures import figure_config

    status, stdout = result
    if status != 0:
        return [f"exit status {status}"]
    config = figure_config(inp.figure_id)
    problems = [] if "missing-order report" in stdout else ["no report on stdout"]
    text = inp.output_path.read_text(encoding="utf-8")
    cols, analytic = checks.parse_figure_csv(text)
    problems += checks.check_scan(cols, config, refs.slit1(inp.label, config, cols.beta))
    problems += checks.check_analytic(analytic, config, cols.beta)
    return problems


# --- fine-scan: CLI scan mode with --plot, narrow slits, 20001 steps ------


FINE_SCAN_INPUTS = 4


def fine_scan_inputs(seed: int, workdir: Path) -> list:
    rng = _rng(seed, "fine-scan")
    inputs = []
    for i, (a, d) in enumerate(_ladder(rng, 1.0, 5.0, FINE_SCAN_INPUTS)):
        c = round(float(rng.uniform(0.5, 2.0)), 3)
        inputs.append(
            Input(
                label=f"fine-{i}",
                config_text=_geometry_text(a, c, d, SCAN_STEPS),
                config_path=workdir / f"fine-{i}.cfg",
                output_path=workdir / f"fine-{i}.csv",
            )
        )
    return _write_configs(inputs, workdir)


def fine_scan_request(inp: Input) -> tuple:
    return _run_cli(
        config_path=str(inp.config_path), output_path=str(inp.output_path), mode="scan", plot=True
    )


def fine_scan_check(inp: Input, result: tuple, refs: checks.References) -> list:
    from doubleslit.config import parse_config

    status, _ = result
    if status != 0:
        return [f"exit status {status}"]
    config = parse_config(inp.config_text)
    cols = checks.parse_scan_csv(inp.output_path.read_text(encoding="utf-8"))
    problems = checks.check_scan(cols, config, refs.slit1(inp.label, config, cols.beta))
    svg = inp.output_path.with_suffix(".svg").read_text(encoding="utf-8")
    problems += checks.check_svg(svg, config.detector.steps)
    return problems


# --- wide-slit: library scan() then missing_orders(), wide slits ----------


WIDE_SLIT_INPUTS = 4


def wide_slit_inputs(seed: int, workdir: Path) -> list:
    from doubleslit.config import parse_config

    rng = _rng(seed, "wide-slit")
    inputs = []
    for i, (a, d) in enumerate(_ladder(rng, 20.0, 50.0, WIDE_SLIT_INPUTS)):
        text = _geometry_text(a, 1.0, d, SCAN_STEPS)
        inputs.append(Input(label=f"wide-{i}", config_text=text, config=parse_config(text)))
    return inputs


def wide_slit_request(inp: Input) -> tuple:
    from doubleslit import analysis, farfield

    result = farfield.scan(inp.config)
    return result, analysis.missing_orders(inp.config, result)


def wide_slit_check(inp: Input, result: tuple, refs: checks.References) -> list:
    scan, report = result
    cols = checks.columns_from_scan(scan)
    problems = checks.check_scan(cols, inp.config, refs.slit1(inp.label, inp.config, cols.beta))
    problems += checks.check_analytic(report.analytic_missing, inp.config, cols.beta)
    return problems


# --- oracle-check: CLI oracle-check mode on default-like geometries -------


def oracle_inputs(seed: int, workdir: Path) -> list:
    """The default slit (a = 5, c = 1 wavelengths) at a seeded separation d.

    The oracle's cost depends on a and c, through the mode weights that its
    adaptive quadrature resolves, but not on d, which only places the second
    slit: every seed's request does the same quadrature work.
    """
    d = round(float(_rng(seed, "oracle-check").uniform(20.0, 30.0)), 3)
    inp = Input(
        label="oracle-0",
        config_text=_geometry_text(5.0, 1.0, d, 2001),
        config_path=workdir / "oracle-0.cfg",
        output_path=workdir / "oracle-0.csv",
    )
    return _write_configs([inp], workdir)


def oracle_request(inp: Input) -> tuple:
    return _run_cli(
        config_path=str(inp.config_path), output_path=str(inp.output_path), mode="oracle-check"
    )


def oracle_check(inp: Input, result: tuple, refs: checks.References) -> list:
    status, _ = result
    if status != 0:
        return [f"exit status {status}"]
    return checks.check_oracle_csv(inp.output_path.read_text(encoding="utf-8"))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("presets", presets_inputs, presets_request, presets_check, warmup=True),
        Workload("fine-scan", fine_scan_inputs, fine_scan_request, fine_scan_check, warmup=True),
        Workload("wide-slit", wide_slit_inputs, wide_slit_request, wide_slit_check, warmup=True),
        Workload("oracle-check", oracle_inputs, oracle_request, oracle_check, warmup=False),
    )
}
