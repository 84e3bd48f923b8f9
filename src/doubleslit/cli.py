"""Command-line surface: scans, figure presets, reports, oracle checks."""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import analysis, farfield, output, quadrature
from .config import ConfigError, SimConfig, parse_config, with_truncation
from .figures import figure_config
from .modes import TruncationWarning

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RESIDUAL = 2

MODES = ("scan", "oracle-check", "missing-orders", "figure")


@dataclass(frozen=True)
class RunRequest:
    config_path: Optional[str]
    output_path: str
    mode: str
    figure_id: Optional[int] = None
    plot: bool = False
    threshold: float = analysis.DEFAULT_SUPPRESSION_THRESHOLD

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if (self.mode == "figure") != (self.figure_id is not None):
            raise ValueError("figure_id must be given exactly when mode is 'figure'")
        if not 0 < self.threshold < 1:
            raise ValueError("threshold must be in (0, 1)")


def _load_config(request: RunRequest) -> SimConfig:
    if request.mode == "figure":
        return figure_config(request.figure_id)
    if request.config_path is None:
        raise ConfigError("--config is required for this mode")
    return parse_config(Path(request.config_path).read_text(encoding="utf-8"))


def _oracle_check(config: SimConfig, out_path: str) -> int:
    """Closed form vs quadrature residual table; nonzero on any failure.

    Prints one line with each family's case count and worst residual.
    """
    rng = np.random.default_rng(20240917)
    cases = []
    for _ in range(200):
        p = int(rng.integers(0, 20)) * 2 + 1
        length = float(rng.uniform(0.5, 2.0))
        ql = float(rng.uniform(-100.0, 100.0))
        cases.append((p, ql / length, length))
    # One batched quadrature for all cases.
    refs = quadrature.oracle_sine_fourier(*zip(*cases), tol=1e-12)

    rows = ["case,residual,tolerance,pass"]
    ok = True
    worst = {"sine": 0.0, "surface": 0.0}
    for i, ((p, q, length), ref) in enumerate(zip(cases, refs)):
        w = p * math.pi / length
        in_window = min(abs(q - w), abs(q + w)) * length < 1e-6
        tol = 1e-6 if in_window else 1e-9
        closed = farfield.sine_fourier_integral(p, q, length)
        residual = abs(closed - ref) / max(abs(ref), 1e-300)
        passed = residual < tol
        ok &= passed
        worst["sine"] = max(worst["sine"], residual)
        rows.append(f"sine_fourier_{i},{residual:.3e},{tol:.1e},{passed}")

    # Surface-integral spot checks on a reduced mode set (both paths use
    # the same truncation, so the comparison stays meaningful).  The cap is
    # deliberate, so its TruncationWarning is not shown.
    reduced = with_truncation(config, m_max=3, n_max=3)
    betas = (0.0, 0.002, 0.005)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        closed, _ = farfield.amplitudes(reduced, np.array(betas))
        for i, beta in enumerate(betas):
            angles = farfield.DirectionAngles(alpha=config.beam.alpha, beta=beta)
            ref = quadrature.oracle_surface_amplitude(angles, reduced, tol=1e-9)
            residual = abs(closed[i] - ref) / max(abs(ref), 1e-300)
            passed = residual < 1e-6
            ok &= passed
            worst["surface"] = max(worst["surface"], residual)
            rows.append(f"surface_{i},{residual:.3e},1.0e-06,{passed}")

    Path(out_path).write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")
    print(
        f"oracle-check: sine {len(cases)} cases, worst residual {worst['sine']:.3e}; "
        f"surface {len(betas)} cases, worst residual {worst['surface']:.3e}"
    )
    return EXIT_OK if ok else EXIT_RESIDUAL


def run(request: RunRequest) -> int:
    """Execute a request; returns the process exit status."""
    try:
        config = _load_config(request)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        if request.mode == "oracle-check":
            return _oracle_check(config, request.output_path)

        scan = farfield.scan(config)
        if request.mode == "scan":
            output.write_csv(scan, request.output_path)
        else:  # missing-orders or figure
            report = analysis.missing_orders(config, scan, request.threshold)
            rows = analysis.report_rows(config, scan, report)
            text = analysis.report_text(report, rows)
            csv_rows = ["order,beta_rad,intensity,missing_analytic,missing_numeric"]
            for j, b, inten, ana, num in rows:
                csv_rows.append(f"{j},{b:.17g},{inten:.17g},{ana},{num}")
            body = output.scan_csv(scan) + "\n".join(csv_rows) + "\n"
            Path(request.output_path).write_text(body, encoding="utf-8", newline="\n")
            print(text, end="")
        if request.plot:
            output.write_plot(scan, str(Path(request.output_path).with_suffix(".svg")))
        return EXIT_OK
    except quadrature.QuadratureDepthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESIDUAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doubleslit",
        description="Electron double-slit diffraction scans and reports.",
    )
    parser.add_argument("--config", metavar="PATH", help="config file (key = value lines)")
    parser.add_argument("--out", metavar="PATH", required=True, help="output file")
    parser.add_argument("--mode", choices=MODES, default="scan")
    parser.add_argument("--figure", type=int, metavar="N", help="preset id 3-14 (mode=figure)")
    parser.add_argument("--plot", action="store_true", help="also write an SVG plot")
    parser.add_argument(
        "--threshold",
        type=float,
        default=analysis.DEFAULT_SUPPRESSION_THRESHOLD,
        help="numeric suppression threshold for missing orders",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    mode = args.mode
    if args.figure is not None and mode == "scan":
        mode = "figure"
    try:
        request = RunRequest(
            config_path=args.config,
            output_path=args.out,
            mode=mode,
            figure_id=args.figure,
            plot=args.plot,
            threshold=args.threshold,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return run(request)


if __name__ == "__main__":
    raise SystemExit(main())
