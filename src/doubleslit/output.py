"""CSV and SVG emission for diffraction scans.

Both formats are byte-deterministic for identical scans; numbers are
written with 17 significant digits so re-parsing reproduces the doubles
bit-exactly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .farfield import SCAN_COLUMNS, DiffractionScan

CSV_HEADER = "beta_rad,intensity_total,intensity_slit1,two_slit_factor,intensity_normalized"

_SVG_WIDTH = 800
_SVG_HEIGHT = 600
_MARGIN = 60


def scan_csv(scan: DiffractionScan) -> str:
    """Header plus one row per angle, formatted in a single pass.

    '%.17g' % x equals format(x, '.17g') for every double.
    """
    table = np.column_stack([getattr(scan, name) for name in SCAN_COLUMNS])
    row = ",".join(["%.17g"] * len(SCAN_COLUMNS)) + "\n"
    return CSV_HEADER + "\n" + (row * len(table)) % tuple(table.ravel().tolist())


def write_csv(scan: DiffractionScan, path) -> None:
    Path(path).write_text(scan_csv(scan), encoding="utf-8", newline="\n")


def scan_svg(scan: DiffractionScan) -> str:
    """Standalone SVG polyline of (beta, normalized intensity)."""
    if scan.beta.size < 2:
        raise ValueError("plot needs at least 2 rows")
    b0 = float(scan.beta[0])
    span = float(scan.beta[-1]) - b0
    if span == 0.0:
        raise ValueError("plot needs distinct first and last beta")
    w = _SVG_WIDTH - 2 * _MARGIN
    h = _SVG_HEIGHT - 2 * _MARGIN
    # The scalar formula's operations in its order, so the doubles (and bytes) match it.
    x = _MARGIN + (scan.beta - b0) / span * w
    y = _SVG_HEIGHT - _MARGIN - scan.intensity_normalized * h
    points = " ".join(["%.3f,%.3f"] * x.size) % tuple(np.column_stack((x, y)).ravel().tolist())
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">\n'
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>\n'
        f'<line x1="{_MARGIN}" y1="{_SVG_HEIGHT - _MARGIN}" x2="{_SVG_WIDTH - _MARGIN}" '
        f'y2="{_SVG_HEIGHT - _MARGIN}" stroke="black"/>\n'
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_SVG_HEIGHT - _MARGIN}" stroke="black"/>\n'
        f'<text x="{_SVG_WIDTH // 2}" y="{_SVG_HEIGHT - 20}" '
        'text-anchor="middle" font-family="monospace">beta(rad)</text>\n'
        f'<text x="20" y="{_SVG_HEIGHT // 2}" text-anchor="middle" '
        'font-family="monospace">I</text>\n'
        f'<polyline fill="none" stroke="blue" stroke-width="1" points="{points}"/>\n'
        "</svg>\n"
    )


def write_plot(scan: DiffractionScan, path) -> None:
    Path(path).write_text(scan_svg(scan), encoding="utf-8", newline="\n")
