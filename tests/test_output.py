"""The one-pass CSV and SVG writers against per-value reference writers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from doubleslit import output
from doubleslit.config import parse_config
from doubleslit.farfield import SCAN_COLUMNS, DiffractionScan, scan
from doubleslit.figures import figure_config


def reference_csv(result):
    """One format() call per value, one joined line per row."""
    lines = [output.CSV_HEADER]
    for row in zip(*(getattr(result, name).tolist() for name in SCAN_COLUMNS)):
        lines.append(",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def reference_svg_points(result):
    """One f-string per point, in the scalar operation order."""
    betas = result.beta.tolist()
    b0 = betas[0]
    span = betas[-1] - b0
    w = 800 - 2 * 60
    h = 600 - 2 * 60
    return " ".join(
        f"{60 + (b - b0) / span * w:.3f},{600 - 60 - v * h:.3f}"
        for b, v in zip(betas, result.intensity_normalized.tolist())
    )


def svg_points(svg):
    return svg.split('points="')[1].split('"')[0]


@pytest.mark.parametrize("figure_id", [3, 11])
def test_writers_match_references_on_presets(figure_id):
    result = scan(figure_config(figure_id))
    assert output.scan_csv(result) == reference_csv(result)
    assert svg_points(output.scan_svg(result)) == reference_svg_points(result)


ANY_CONFIG = parse_config("m_max = 0\nn_max = 0\n")
EDGE_VALUES = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308)
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_VALUES)


@settings(deadline=None)
@given(
    st.integers(min_value=2, max_value=12).flatmap(
        lambda n: st.lists(
            st.lists(finite, min_size=n, max_size=n),
            min_size=len(SCAN_COLUMNS),
            max_size=len(SCAN_COLUMNS),
        )
    )
)
def test_writers_match_references_on_random_columns(columns):
    result = DiffractionScan(ANY_CONFIG, **dict(zip(SCAN_COLUMNS, columns)))
    assert output.scan_csv(result) == reference_csv(result)
    if columns[0][-1] == columns[0][0]:
        with pytest.raises(ValueError):
            output.scan_svg(result)
        return
    # Spans like 1e308 - (-1e308) overflow to inf in both writers.
    with np.errstate(over="ignore", invalid="ignore"):
        assert svg_points(output.scan_svg(result)) == reference_svg_points(result)
