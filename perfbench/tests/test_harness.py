"""Seeded inputs, the metric helpers and the span arithmetic."""

import tracemalloc
import weakref

import pytest

import run
import spans
import workloads
from doubleslit import farfield, kernels
from doubleslit.config import parse_config


def _inputs(name, seed, tmp_path):
    return [
        (i.label, i.config_text, i.figure_id)
        for i in workloads.WORKLOADS[name].make_inputs(seed, tmp_path / name)
    ]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_one_seed_gives_the_same_inputs(name, tmp_path):
    first = _inputs(name, 5, tmp_path)
    assert first == _inputs(name, 5, tmp_path)
    assert first != _inputs(name, 6, tmp_path)


def test_narrow_and_wide_slit_geometries(tmp_path):
    fine = workloads.fine_scan_inputs(3, tmp_path)
    ratios = []
    for inp in fine:
        cfg = parse_config(inp.config_text)
        lam = cfg.slits.width_a / float(inp.config_text.split()[2])
        assert 1.0 <= cfg.slits.width_a / lam <= 5.0
        assert cfg.slits.thickness_c / lam >= 0.5
        assert cfg.detector.steps == 20001
        ratios.append((cfg.slits.separation_d + cfg.slits.width_a) / cfg.slits.width_a)
    integer = [abs(r - round(r)) < 1e-9 for r in ratios]
    assert any(integer) and not all(integer)

    for inp in workloads.wide_slit_inputs(3, tmp_path):
        a_lambda = float(inp.config_text.split()[2])
        assert 20.0 <= a_lambda <= 50.0
        assert "c = 1.0 lambda" in inp.config_text


def test_median_and_rate_helpers():
    assert run.median([0.3, 0.1, 0.2]) == 0.2
    assert run.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert run.rate(10, 4.0) == 2.5
    with pytest.raises(ValueError):
        run.rate(1, 0.0)
    with pytest.raises(ValueError):
        run.median([])


def test_end_to_end_metrics_on_fixed_timings():
    loop = run.LoopResult(latencies=[0.1, 0.3, 0.2, 0.2], busy=0.8, attempted=4, failed=0)
    metrics = run.end_to_end(loop, [0.25, 0.21, 0.4], peak_rss_kb=2048)
    assert {k: v["value"] for k, v in metrics.items()} == {
        "setup_s": 0.25,
        "requests_per_s": 5.0,
        "request_p50_s": 0.2,
        "peak_rss_mb": 2.0,
    }
    assert [v["unit"] for v in metrics.values()] == ["s", "1/s", "s", "MB"]


def test_loop_checks_each_output_before_the_next_request():
    events, live = [], []

    class Output:
        pass

    def request(inp):
        events.append(("request", inp.label, sum(ref() is not None for ref in live)))
        out = Output()
        live.append(weakref.ref(out))
        return out

    def check(inp, result, refs):
        events.append(("check", inp.label))
        return [] if inp.label == "a" else ["wrong"]

    fake = workloads.Workload("fake", None, request, check, warmup=False)
    loop = run.timed_loop(fake, [workloads.Input("a"), workloads.Input("b")], 0.0, refs=None)
    # Each output is checked, then dropped, before the next request is sent.
    assert events == [("request", "a", 0), ("check", "a"), ("request", "b", 0), ("check", "b")]
    assert (loop.attempted, loop.failed, loop.rounds) == (2, 1, 1)
    assert loop.busy == pytest.approx(sum(loop.latencies))


def _span(name, start, end, parent, **counts):
    return spans.Span(name=name, start=start, end=end, parent=parent, request=0, counts=counts)


def test_layer_metrics_self_times_and_counts():
    timed = [
        _span("cli.run", 0.0, 1.0, -1),
        _span("farfield.scan", 0.1, 0.6, 0),
        _span("modes.enumerate", 0.1, 0.2, 1, kept=50),
        _span("kernels.mode_sum", 0.2, 0.3, 1, cells=1000),
        _span("kernels.mode_sum", 0.3, 0.4, 1, cells=1000),
        _span("analysis.report_text", 0.6, 0.7, 0),
        _span("analysis.report_rows", 0.65, 0.7, 5),
        _span("analysis.report_rows", 0.7, 0.75, 0),
        _span("output.csv", 0.75, 0.9, 0, bytes=300),
    ]
    m = spans.layer_metrics(timed, requests=2, memory=[])
    assert m["farfield.scan_self_s"] == pytest.approx(0.2 / 2)
    assert m["cli.self_s"] == pytest.approx((1.0 - 0.5 - 0.1 - 0.05 - 0.15) / 2)
    assert m["analysis.report_s"] == pytest.approx(0.15 / 2)
    assert m["analysis.report_rows_calls"] == 1.0
    assert m["kernels.cells"] == 1000.0
    assert m["modes.kept"] == 25.0
    assert m["output.bytes"] == 150.0
    assert list(m) == list(spans.LAYER_METRICS)


def test_tracer_records_calls_and_restores_the_program():
    config = parse_config("beta_steps = 11\nm_max = 2\nn_max = 2\n")
    original = kernels.mode_sum
    timed, memory = spans.Tracer(), spans.Tracer(memory=True)
    for tracer in (timed, memory):
        with tracer:
            tracer.request = 0
            farfield.scan(config)
            farfield.scan(config)
            tracer.request = -1
            farfield.scan(config)
        assert kernels.mode_sum is original
    one_scan = ["farfield.scan", "modes.enumerate", "kernels.mode_sum", "kernels.mode_sum"]
    assert [s.name for s in timed.spans] == one_scan * 2
    assert timed.spans[2].parent == 0 and timed.spans[2].counts == {"cells": 3 * 11}
    # The memory pass samples the first scan of the request and its kernel calls.
    assert [s.name for s in memory.spans] == ["farfield.scan", "kernels.mode_sum", "kernels.mode_sum"]
    assert memory.spans[0].peak_mb >= memory.spans[1].peak_mb > 0.0
    assert not tracemalloc.is_tracing()
