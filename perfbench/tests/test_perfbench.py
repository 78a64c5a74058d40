"""Self-tests of the benchmark harness: python3 -m pytest perfbench/tests -q"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402


def test_self_time_of_a_nested_span_tree():
    # a[0,10] > (b[1,4] > c[2,3]), (b[5,9] > a[6,7]); ids: a=0, b=1, c=2
    names = ["a", "b", "c"]
    span_name = [0, 1, 2, 1, 0]
    parent = [-1, 0, 1, 0, 3]
    start = [0.0, 1.0, 2.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 9.0, 7.0]
    agg = tracer.aggregate(names, span_name, parent, start, end)
    assert agg["a"] == {"calls": 2, "self_s": 3.0 + 1.0, "total_s": 11.0}
    assert agg["b"] == {"calls": 2, "self_s": 2.0 + 3.0, "total_s": 7.0}
    assert agg["c"] == {"calls": 1, "self_s": 1.0, "total_s": 1.0}


def test_tracer_wraps_every_binding_site_and_restores_them():
    from bertinilab import arithlab, ffield, p1sections
    original = ffield.poly_gcd
    t = tracer.Tracer().install()
    try:
        assert arithlab.poly_gcd is p1sections.poly_gcd is ffield.poly_gcd
        assert ffield.poly_gcd is not original
        # poly_gcd reaches poly_divmod through ffield's own namespace
        assert ffield.poly_gcd([1, 0, 1], [1, 1], 2) == [1, 1]
        agg = tracer.aggregate(t.names, t.span_name, t.span_parent,
                               t.span_start, t.span_end)
        assert agg["ffield.poly_gcd"]["calls"] == 1
        assert agg["ffield.poly_divmod"]["calls"] == 1
        ffield.GF(3, 2).mul(4, 5)
        assert t.counts["ffield.GF.mul.calls"] == 1
    finally:
        t.uninstall()
    assert arithlab.poly_gcd is p1sections.poly_gcd is ffield.poly_gcd is original


def test_metric_names_are_well_formed_and_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.per_layer_metrics()
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    for name in [*e2e, *layers, *run.WORKLOADS]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_digest_ignores_duration_and_layout_but_not_results():
    doc = {"results": {"num": 10 ** 120, "mean": 0.25}, "duration_s": 1.5}
    base = run.report_digest(json.dumps(doc))
    assert run.report_digest(json.dumps({**doc, "duration_s": 9.0}, indent=2)) == base
    assert run.report_digest(json.dumps({**doc, "results": {"num": str(10 ** 120),
                                                            "mean": 0.25}})) != base


@pytest.mark.parametrize("recorded", [True, False])
def test_a_tampered_payload_fails_the_digest_gate(recorded):
    workload = run.WORKLOADS["zeta-deep"]
    good = run.report_digest(json.dumps({"results": {"a_e": [2, 1]}}))
    bad = run.report_digest(json.dumps({"results": {"a_e": [2, 2]}}))
    digests = {run.argv_key(workload.argv(0)): good} if recorded else {}
    calls = [{"traced": False, "digest": good}, {"traced": False, "digest": bad},
             {"traced": False, "digest": good}]
    run.check(workload, 0, calls, digests)
    assert ["error" in c for c in calls] == [False, True, False]


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(39))) is None
    q, value = run.tail_percentile([float(i) for i in range(40)])
    assert q == 75 and 28.0 <= value <= 30.0
    assert run.tail_percentile(list(range(100)))[0] == 90
