"""Self-tests of the benchmark: seeded inputs, metric names, self-time
arithmetic and the correctness gate.  Run with ``python3 -m pytest
perfbench`` from the checkout root (``src`` on ``PYTHONPATH``)."""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import calibration  # noqa: E402
import gate  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = ("bnb_certify", "sat_certify", "serve_mix", "cold_cli")


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- seeded generator ---------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.schedule_bytes(workload, 7) == workloads.schedule_bytes(workload, 7)


@pytest.mark.parametrize("workload", ("serve_mix", "cold_cli"))
def test_different_seed_different_inputs(workload):
    assert workloads.schedule_bytes(workload, 1) != workloads.schedule_bytes(workload, 2)


@pytest.mark.parametrize("workload", ("bnb_certify", "sat_certify"))
def test_seed_orders_fixed_job_set(workload):
    # The in-process workloads run the same proofs for every seed; the
    # seed only orders them, so their cost does not depend on it.
    lists = {workloads.schedule_bytes(workload, seed) for seed in range(8)}
    assert len(lists) > 1
    names = {tuple(sorted(j["name"] for j in workloads.IN_PROCESS[workload](seed)))
             for seed in range(8)}
    assert len(names) == 1


def test_serve_schedule_shape_is_seed_independent():
    for seed in (1, 2, 3):
        for index in (0, 1):
            reqs = workloads.serve_mix(seed, index)
            kinds = [r["kind"] for r in reqs]
            assert kinds == [r["kind"] for r in workloads.serve_mix(0, 0)]
            assert [r["due"] for r in reqs] == sorted(r["due"] for r in reqs)
            firsts = [json.dumps(r["spec"], sort_keys=True) for r in reqs
                      if r["kind"] == "first"]
            assert len(firsts) == len(set(firsts)) == 15
            for r in reqs:
                if r["kind"] == "repeat":
                    assert json.dumps(r["spec"], sort_keys=True) in firsts


def test_generated_specs_are_canonical():
    from repro.api import CoverSpec

    for spec in [j["spec"] for j in workloads.bnb_certify(0) + workloads.sat_certify(0)] + [
            r["spec"] for r in workloads.serve_mix(0, 0)]:
        assert CoverSpec.from_payload(spec).to_payload() == spec


# -- metric names -------------------------------------------------------------


def test_end_to_end_names_match_benchmark():
    attempts = [{"latency": 1.0, "ok": True}, {"latency": 2.0, "ok": False}]
    out = metrics.end_to_end(attempts, [3.0], [0.5], 2.0, 10.0, 1.5, 1.0)
    declared = [(m["name"], m["unit"]) for m in _benchmark()["end_to_end"]]
    assert sorted(out) == sorted(name for name, _ in declared)
    for name, unit in declared:
        assert NAME.fullmatch(name)
        assert out[name][1] == unit
    assert out["success_rate"][0] == 0.5
    assert out["slo_attainment"][0] == 0.5


def test_per_layer_names_match_benchmark():
    root = {"name": "job", "layer": "other", "id": "1:1", "parent": None, "rid": "r",
            "pid": 1, "tid": 1, "t0": 0, "t1": 10}
    out = metrics.per_layer([root], ["1:1"], {}, [], {})
    declared = [(m["name"], m["unit"]) for m in _benchmark()["per_layer"]]
    assert sorted(out) == sorted(name for name, _ in declared)
    for name, _ in declared:
        assert NAME.fullmatch(name)
    with pytest.raises(KeyError):
        metrics.per_layer([root], ["1:1"], {}, [], {"not.declared": (1, "s")})


# -- calibration --------------------------------------------------------------


def test_in_job_scale_weights_stretches_by_their_length():
    ref = calibration.IN_JOB_REFERENCE_S
    assert calibration.in_job_scale([ref, ref]) == pytest.approx(1.0)
    # Half the samples at half speed: the jobs ran at 3/4 speed.
    assert calibration.in_job_scale([ref, 2 * ref, ref, 2 * ref]) == pytest.approx(0.75)


def test_in_job_sampler_samples_inside_and_restores_alarm():
    import signal
    import time

    previous = signal.getsignal(signal.SIGALRM)
    with calibration.InJobSampler(0.02) as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 2
    assert 0 < sampler.stolen < 0.3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


# -- self-time arithmetic -----------------------------------------------------


def _span(sid, name, t0, t1, parent=None):
    return {"name": name, "layer": spans.LAYERS.get(name, "other"), "id": sid,
            "parent": parent, "rid": "r", "pid": 1, "tid": 1,
            "t0": int(t0 * 1e9), "t1": int(t1 * 1e9)}


def test_self_time_nested():
    tree = [
        _span("job", "job", 0, 10),
        _span("a", "api.solve", 1, 9, "job"),
        _span("b", "search.bnb", 2, 8, "a"),
        _span("c", "prologue.incumbent", 2, 3, "b"),
        _span("d", "verify", 8.5, 9, "a"),
    ]
    share = spans.attribute(tree, "job")
    assert share["other"] == pytest.approx(2.0)
    assert share["api.solve"] == pytest.approx(8 - 6 - 0.5)
    assert share["search.bnb"] == pytest.approx(5.0)
    assert share["prologue.incumbent"] == pytest.approx(1.0)
    assert share["verify"] == pytest.approx(0.5)
    assert sum(share.values()) == pytest.approx(10.0)


def test_self_time_parallel_children_split_evenly():
    tree = [
        _span("job", "job", 0, 10),
        _span("d", "dispatch", 0, 10, "job"),
        _span("w1", "search.bnb", 2, 6, "d"),
        _span("w2", "import", 4, 8, "d"),
    ]
    share = spans.attribute(tree, "job")
    # 2..4 w1 alone, 4..6 w1 and w2 share, 6..8 w2 alone.
    assert share["search.bnb"] == pytest.approx(2 + 1)
    assert share["import"] == pytest.approx(1 + 2)
    assert share["dispatch"] == pytest.approx(4)
    assert sum(share.values()) == pytest.approx(10.0)


def test_self_time_clips_to_root_and_ignores_other_roots():
    tree = [
        _span("job", "job", 2, 6),
        _span("p", "process", 0, 8, "job"),
        _span("i", "import", 1, 3, "p"),
        _span("x", "verify", 3, 4),
    ]
    share = spans.attribute(tree, "job")
    assert share == pytest.approx({"import": 1.0, "other": 3.0})


# -- correctness gate ---------------------------------------------------------


def _envelope(payload):
    from repro.api import CoverSpec, solve

    return solve(CoverSpec.from_payload(payload)).to_json()


def test_recorded_lambda1_optima_are_rho():
    from repro.core.formulas import rho

    for (n, lam, objective, max_size, _, _), (blocks, _) in gate.BNB_PROOFS.items():
        if (lam, objective, max_size) == (1, "min_blocks", 4):
            assert blocks == rho(n)
    for n, (blocks, _, _) in gate.SAT_PROOFS.items():
        assert blocks == rho(n)


def test_gate_accepts_correct_envelopes():
    closed = workloads._spec(9)
    exact = workloads._spec(6, backend="exact", use_hints=False)
    assert gate.check(_envelope(closed), closed) == []
    assert gate.check(_envelope(exact), exact) == []


def test_gate_rejects_tampered_envelopes():
    spec = workloads._spec(6, backend="exact", use_hints=False)
    good = json.loads(_envelope(spec))

    fewer = json.loads(json.dumps(good))
    fewer["covering"]["blocks"] = fewer["covering"]["blocks"][:-1]
    assert gate.check(json.dumps(fewer), spec)

    effort = json.loads(json.dumps(good))
    effort["stats"]["nodes"] += 1
    assert gate.check(json.dumps(effort), spec)

    status = json.loads(json.dumps(good))
    status["status"] = "feasible"
    assert gate.check(json.dumps(status), spec)

    assert gate.check("{not json", spec)
    assert gate.check(json.dumps(good), workloads._spec(7, backend="exact",
                                                        use_hints=False))
