"""Fast checks of the benchmark itself: tiny workloads, tracer hygiene.

Run with ``python3 -m pytest bench/tests``; the repository's own suite
does not collect them.
"""

import json
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads
from tracer import Patch, Tracer

with open(run.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as f:
    SPEC = json.load(f)

TINY = workloads.Sizes(
    occluded_trials=2,
    flowfile_trials=2,
    flowfile_oracle_checks=1,
    gen_exemplars=2,
    gen_refine_checks=1,
    setup_repeats=1,
    box_set_count=16,
    ico_subdivisions=1,
)


def _names(kind):
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_exactly_the_declared_metrics(workload, trace):
    originals = _targets(layers.layer_patches())
    result, line = run.measure(workload, 5, 0.0, trace, SPEC, TINY)
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)
    assert line["correct"], result.checks
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == _names("per_layer" if trace else "end_to_end")
    for name, metric in line["metrics"].items():
        assert isinstance(metric["value"], float | int), name
    if not trace:
        for name in _names("end_to_end"):
            assert line["metrics"][name]["value"] > 0, name


def test_standing_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_every_per_layer_metric_is_mapped():
    with open(run.BENCH / "metrics_map.json", "r", encoding="utf-8") as f:
        mapping = json.load(f)
    workload_names = {w["name"] for w in SPEC["workloads"]}
    assert set(mapping["per_layer"]) == _names("per_layer")
    for name, entry in mapping["per_layer"].items():
        assert entry["moves"] in _names("end_to_end") | {None}, name
        assert set(entry["on"]) <= workload_names, name
        assert set(entry.get("flat_on", [])) <= workload_names, name


def _targets(patches):
    return [(p.owner, p.attr, vars(p.owner)[p.attr]) for p in patches]


@pytest.mark.parametrize("patches", [layers.layer_patches, layers.flow_timer_patches])
def test_tracer_restores_every_patched_function(patches):
    before = _targets(patches())
    with Tracer(patches()):
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in before)
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)

    with pytest.raises(RuntimeError):
        with Tracer(patches()):
            raise RuntimeError("boom")
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)


def test_tracer_is_reentrant_and_keeps_spans():
    class Target:
        @staticmethod
        def leaf():
            return 1

    namespace = type("Namespace", (), {})
    namespace.leaf = Target.leaf
    original = vars(namespace)["leaf"]
    tracer = Tracer([Patch(namespace, "leaf", "leaf")])
    for _ in range(2):
        with tracer:
            tracer.unit = "u"
            outer = tracer.open("outer")
            namespace.leaf()
            tracer.close(outer)
        assert vars(namespace)["leaf"] is original
    assert [s[0] for s in tracer.spans] == ["outer", "leaf"] * 2


def test_self_time_subtracts_direct_children():
    tracer = Tracer([])
    tracer.unit = "u"
    tracer.spans = [
        ["root", 0.0, 10.0, -1, "u"],
        ["child", 1.0, 4.0, 0, "u"],
        ["grandchild", 2.0, 3.0, 1, "u"],
        ["child", 5.0, 6.0, 0, "u"],
    ]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]
    totals = tracer.totals(["u"])
    assert totals["child"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}


def test_failed_call_still_closes_its_span():
    def broken():
        raise ValueError("bad")

    namespace = type("Namespace", (), {"broken": staticmethod(broken)})
    errors = []
    tracer = Tracer([Patch(namespace, "broken", "broken",
                           on_error=lambda t, n, e: errors.append(n))])
    with tracer, pytest.raises(ValueError):
        namespace.broken()
    assert errors == ["broken"]
    assert tracer.spans[0][2] is not None and not tracer._stack


def test_runner_refuses_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "occluded-oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
