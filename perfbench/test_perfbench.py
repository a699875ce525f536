"""Tests of the benchmark itself:  python3 -m pytest -q perfbench/test_perfbench.py"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from tracing import EXACT_COUNTS, REFERENCE_COUNTS, TRACED_MODULES, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import flatten  # noqa: E402


def _span(name, parent, start, end):
    return [name, parent, float(start), float(end)]


def test_self_times_of_a_nested_tree_add_up_to_the_root():
    spans = [
        _span("root", None, 0, 10),
        _span("a", 0, 1, 4),
        _span("a.child", 1, 2, 3),
        _span("b", 0, 5, 9),
        _span("b.x", 3, 5, 6),
        _span("b.y", 3, 7, 8.5),
    ]
    own = self_times(spans)
    assert own == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    assert sum(own) == pytest.approx(10.0)
    metrics = layer_metrics(spans, {})
    assert metrics["trace.root_s"] == pytest.approx(10.0)
    assert metrics["trace.self_remainder_s"] == pytest.approx(0.0, abs=1e-12)
    assert metrics["a.calls"] == 1 and metrics["b.self_s"] == pytest.approx(1.5)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("root", None, 0, 10),
        _span("x", 0, 1, 5),
        _span("y", 0, 3, 7),
        _span("z", 0, 9, 12),  # runs past its parent: only 9..10 is covered
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def _package_namespace():
    """Every attribute of the traced cdam modules and of their classes."""
    modules = [importlib.import_module("cdam")] + [
        importlib.import_module(f"cdam.{m}") for m in TRACED_MODULES]
    snapshot = {}
    for module in modules:
        for attr, value in vars(module).items():
            snapshot[(module.__name__, attr)] = value
            if inspect.isclass(value):
                for name, member in vars(value).items():
                    snapshot[(f"{module.__name__}.{attr}", name)] = member
    return snapshot


def test_tracer_wraps_every_import_site_and_restores_the_originals(tmp_path):
    from cdam import cli, dynamics, experiments, graphs

    before = _package_namespace()
    original = dynamics.retrieval_vector
    tracer = Tracer()
    tracer.install()
    try:
        assert dynamics.retrieval_vector is not original
        assert experiments.retrieval_vector is dynamics.retrieval_vector
        assert vars(graphs.MemoryGraph)["fingerprint"].__wrapped__ is not None
        with tracer.span("bench.pass"):
            assert cli.main(["experiment", "ei-balance", "--n", "40", "--out", str(tmp_path)]) == 0
    finally:
        assert tracer.uninstall()
    after = _package_namespace()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "dynamics.retrieval_vector", "dynamics.softmax_beta",
            "experiments.run_all_triggers", "reports.write_manifest"} <= names
    softmax_parents = {tracer.spans[s[1]][0] for s in tracer.spans if s[0] == "dynamics.softmax_beta"}
    assert softmax_parents == {"dynamics.retrieval_vector"}
    metrics = layer_metrics(tracer.spans, tracer.counts)
    assert metrics["dynamics.column_updates"] == 4 * 30 * 101  # 4 settings, B = p = 30, 101 steps
    assert abs(metrics["trace.self_remainder_s"]) < 1e-9


def test_every_per_layer_metric_names_a_span_or_a_counter():
    tracer = Tracer()
    tracer.install()
    try:
        spans = {f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__qualname__}" for _, _, fn in tracer.patched}
    finally:
        tracer.uninstall()
    derived = set(EXACT_COUNTS) | {
        "dynamics.flops_per_byte", "dynamics.gflops", "dynamics.blas_speedup",
        "dynamics.retrieval_vector.self_s.threads1", "dynamics.retrieval_vector.self_s.threads_nproc",
        "trace.overhead_frac", "trace.root_s", "trace.self_remainder_s", "failed_frac.threads1",
        "reports.files_written",
    }
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for metric in spec["per_layer"]:
        name = metric["name"]
        span, _, measure = name.rpartition(".")
        assert name in derived or (measure in ("calls", "self_s") and span in spans), name


def test_compare_is_exact_for_discrete_values_and_tolerant_for_floats():
    ref = {"i": 3, "s": "0x5", "b": True, "f": 1.0, "n": float("nan"), "z": 0.0}
    assert run.compare(dict(ref, f=1.0 + 1e-12, z=1e-13), ref) == (6, [])
    checked, missed = run.compare(dict(ref, i=4, s="0x4", f=1.0 + 1e-6), ref)
    assert missed == ["f", "i", "s"]
    assert run.compare({"i": 3}, ref, subset=True) == (1, [])
    assert run.compare({"i": 3}, ref)[1] == ["b", "f", "n", "s", "z"]


def test_exact_counts_repeat_and_only_shape_counts_meet_the_reference():
    reference = {"digest": {}, "counts": {k: 7 for k in REFERENCE_COUNTS}}
    first = {k: 7 for k in EXACT_COUNTS}
    checker = run.Checker(reference)
    checker.check_counts("pass 0", dict(first, **{"reports.bytes_written": 1000}))
    checker.check_counts("pass 1", dict(first, **{"reports.bytes_written": 1000}))
    assert checker.misses == [] and checker.attempted == 2 * len(EXACT_COUNTS)
    checker.check_counts("pass 2", dict(first, **{"reports.bytes_written": 1001, "dynamics.flops": 8}))
    assert checker.misses == ["pass 2: exact count dynamics.flops", "pass 2: exact count reports.bytes_written"]


def test_matrix_digest_sees_transposed_and_permuted_matrices():
    def digest(matrix):
        out = {}
        flatten("m", matrix, out)
        return out

    m = [[1.0, -0.5, 0.25], [0.0, 2.0, -1.0], [3.0, 0.5, 1.5]]
    transposed = [list(col) for col in zip(*m)]
    swapped = [m[0], m[2], m[1]]
    swapped = [[row[0], row[2], row[1]] for row in swapped]  # same diagonal set, rows and columns swapped
    for other in (transposed, swapped):
        assert digest(other)["m.sum"] == digest(m)["m.sum"]
        assert run.compare(digest(other), digest(m))[1]


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)


def test_traced_pass_passes_the_reference_check(at_root):
    reference = run.load_reference("figures", 0)
    threads = min(run.reference_file("figures")["blas_threads"], run.nproc())
    result = run.Runner("figures", 0, time.monotonic() + 120).spawn("traced", threads)
    assert result["restored"]
    assert run.compare(result["digest"], reference["digest"]) == (len(reference["digest"]), [])
    counts = {k: result["layers"].get(k, 0) for k in REFERENCE_COUNTS}
    assert counts == reference["counts"]


def test_unstored_seed_makes_fresh_inputs_and_fingerprints_them(at_root, capsys):
    seed = 1000
    assert run.load_reference("figures", seed) is None
    assert run.main(["--workload", "figures", "--seed", str(seed), "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    record = json.loads((run.OUT / "runs" / f"figures-seed{seed}-trace0.json").read_text())
    assert record["reference"].startswith("none")
    assert record["outputs_fingerprint"] != run.fingerprint(run.load_reference("figures", 0)["digest"])
    assert f"outputs fingerprint {record['outputs_fingerprint']}" in "\n".join(lines)


def test_reference_made_with_another_blas_core_is_reported_not_applied(at_root, monkeypatch, capsys):
    stored = run.reference_file("figures")
    monkeypatch.setattr(run, "reference_file", lambda workload: dict(stored, blas_core="another core"))
    assert run.main(["--workload", "figures", "--seed", "0", "--seconds", "0"]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"]
    record = json.loads((run.OUT / "runs" / "figures-seed0-trace0.json").read_text())
    assert "does not apply" in record["reference"]
    assert f"0 of {len(stored['seeds']['0']['digest'])} stored values differ" in record["reference"]
