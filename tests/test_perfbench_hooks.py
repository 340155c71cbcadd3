"""perfbench's tracer replaces functions by (module, attribute) where
their callers look them up, and its metrics read what they return; a
rename in ``repro`` must fail here rather than break a benchmark run
later."""
import importlib.util
import sys
from pathlib import Path

import pandas as pd

from repro import queries
from repro.core import strategies, transfer
from repro.core.spec import Edge
from tests.test_reduced_sizes import _recording

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    """perfbench's module ``name``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_hook_resolves(monkeypatch):
    spans = _load("spans", monkeypatch)
    for module, attr, _name in spans.WRAPS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_bloom_micro_reports_every_rate(monkeypatch):
    layers = _load("layers", monkeypatch)
    rates = layers.bloom_micro([pd.Series(range(1000))], 0)
    assert set(rates) == {"bloom.hash_mkeys_s", "bloom.add_mkeys_s", "bloom.contains_mkeys_s"}
    assert all(r > 0 for r in rates.values())


def test_transfer_calls_bloom_functions_through_its_globals(toy, monkeypatch):
    """Pred-Trans's builds and probes go through ``transfer.build_blooms``
    and ``transfer.apply_blooms``, the attributes the tracer wraps; each
    filter built has the ``n_bits`` and ``bit_count`` that
    ``layers.run_metrics`` reads."""
    calls = []  # (function name, result)
    for name in ("build_blooms", "apply_blooms"):
        fn = getattr(transfer, name)

        def recording(*a, _fn=fn, _n=name):
            calls.append((_n, _fn(*a)))
            return calls[-1][1]

        monkeypatch.setattr(transfer, name, recording)
    edges = [Edge("R", ("r_a",), "S", ("s_a",)), Edge("S", ("s_b",), "T", ("t_b",))]
    _, stats = transfer.predicate_transfer(toy, edges, {"R": 3, "S": 4, "T": 3}, set(toy))
    names = [n for n, _ in calls]
    assert names.count("build_blooms") == stats.n_scans == 3
    # Each table's received filters are probed once: S's two forward ones
    # before it sends backward, then R's and T's at the end.
    assert names.count("apply_blooms") == 3
    filters = [f for n, out in calls if n == "build_blooms" for f in out]
    assert len(filters) == stats.n_filters_built
    for f in filters:
        assert isinstance(f.n_bits, int) and 0 <= f.bit_count <= f.n_bits


def test_yannakakis_tree_has_a_parent_per_table(toy, monkeypatch):
    """``spans._record`` reads a parent for every table after the root,
    also for a table whose only link is a 'none' edge."""
    spans = _load("spans", monkeypatch)
    edges = [
        Edge("R", ("r_a",), "S", ("s_a",), transfer="none"),
        Edge("S", ("s_b",), "T", ("t_b",)),
    ]
    result = transfer.yannakakis_reduce(toy, edges, "R")
    tree = result[1]
    assert set(tree.parent) == set(tree.bfs_order[1:]) == {"S", "T"}
    span = spans.Span(0, "semijoin.yannakakis_reduce", None, 0, "", 0.0)
    spans._record(span, (), {}, result)
    assert span.info["semi_joins"] == 2  # S and T reduce each other


def test_reduced_sizes_read_after_the_traced_run(spark, tpch_small, monkeypatch):
    """perfbench's ``after`` charges the run's jobs to its spans, then
    ``layers.run_metrics`` reads ``reduced_sizes``, whose first read
    counts the reduced tables: that count is exact, and it is none of
    the run's spans."""
    spans = _load("spans", monkeypatch)
    layers = _load("layers", monkeypatch)
    last = _recording(monkeypatch, "predicate_transfer")
    tracer = spans.Tracer(spark.sparkContext)
    with tracer:
        first = len(tracer.spans)
        rr = strategies.run_query(spark, queries.build("q04", tpch_small.spark), "pred_trans")
        try:
            # perfbench/run.py ``per_layer``'s ``after``, in its order.
            tracer.count_jobs(first)
            run_spans = tracer.spans[first:]
            metrics = layers.run_metrics(run_spans, tracer.self_times(), rr, 0.0)
        finally:
            rr.cleanup()
    expected = {t: df.count() for t, df in last["reduced"].items()}
    assert metrics["pred_trans.strategies.reduced_rows"] == sum(expected.values())
    assert 0 < metrics["pred_trans.transfer.rows_kept"] <= 1
    root = run_spans[0]
    assert root.name == "strategies.run_query"
    assert [sp.name for sp in run_spans].count("strategies.count_all") == 1, "the size count"
    (read,) = tracer.spans[first + len(run_spans):]
    assert read.name == "strategies.count_all"
    assert read.parent is None and read.run == read.id != root.id
