"""perfbench's tracer replaces functions by (module, attribute) where
their callers look them up; a rename in ``repro`` must fail here rather
than break a traced benchmark run later."""
import importlib.util
import sys
from pathlib import Path

from repro.core import transfer
from repro.core.spec import Edge

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_wrapped_hook_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # for its dataclasses
    spec.loader.exec_module(spans)
    for module, attr, _name in spans.WRAPS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_transfer_calls_bloom_functions_through_its_globals(toy, monkeypatch):
    """Pred-Trans's builds and probes go through ``transfer.build_blooms``
    and ``transfer.apply_blooms``, the attributes the tracer wraps."""
    calls = []
    for name in ("build_blooms", "apply_blooms"):
        fn = getattr(transfer, name)
        monkeypatch.setattr(
            transfer, name, lambda *a, _fn=fn, _n=name: calls.append(_n) or _fn(*a)
        )
    edges = [Edge("R", ("r_a",), "S", ("s_a",)), Edge("S", ("s_b",), "T", ("t_b",))]
    _, stats = transfer.predicate_transfer(toy, edges, {"R": 3, "S": 4, "T": 3})
    assert calls.count("build_blooms") == stats.n_scans == 3
    assert calls.count("apply_blooms") == stats.n_scans + len(toy)
