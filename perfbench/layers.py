"""Per-layer metrics, derived from the spans of one traced run.

Metric names are ``<strategy>.<layer>.<metric>``. A metric exists only for
the strategies that use its layer (BENCHMARK.json lists them all). Every
time is a self time: a span's duration minus the time its child spans
cover. The numpy-only Bloom throughputs (``bloom_micro``) need no Spark.
"""
from __future__ import annotations

import statistics
import time
from typing import Dict, List, Mapping, Sequence

#: The strategies every workload runs, in ``repro.core.strategies`` order.
STRATEGIES = ("no_pred_trans", "bloom_join", "yannakakis", "pred_trans")
PREFILTER = ("bloom_join", "yannakakis", "pred_trans")  # call _count_all
PERSISTING = ("yannakakis", "pred_trans")  # persist reduced tables
BLOOM = ("bloom_join", "pred_trans")


def run_metrics(spans, own: Mapping[int, float], rr, run_mb: float) -> Dict[str, float]:
    """Per-layer metrics of one traced ``run_query`` call.

    ``spans`` are the call's spans, its root ``run_query`` span first;
    ``own`` maps span id to self time; ``run_mb`` is the storage the run
    persisted on top of the base tables. Jobs under the join-phase span,
    and the root's own jobs (the final collect), are join-phase jobs;
    every other job ran in the pre-filter phase.
    """
    root = spans[0]
    s = root.info["strategy"]
    by_id = {sp.id: sp for sp in spans}

    def top(sp):  # the root's child that ``sp`` descends from
        while sp.parent != root.id:
            sp = by_id[sp.parent]
        return sp

    join = [root] + [
        sp for sp in spans[1:] if top(sp).name == "executor.execute_join_phase"
    ]
    join_ids = {sp.id for sp in join}
    pre = [sp for sp in spans if sp.id not in join_ids]

    def named(name):
        return [sp for sp in spans if sp.name == name]

    def self_s(name):
        return sum(own[sp.id] for sp in named(name))

    m: Dict[str, float] = {}
    if s in PREFILTER:
        m[f"{s}.strategies.prefilter_s"] = rr.transfer_s
        m[f"{s}.strategies.count_s"] = self_s("strategies.count_all")
        m[f"{s}.strategies.prefilter_jobs"] = sum(sp.jobs for sp in pre)
        m[f"{s}.strategies.prefilter_tasks"] = sum(sp.tasks for sp in pre)
    m[f"{s}.strategies.join_s"] = rr.join_s
    m[f"{s}.strategies.join_jobs"] = sum(sp.jobs for sp in join)
    m[f"{s}.strategies.join_tasks"] = sum(sp.tasks for sp in join)
    if s in PERSISTING:
        m[f"{s}.strategies.reduced_rows"] = sum(rr.reduced_sizes.values())
        m[f"{s}.strategies.cached_mb"] = run_mb
    if s == "pred_trans":
        st = rr.transfer_stats
        m[f"{s}.transfer.self_s"] = self_s("transfer.predicate_transfer")
        m[f"{s}.transfer.scans"] = st.n_scans
        m[f"{s}.transfer.filters_built"] = st.n_filters_built
        m[f"{s}.transfer.filters_applied"] = st.n_filters_applied
        m[f"{s}.transfer.rows_kept"] = sum(rr.reduced_sizes.values()) / sum(rr.sizes.values())
    if s in BLOOM:
        builds = named("bloom.build_blooms")
        probes = [sp for sp in named("bloom.apply_blooms") if sp.info["filters"]]
        filters = [f for sp in builds for f in sp.info["filters"]]
        m[f"{s}.bloom.build_calls"] = len(builds)
        m[f"{s}.bloom.build_s"] = sum(own[sp.id] for sp in builds)
        m[f"{s}.bloom.build_tasks"] = sum(sp.tasks for sp in builds)
        m[f"{s}.bloom.probe_calls"] = len(probes)
        m[f"{s}.bloom.filters_probed"] = sum(sp.info["filters"] for sp in probes)
        m[f"{s}.bloom.filter_mbits"] = sum(f.n_bits for f in filters) / 1e6
        m[f"{s}.bloom.max_fill"] = max(f.bit_count / f.n_bits for f in filters)
    if s == "yannakakis":
        (semi,) = named("semijoin.yannakakis_reduce")
        m[f"{s}.semijoin.semi_joins"] = semi.info["semi_joins"]
        m[f"{s}.semijoin.plan_s"] = own[semi.id]
    m[f"{s}.executor.plan_s"] = self_s("executor.execute_join_phase")
    m[f"{s}.traced_total_s"] = root.duration
    return m


def largest_key(edges, tables: Mapping) -> list:
    """The key columns (as pandas Series) of the largest table that any
    join edge touches; the first such edge wins a tie."""
    best = None
    for e in edges:
        for cols in (e.left_cols, e.right_cols):
            pdf = next(p for p in tables.values() if set(cols) <= set(p.columns))
            if best is None or len(pdf) > len(best[0]):
                best = (pdf, cols)
    pdf, cols = best
    return [pdf[c] for c in cols]


def bloom_micro(keys: Sequence, seconds: float) -> Dict[str, float]:
    """Million keys per second, numpy only: hashing the key columns
    (``combine_columns`` + ``mix64``), inserting them into a fresh filter
    sized by ``optimal_params`` at fpp 0.01 and packing its bits as every
    build does (``to_bytes``), and probing that filter.
    Each rate is the median over repetitions that fill ``seconds``."""
    from repro.bloom.filter import BloomFilter, optimal_params
    from repro.bloom.hashing import combine_columns, mix64

    n = len(keys[0])
    params = optimal_params(n, 0.01)

    def rate(fn) -> float:
        times: List[float] = []
        end = time.perf_counter() + seconds
        while len(times) < 5 or time.perf_counter() < end:
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return n / statistics.median(times) / 1e6

    def add(hashed) -> BloomFilter:
        f = BloomFilter(*params)
        f.add_hashed(hashed)
        f.to_bytes()
        return f

    hashed = mix64(combine_columns(keys))
    full = add(hashed)
    return {
        "bloom.hash_mkeys_s": rate(lambda: mix64(combine_columns(keys))),
        "bloom.add_mkeys_s": rate(lambda: add(hashed)),
        "bloom.contains_mkeys_s": rate(lambda: full.contains_hashed(hashed)),
    }
