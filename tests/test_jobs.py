"""Smoke tests for the job entrypoints (called as functions with a tiny
SF; the CLI wrappers only add argparse + a session)."""
import re

import pytest

import jobs.robustness_q5 as robustness_q5
import jobs.run_query as run_query_job
import jobs.table1_q5 as table1_q5
import jobs.tpch_sweep as tpch_sweep
from repro.core.strategies import STRATEGIES

SF = 0.002


def test_table1_job(spark):
    measured = table1_q5.run(spark, sf=SF)
    assert set(measured) == set(STRATEGIES)
    for rows in measured.values():
        assert len(rows) == 5
        assert all(ht >= 0 and pr >= 0 for ht, pr in rows)
    text = table1_q5.format_table(measured, SF)
    assert "Join 5" in text and "pred_trans" in text


def test_table1_paper_reference_shape():
    assert set(table1_q5.PAPER_TABLE1) == set(STRATEGIES)
    assert all(len(v) == 5 for v in table1_q5.PAPER_TABLE1.values())


def test_sweep_job(spark):
    results = tpch_sweep.run(spark, SF, ["q12", "q14"])
    assert set(results) == {"q12", "q14"}
    for row in results.values():
        assert set(row) == set(STRATEGIES)
        assert all(c.total_s > 0 for c in row.values())
    text = tpch_sweep.format_tables(results, SF)
    assert "avg speedup" in text and "phase breakdown" in text


def test_sweep_rejects_unknown_query_before_generating(monkeypatch):
    def generate(*args, **kwargs):
        raise AssertionError("data generated")

    monkeypatch.setattr(tpch_sweep.tpch, "generate", generate)
    with pytest.raises(ValueError, match=r"unknown queries \['q99'\]"):
        tpch_sweep.run(None, SF, ["q12", "q99"])


def test_robustness_job(spark):
    results = robustness_q5.run(spark, SF)
    assert set(results) == {"order1", "order2", "order3"}
    text = robustness_q5.format_table(results, SF)
    assert "max/min" in text


def test_run_query_job(spark):
    rr, data = run_query_job.run(spark, "q03", "pred_trans", SF, verify=True)
    assert rr.rows
    lines = run_query_job.format_sizes(rr).splitlines()
    parsed = [re.fullmatch(r"  (\w+): (\d+) → (\d+)", line) for line in lines]
    assert all(parsed), lines
    assert [m[1] for m in parsed] == ["customer", "orders", "lineitem"]
    for m in parsed:
        assert int(m[2]) == rr.sizes[m[1]] >= int(m[3]) == rr.reduced_sizes[m[1]]
    # Every q03 table has a local predicate: both passes send over both edges.
    lines = run_query_job.format_transfers(rr.transfer_stats).splitlines()
    parsed = [re.fullmatch(r"  (\w+) → (\w+) \((\w+) → (\w+)\)", line) for line in lines]
    assert all(parsed), lines
    assert [m.groups() for m in parsed] == [
        (d.src, d.dst, *d.src_cols, *d.dst_cols)
        for _, outs in rr.transfer_stats.steps
        for d in outs
    ]
    assert len(parsed) == 4
    rr.cleanup()
    data.unpersist()
