"""Tests for the QuerySpec layer: alias renaming, validation and the
schema check."""
from dataclasses import replace

import pandas as pd
import pytest

from repro.core.spec import Edge, QuerySpec, SubQuery, TableRef, rename_prefix, schema_problems
from repro.core.spec import left_deep, validate
from repro.core.strategies import STRATEGIES, run_query


@pytest.fixture(scope="module")
def dfs(spark):
    R = spark.createDataFrame(pd.DataFrame({"r_a": [1], "r_x": [1.0]}))
    S = spark.createDataFrame(pd.DataFrame({"s_a": [1], "s_b": [2]}))
    T = spark.createDataFrame(pd.DataFrame({"t_b": [2]}))
    return R, S, T


def _spec(R, S, T, **over):
    kw = dict(
        name="toy",
        tables={"R": TableRef(df=R), "S": TableRef(df=S), "T": TableRef(df=T)},
        edges=[
            Edge("R", ("r_a",), "S", ("s_a",)),
            Edge("S", ("s_b",), "T", ("t_b",)),
        ],
        join_order=["R", "S", "T"],
        finalize=lambda df, s: df,
    )
    kw.update(over)
    return QuerySpec(**kw)


def _tables(spec):
    """The base tables of ``spec`` by name, as ``run_query`` resolves them."""
    return {t: ref.df for t, ref in spec.tables.items()}


class TestTableRef:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            TableRef()
        with pytest.raises(ValueError):
            TableRef(df="x", subquery="y")


class TestRenamePrefix:
    def test_renames_matching_columns(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"l_a": [1], "l_b": [2], "other": [3]}))
        out = rename_prefix(df, "l_", "l2_")
        assert out.columns == ["l2_a", "l2_b", "other"]

    def test_data_unchanged(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"l_a": [1, 2, 3]}))
        assert sorted(r.l2_a for r in rename_prefix(df, "l_", "l2_").collect()) == [1, 2, 3]

    def test_enables_self_join(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"l_a": [1, 2]}))
        other = rename_prefix(df, "l_", "l2_")
        joined = df.join(other, df["l_a"] == other["l2_a"])
        assert joined.count() == 2


class TestValidate:
    def test_valid_spec_has_no_problems(self, dfs):
        spec = _spec(*dfs)
        assert validate(spec) == []
        assert schema_problems(spec, _tables(spec)) == []

    def test_join_order_must_cover_tables(self, dfs):
        assert validate(_spec(*dfs, join_order=["R", "S"]))

    def test_duplicate_join_order(self, dfs):
        assert validate(_spec(*dfs, join_order=["R", "S", "S"]))

    def test_unknown_edge_table(self, dfs):
        R, S, T = dfs
        bad = _spec(R, S, T, edges=[Edge("R", ("r_a",), "X", ("x",))])
        assert any("unknown table" in p for p in validate(bad))

    def test_missing_edge_column(self, dfs):
        R, S, T = dfs
        bad = _spec(R, S, T, edges=[
            Edge("R", ("r_missing",), "S", ("s_a",)),
            Edge("S", ("s_b",), "T", ("t_b",)),
        ])
        assert validate(bad) == []
        assert any("lacks edge columns" in p for p in schema_problems(bad, _tables(bad)))

    def test_duplicate_columns_across_tables(self, dfs, spark):
        R, S, T = dfs
        S2 = spark.createDataFrame(pd.DataFrame({"r_a": [1], "s_b": [2]}))
        bad = _spec(R, S2, T, edges=[
            Edge("R", ("r_a",), "S", ("r_a",)),
            Edge("S", ("s_b",), "T", ("t_b",)),
        ])
        assert validate(bad) == []
        assert any("appears in both" in p for p in schema_problems(bad, _tables(bad)))

    def test_disconnected_join_order(self, dfs):
        R, S, T = dfs
        bad = _spec(R, S, T, join_order=["R", "T", "S"])
        assert any("disconnects" in p for p in validate(bad))

    def test_semi_table_must_enter_as_right_side(self, dfs):
        R, S, T = dfs
        bad = QuerySpec(
            name="toy",
            tables={"R": TableRef(df=R), "S": TableRef(df=S)},
            edges=[Edge("R", ("r_a",), "S", ("s_a",), how="semi")],
            join_order=["S", "R"],  # outer table folded into the semi side
            finalize=lambda df, s: df,
        )
        assert any("right side" in p for p in validate(bad))

    def test_semi_table_must_be_single_edge(self, dfs):
        R, S, T = dfs
        bad = _spec(
            R, S, T,
            edges=[
                Edge("R", ("r_a",), "S", ("s_a",)),
                Edge("T", ("t_b",), "S", ("s_b",), how="semi"),
            ],
            join_order=["T", "S", "R"],
        )
        assert any("exactly one edge" in p for p in validate(bad))

    def test_unknown_subquery_reference(self, dfs):
        R, S, T = dfs
        bad = _spec(
            R, S, T,
            tables={
                "R": TableRef(df=R),
                "S": TableRef(df=S),
                "T": TableRef(subquery="nope"),
            },
        )
        assert any("unknown subquery" in p for p in validate(bad))

    def test_subquery_problems_propagate(self, dfs):
        R, S, T = dfs
        inner = _spec(R, S, T, join_order=["R", "S"])  # invalid
        outer = _spec(*dfs, subqueries=[SubQuery(name="x", spec=inner)])
        assert any(p.startswith("[x]") for p in validate(outer))

    def test_left_deep(self, dfs):
        spec = _spec(*dfs)
        r_s, s_t = spec.edges
        assert left_deep(spec.edges, ["R", "S", "T"]) == [("S", [r_s]), ("T", [s_t])]
        assert left_deep(spec.edges, ["R", "T", "S"]) == [("T", []), ("S", [r_s, s_t])]
        assert left_deep(spec.edges, ["T"]) == []

    def test_each_problem_reported_once(self, dfs):
        # U is a semi table with a second edge, folded in last over both.
        # ``validate`` reads no DataFrame, so U reuses T's.
        R, S, T = dfs
        bad = _spec(
            R, S, T,
            tables={t: TableRef(df=df) for t, df in zip("RSTU", (R, S, T, T))},
            edges=_spec(*dfs).edges + [
                Edge("R", ("r_a",), "U", ("u_a",), how="semi"),
                Edge("T", ("t_b",), "U", ("u_b",)),
            ],
            join_order=["R", "S", "T", "U"],
        )
        assert validate(bad) == [
            "U: semi/anti table mixes with other edges (needs exactly one edge)"
        ]
        # The right side of two semi edges.
        r_u, t_u = bad.edges[2:]
        two_semi = replace(bad, edges=bad.edges[:2] + [r_u, replace(t_u, how="semi")])
        assert validate(two_semi) == [
            "U: semi/anti table mixes with other edges (needs exactly one edge)"
        ]
        # Placed first, U also disconnects S and joins as R's left side.
        assert validate(replace(bad, join_order=["U", "S", "R", "T"])) == [
            "U: semi/anti table mixes with other edges (needs exactly one edge)",
            "join_order disconnects at S (cross join)",
            "U: semi/anti table must be joined after R, as the edge's right side",
        ]

    def test_edges_of(self, dfs):
        spec = _spec(*dfs)
        assert len(spec.edges_of("S")) == 2
        assert len(spec.edges_of("R")) == 1

    def test_filtered_tables(self, dfs):
        R, S, T = dfs
        spec = _spec(
            R, S, T,
            tables={
                "R": TableRef(df=R),
                "S": TableRef(df=S, predicate=S["s_b"] > 0),
                "T": TableRef(subquery="x"),
            },
        )
        assert spec.filtered == {"S", "T"}
        assert _spec(*dfs).filtered == set()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_self_edge_refused_before_any_job(spark, dfs, strategy):
    """An edge from a table to itself (``r_a = r_x`` within R) is refused:
    the left-deep plan never joins it, so no strategy could apply it."""
    sc = spark.sparkContext
    sc.setJobGroup("rejected-run", "run_query with a self-edge")
    try:
        with pytest.raises(ValueError, match="edge R-R: a self-edge"):
            spec = _spec(*dfs, edges=_spec(*dfs).edges + [Edge("R", ("r_a",), "R", ("r_x",))])
            run_query(spark, spec, strategy)
        assert sc.statusTracker().getJobIdsForGroup("rejected-run") == []
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
