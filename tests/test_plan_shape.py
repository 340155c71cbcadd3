"""Plan-shape checks over every query a strategy runs: the baselines
carry no Bloom expression (Spark's own runtime filter stays off), the
Bloom strategies build and probe in the JVM without a Python worker,
and no strategy collects metrics (``Observation``) on its plans."""
import pytest

from repro import queries
from repro.core.strategies import run_query

BLOOM_NODES = ("might_contain", "bloom_filter_agg")
PYTHON_NODES = ("MapInPandas", "ArrowEvalPython", "BatchEvalPython", "PythonUDF")
METRICS_NODES = ("CollectMetrics",)


def _executed_plans(spark, strategy, spec):
    """Physical plan descriptions of every SQL execution the run started."""
    store = spark._jsparkSession.sharedState().statusStore()
    bus = spark.sparkContext._jsc.sc().listenerBus()

    def executions():
        bus.waitUntilEmpty()
        seq = store.executionsList()
        return [seq.apply(i) for i in range(seq.size())]

    before = max((e.executionId() for e in executions()), default=-1)
    rr = run_query(spark, spec, strategy)
    rr.cleanup()
    plans = [e.physicalPlanDescription() for e in executions() if e.executionId() > before]
    assert plans, "the SQL status store recorded no execution"
    return plans


@pytest.mark.parametrize(
    "strategy, absent",
    [
        ("no_pred_trans", BLOOM_NODES + METRICS_NODES),
        ("yannakakis", BLOOM_NODES + METRICS_NODES),
        ("bloom_join", PYTHON_NODES + METRICS_NODES),
        ("pred_trans", PYTHON_NODES + METRICS_NODES),
    ],
)
def test_plan_nodes_absent(spark, tpch_small, strategy, absent):
    spec = queries.build("q05", tpch_small.spark)
    for plan in _executed_plans(spark, strategy, spec):
        for node in absent:
            assert node not in plan, f"{strategy} ran a plan with {node}:\n{plan[:2000]}"


@pytest.mark.parametrize("strategy", ["bloom_join", "pred_trans"])
def test_bloom_strategies_build_and_probe_in_jvm(spark, tpch_small, strategy):
    spec = queries.build("q05", tpch_small.spark)
    plans = "\n".join(_executed_plans(spark, strategy, spec))
    for node in BLOOM_NODES:
        assert node in plans, f"{strategy} ran no {node}"
