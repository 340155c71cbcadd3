"""Core of the reproduction: the predicate-transfer engine and the
three baseline strategies from the paper's evaluation.

Entry point: ``repro.core.strategies.run_query(spark, spec, strategy)``
with ``strategy`` in ``{"no_pred_trans", "bloom_join", "yannakakis",
"pred_trans"}``.
"""
