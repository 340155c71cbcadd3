"""Reproduce **Figure 2 as a table** — runtime of the four strategies on
every suite query, normalized to No-Pred-Trans — plus the **Figure 3**
phase breakdown (pre-filter vs join time) for each run.

Usage: spark-submit jobs/tpch_sweep.py [--sf 0.1] [--queries q03,q05] [--repeat 1]
"""
import argparse

import numpy as np
from dataclasses import dataclass
from typing import Dict, List

from pyspark.sql import SparkSession

from repro import queries, tpch
from repro.core.strategies import STRATEGIES, run_query
from repro.session import get_spark


@dataclass
class Cell:
    total_s: float
    pre_s: float
    transfer_s: float
    join_s: float


def run(
    spark: SparkSession,
    sf: float,
    query_names: List[str],
    repeat: int = 1,
) -> Dict[str, Dict[str, Cell]]:
    """query → strategy → timings (min over ``repeat`` runs)."""
    data = tpch.generate(spark, sf=sf)
    out: Dict[str, Dict[str, Cell]] = {}
    for name in query_names:
        out[name] = {}
        for strategy in STRATEGIES:
            best = None
            for _ in range(repeat):
                spec = queries.build(name, data.spark)
                rr = run_query(spark, spec, strategy)
                cell = Cell(rr.total_s, rr.pre_s, rr.transfer_s, rr.join_s)
                rr.cleanup()
                if best is None or cell.total_s < best.total_s:
                    best = cell
            out[name][strategy] = best
    data.unpersist()
    return out


def format_tables(results: Dict[str, Dict[str, Cell]], sf: float) -> str:
    lines = [
        f"Figure 2 as a table — per-query runtime at SF={sf} (seconds, and ×No-Pred-Trans)",
        f"{'query':6s} " + " | ".join(f"{s:>22s}" for s in STRATEGIES),
    ]
    speedups = {s: [] for s in STRATEGIES}
    for name, row in results.items():
        base = row["no_pred_trans"].total_s
        cells = []
        for s in STRATEGIES:
            t = row[s].total_s
            speedups[s].append(base / t)
            cells.append(f"{t:>13.2f}s ({base / t:>5.2f}x)")
        lines.append(f"{name:6s} " + " | ".join(cells))
    geo = {
        s: float(np.exp(np.mean(np.log(v)))) if v else float("nan")
        for s, v in speedups.items()
    }
    avg = {s: sum(v) / len(v) for s, v in speedups.items() if v}
    lines.append(
        "avg speedup vs No-Pred-Trans: "
        + ", ".join(f"{s}={avg[s]:.2f}x (geo {geo[s]:.2f}x)" for s in STRATEGIES)
    )
    lines.append("")
    lines.append("Figure 3 as a table — phase breakdown (pre-filter phase s / join phase s)")
    lines.append(f"{'query':6s} " + " | ".join(f"{s:>22s}" for s in STRATEGIES))
    for name, row in results.items():
        cells = [
            f"{row[s].pre_s + row[s].transfer_s:>9.2f} / {row[s].join_s:>8.2f}"
            for s in STRATEGIES
        ]
        lines.append(f"{name:6s} " + " | ".join(cells))
    return "\n".join(lines)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf", type=float, default=0.1)
    ap.add_argument("--queries", type=str, default=",".join(queries.ALL))
    ap.add_argument("--repeat", type=int, default=1)
    args = ap.parse_args(argv)
    spark = get_spark("tpch_sweep")
    results = run(spark, args.sf, args.queries.split(","), repeat=args.repeat)
    print(format_tables(results, args.sf))


if __name__ == "__main__":
    main()
