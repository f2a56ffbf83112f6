"""Base-table statistics for the cost-based optimizer (§5.2).

``rel_stats`` gathers, for one relation occurrence (post-predicate): the row
count and per-attribute number of distinct values. The ``accurate`` scenario
uses exact distinct counts; ``estimated`` uses Spark's HyperLogLog
``approx_count_distinct`` — mirroring the paper's "exact sizes" vs
"estimates based on available statistics (cardinalities and NDV)" split.
HLL can over-estimate (e.g. 103 distinct values for 100 unique rows); no
cap is applied here because every read goes through
``cardinality.Est.ndv_of``, and the ``join``, ``semijoin`` and ``project``
estimates cap their NDV maps at the row count.

Statistics are memoised per (source data, predicate, columns, exactness), so
self-joins and repeated optimizer calls don't rescan. The source data is
identified by the semantic plan of ``tables[rel.source]``
(``semanticHash``, confirmed by ``sameSemantics``), not by the source name:
two tables that share a name (a test-scale and a bench-scale ``e``, or the
``__bag0`` of two different queries) get their own statistics, while a GHD
bag rebuilt from the same query and data reuses the earlier ones.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.cq import Relation


@dataclass(frozen=True)
class RelStats:
    """Statistics for one relation occurrence (after predicate pushdown)."""

    rows: int
    ndv: dict  # attr -> distinct count


#: (semantic hash, predicate, cols, exact) -> [(source DataFrame, stats by col)]
_CACHE: dict[tuple, list[tuple[DataFrame, RelStats]]] = {}


def rel_stats(tables: dict[str, DataFrame], rel: Relation, *, exact: bool) -> RelStats:
    src = tables[rel.source]
    bucket = _CACHE.setdefault(
        (src.semanticHash(), rel.predicate, tuple(rel.cols), exact), []
    )
    st = next((st for df, st in bucket if df.sameSemantics(src)), None)
    if st is None:
        df = src.filter(rel.predicate) if rel.predicate else src
        fn = F.count_distinct if exact else F.approx_count_distinct
        aggs = [F.count(F.lit(1)).alias("__n")] + [
            fn(F.col(c)).alias(f"__d_{i}") for i, c in enumerate(rel.cols)
        ]
        row = df.agg(*aggs).collect()[0]
        st = RelStats(
            int(row["__n"]), {c: int(row[f"__d_{i}"]) for i, c in enumerate(rel.cols)}
        )
        bucket.append((src, st))
    return RelStats(st.rows, {a: st.ndv[c] for a, c in zip(rel.attrs, rel.cols)})


def clear_cache() -> None:
    _CACHE.clear()
