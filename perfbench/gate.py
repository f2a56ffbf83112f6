"""Correctness gate: an order-insensitive fingerprint of a Spark result,
compared with the same fingerprint of DuckDB running ``cq.to_sql()``.

The fingerprint is the row count plus, per output column, its sum, minimum
and maximum. Both engines compute it themselves, so no result rows travel
to Python. A bag-semantics duplicate, a lost row or a wrong aggregate value
changes the count or a sum.
"""
from __future__ import annotations

import math

import duckdb
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


class Oracle:
    """DuckDB over pandas copies of the workload's base tables."""

    def __init__(self, tables: dict[str, DataFrame], threads: int, temp_dir: str):
        self._con = duckdb.connect(config={"threads": threads, "temp_directory": temp_dir})
        self._frames = {name: df.toPandas() for name, df in tables.items()}
        for name, pdf in self._frames.items():
            self._con.register(name, pdf)

    def columns(self, sql: str) -> list[str]:
        return [d[0] for d in self._con.execute(f"SELECT * FROM ({sql}) t LIMIT 0").description]

    def fingerprint(self, sql: str) -> tuple:
        """(column names, values): the count, then sum, min and max of each
        column in the order of the returned names."""
        cols = self.columns(sql)
        aggs = ", ".join(f'sum("{c}"), min("{c}"), max("{c}")' for c in cols)
        row = self._con.execute(f"SELECT count(*), {aggs} FROM ({sql}) t").fetchone()
        return tuple(cols), _plain(row)

    def close(self) -> None:
        self._con.close()


def spark_fingerprint(df: DataFrame, cols: tuple) -> tuple:
    """The fingerprint of a Spark result, over the oracle's ``cols``; the
    names returned are the result's own columns."""
    aggs = [F.count(F.lit(1))]
    for c in cols:
        aggs += [F.sum(F.col(c)), F.min(F.col(c)), F.max(F.col(c))]
    return tuple(df.columns), _plain(tuple(df.agg(*aggs).collect()[0]))


def _plain(row) -> tuple:
    return tuple(None if v is None else float(v) for v in row)


def mismatch(got: tuple, want: tuple) -> str | None:
    """None when the fingerprints agree, else a one-line description."""
    (gcols, gvals), (wcols, wvals) = got, want
    if sorted(gcols) != sorted(wcols):
        return f"columns {sorted(gcols)} != {sorted(wcols)}"
    labels = ["count"] + [f"{f}({c})" for c in wcols for f in ("sum", "min", "max")]
    for label, a, b in zip(labels, gvals, wvals):
        same = (a is None and b is None) or (
            a is not None and b is not None
            and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)
        )
        if not same:
            return f"{label}: {a} != {b}"
    return None
