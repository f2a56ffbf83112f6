"""Lower operator plans to Spark DataFrame DAGs (Catalyst operators).

This is the one lowering of the semiring semantics. Every IR step maps 1:1
to standard Catalyst logical operators — Filter, Project, Aggregate,
Join(Inner/Cross), Join(LeftSemi) — mirroring the paper's claim that
Yannakakis+ plans consist solely of standard relational operators
executable by any SQL engine. The classic Yannakakis and Yannakakis+ plans,
the native baseline (:func:`native_plan`) and the GHD bag queries all run
through :func:`execute`. The whole plan composes lazily, so Spark executes
it as one job; Spark's join reordering (CBO) is off by default, so the
emitted structure is what runs.

Annotation protocol: a DataFrame may carry the annotation column ``__v``;
absence means "all annotations are the ⊗-identity" (annotation pruning,
§5.1). Joins ⊗-combine, aggregating projections ⊕-combine, and a projection
whose ⊕ counts identities (``Semiring.plus_counts_ones``) over an
annotation-free input materialises ``count(*)``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .cq import CQ, Relation
from .plan import Filter, Finalize, Join, Plan, Project, Scan, SemiJoin, Step
from .semiring import Semiring

ANNOT = "__v"


def scan_df(
    tables: dict[str, DataFrame],
    rel: Relation,
    *,
    with_annot: bool,
    sr: Semiring | None = None,
) -> DataFrame:
    """Predicate pushdown + column→attribute rename (+ annotation; an
    unannotated relation gets the semiring's ⊗-identity)."""
    df = tables[rel.source]
    if rel.predicate:
        df = df.filter(rel.predicate)
    cols = [F.col(c).alias(a) for a, c in zip(rel.attrs, rel.cols)]
    if with_annot:
        annot = rel.annot if rel.annot is not None else str(sr.one if sr else 1)
        cols.append(F.expr(annot).alias(ANNOT))
    return df.select(*cols)


def _project(df: DataFrame, attrs: tuple[str, ...], dedup: bool, sr: Semiring) -> DataFrame:
    has_v = ANNOT in df.columns
    if sr.boolean:
        out = df.select(*attrs)
        return out.distinct() if dedup else out
    if not dedup:
        return df.select(*attrs, *([ANNOT] if has_v else []))
    if has_v:
        agg = F.expr(f"{sr.plus_fn}({ANNOT})").alias(ANNOT)
    elif sr.plus_counts_ones:
        agg = F.count(F.lit(1)).alias(ANNOT)
    else:
        # ⊕ of ⊗-identities is the identity: stay annotation-free
        return df.select(*attrs).distinct()
    return df.groupBy(*attrs).agg(agg) if attrs else df.agg(agg)


def _join(left: DataFrame, right: DataFrame, on: tuple[str, ...], sr: Semiring) -> DataFrame:
    lv, rv = ANNOT in left.columns, ANNOT in right.columns
    if rv and lv:
        right = right.withColumnRenamed(ANNOT, "__v_r")
    out = left.crossJoin(right) if not on else left.join(right, on=list(on), how="inner")
    if lv and rv:
        out = out.withColumn(ANNOT, F.expr(f"{ANNOT} {sr.times_op} __v_r")).drop("__v_r")
    return out


def _finalize(df: DataFrame, step: Finalize, sr: Semiring, count_like: bool) -> DataFrame:
    has_v = ANNOT in df.columns
    if step.mode == "distinct":
        return df.select(*step.output).distinct()
    if step.mode == "full" and sr.boolean:
        return df.select(*step.output)
    if step.mode == "full" or not step.dedup:
        # no ⊕ (full query, or a key makes every group a singleton): each
        # row keeps its ⊗-product
        val = F.col(ANNOT) if has_v else F.lit(sr.one)
        return df.select(*step.output, val.alias(step.alias))
    if has_v:
        agg = F.expr(f"{sr.plus_fn}({ANNOT})")
        if count_like and not step.output:
            # a COUNT(*) query over an empty join is 0, not NULL — the __v
            # column here is a materialised count, so the global ⊕ must
            # degrade the same way count(*) does
            agg = F.coalesce(agg, F.lit(0))
    else:
        agg = F.expr(sr.times_identity_aggregate())
    agg = agg.alias(step.alias)
    return df.groupBy(*step.output).agg(agg) if step.output else df.agg(agg)


def execute(plan: Plan, tables: dict[str, DataFrame]) -> DataFrame:
    """Run a plan: returns the (lazy) result DataFrame."""
    sr = plan.cq.semiring
    env: dict[str, DataFrame] = {}
    for s in plan.steps:
        if isinstance(s, Scan):
            env[s.out] = scan_df(tables, s.relation, with_annot=s.with_annot, sr=sr)
        elif isinstance(s, Project):
            env[s.out] = _project(env[s.src], s.attrs, s.dedup, sr)
        elif isinstance(s, Join):
            env[s.out] = _join(env[s.left], env[s.right], s.on, sr)
        elif isinstance(s, SemiJoin):
            env[s.out] = env[s.left].join(env[s.right], on=list(s.on), how="leftsemi")
        elif isinstance(s, Filter):
            env[s.out] = env[s.src].filter(s.condition)
        elif isinstance(s, Finalize):
            count_like = not plan.cq.annotated_relations() and not sr.boolean
            env[s.out] = _finalize(env[s.src], s, sr, count_like)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown step {s}")
    return env[plan.result]


def native_plan(cq: CQ) -> Plan:
    """The "native" baseline as a plan: one big join in query order, then
    the cycle equalities and the final ⊕-aggregation — exactly the single
    SQL statement `cq.to_sql()` denotes, with no semi-join or early
    aggregation, so Spark plans the join itself."""
    sr = cq.semiring
    steps: list[Step] = []

    def slot(base: str) -> str:
        return f"{base}@{len(steps)}"

    acc: str | None = None
    acc_attrs: frozenset[str] = frozenset()
    remaining = list(cq.relations)
    while remaining:
        # next relation sharing attrs with what we have (avoid cross joins)
        idx = next((k for k, r in enumerate(remaining) if r.attr_set & acc_attrs), 0)
        r = remaining.pop(idx)
        steps.append(Scan(slot(r.name), r, r.annot is not None and not sr.boolean))
        if acc is not None:
            on = tuple(sorted(acc_attrs & r.attr_set))
            steps.append(Join(slot("join"), acc, steps[-1].out, on))
        acc = steps[-1].out
        acc_attrs |= r.attr_set
    assert acc is not None
    for a, b in cq.eq_filters:
        steps.append(Filter(slot("sigma"), acc, f"{a} = {b}"))
        acc = steps[-1].out
    mode = "full" if cq.is_full else "distinct" if sr.boolean else "agg"
    steps.append(Finalize(slot("result"), acc, cq.output, mode, cq.alias))
    return Plan(cq, steps, steps[-1].out, meta={"algorithm": "native"})


def native_df(cq: CQ, tables: dict[str, DataFrame]) -> DataFrame:
    """Run the native baseline plan (:func:`native_plan`)."""
    return execute(native_plan(cq), tables)
