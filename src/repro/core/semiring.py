"""Commutative semirings for annotated conjunctive queries (paper §2.1).

An annotated CQ propagates a per-tuple annotation ``v`` through the plan:
joins combine annotations with the semiring "multiplication" ``⊗`` and
aggregating projections combine them with the "addition" ``⊕``. Choosing
``(R, +, ·)`` with annotations drawn from data columns yields SUM-of-products
aggregates (e.g. TPC-H Q9's ``SUM(ps_supplycost * l_quantity)``); choosing
``(R, max, +)`` yields MAX-of-sums; the boolean semiring yields DISTINCT
projection.

This class is the one place the semiring semantics are defined: the planner
(`core._emit`), the Spark lowering (`core.executor`) and the canonical SQL
(`core.cq.to_sql`) all read ⊕, ⊗, the ⊗-identity :attr:`Semiring.one` and
whether ⊕ over identities is a count (:attr:`Semiring.plus_counts_ones`) from
here. The boolean semiring needs no annotation column at all — ``⊕`` is
DISTINCT and ``⊗`` is the plain join.
"""
from __future__ import annotations

from dataclasses import dataclass

#: ⊕ aggregate name -> (Spark/DuckDB SQL aggregate function)
_PLUS_FUNCS = {"sum": "sum", "max": "max", "min": "min"}
#: ⊗ combiner name -> (infix SQL operator, ⊗-identity)
_TIMES_OPS = {"mul": ("*", 1), "add": ("+", 0)}


@dataclass(frozen=True)
class Semiring:
    """A commutative semiring ``(S, ⊕, ⊗)`` with SQL realisations.

    ``plus`` is one of ``sum|max|min`` (the ⊕ SQL aggregate); ``times`` is
    one of ``mul|add`` (the ⊗ infix operator). ``boolean=True`` marks the
    set-semantics semiring ``({F,T}, ∨, ∧)`` executed as DISTINCT.
    """

    name: str
    plus: str = "sum"
    times: str = "mul"
    boolean: bool = False

    @property
    def plus_fn(self) -> str:
        """SQL aggregate function implementing ⊕."""
        return _PLUS_FUNCS[self.plus]

    @property
    def times_op(self) -> str:
        """SQL infix operator implementing ⊗."""
        return _TIMES_OPS[self.times][0]

    @property
    def one(self) -> int:
        """The ⊗-identity: the annotation of a tuple that carries none."""
        return _TIMES_OPS[self.times][1]

    @property
    def plus_counts_ones(self) -> bool:
        """Whether ⊕ over a group of ⊗-identities is the group's row count
        (``SUM`` of 1s). Otherwise it is the identity itself (``MAX(0)``,
        ``MIN(1)``, …), so an unannotated input can stay annotation-free."""
        return self.plus == "sum" and self.times == "mul"

    def times_identity_aggregate(self) -> str:
        """⊕-aggregate of all-identity annotations, as SQL over a group:
        ``count(*)`` when :attr:`plus_counts_ones`, else ``⊕(one)``. Used by
        annotation pruning (§5.1) when no relation in scope carries a real
        annotation.
        """
        return "count(*)" if self.plus_counts_ones else f"{self.plus_fn}({self.one})"


#: SUM of products — e.g. SUM(a*b), COUNT(*) when no annotations.
SUM_PROD = Semiring("sum_prod", plus="sum", times="mul")
#: MIN of products — JOB-style MIN aggregates.
MIN_PROD = Semiring("min_prod", plus="min", times="mul")
#: MAX of products.
MAX_PROD = Semiring("max_prod", plus="max", times="mul")
#: MAX of sums — e.g. MAX(ps_availqty - l_quantity).
MAX_PLUS = Semiring("max_plus", plus="max", times="add")
#: Boolean semiring — DISTINCT projection / full enumeration.
BOOL = Semiring("bool", boolean=True)
