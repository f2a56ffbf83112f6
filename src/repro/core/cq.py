"""Annotated conjunctive queries (paper §2.1).

A :class:`CQ` is ``π_O(R_1 ⋈ … ⋈ R_n)`` over a commutative semiring: each
relation occurrence maps query attributes (join variables) to source columns,
optionally carries a per-tuple annotation expression and a pushed-down
selection predicate, and the query ⊕-aggregates the ⊗-product of annotations
grouped by the output attributes ``O``.

The module also generates the canonical SQL form of a CQ (`to_sql`) used both
for the "native" engine baseline and the DuckDB correctness oracle, so every
rewritten plan is checked against the same ground truth.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from .semiring import BOOL, SUM_PROD, Semiring


@dataclass(frozen=True)
class Relation:
    """One relation occurrence in a CQ (self-joins are separate occurrences).

    ``attrs[i]`` is the query variable bound to source column ``cols[i]``.
    ``annot`` is a SQL expression over *source* columns (``None`` = the
    ⊗-identity ``Semiring.one``). ``predicate`` is a SQL boolean over source
    columns, applied at scan time. ``keys`` lists unique keys as sets of
    query variables — fuel for the PK-FK rewrite rules (§5.1).
    """

    name: str
    source: str
    attrs: tuple[str, ...]
    cols: tuple[str, ...]
    annot: str | None = None
    predicate: str | None = None
    keys: tuple[frozenset[str], ...] = ()

    def __post_init__(self):
        if len(self.attrs) != len(self.cols):
            raise ValueError(f"{self.name}: attrs/cols length mismatch")
        if len(set(self.attrs)) != len(self.attrs):
            raise ValueError(f"{self.name}: duplicate attrs")

    @property
    def attr_set(self) -> frozenset[str]:
        return frozenset(self.attrs)


def R(
    name: str,
    source: str,
    attrs: Mapping[str, str] | Iterable[str],
    *,
    annot: str | None = None,
    predicate: str | None = None,
    keys: Iterable[Iterable[str]] = (),
) -> Relation:
    """Convenience constructor: ``attrs`` is either ``{attr: source_col}`` or
    an iterable of names used for both sides."""
    if isinstance(attrs, Mapping):
        a, c = tuple(attrs.keys()), tuple(attrs.values())
    else:
        a = tuple(attrs)
        c = a
    return Relation(
        name, source, a, c, annot=annot, predicate=predicate,
        keys=tuple(frozenset(k) for k in keys),
    )


@dataclass(frozen=True)
class CQ:
    """An annotated conjunctive query.

    ``output`` is the ordered tuple of output attributes ``O`` (empty =
    aggregate everything into one row). ``ri`` declares referential
    integrity: ``(a, b)`` means every tuple of relation ``a`` joins at least
    one tuple of (the unfiltered, unreduced) relation ``b`` on their shared
    attributes — fuel for semi-join elimination. ``eq_filters`` holds
    attribute equalities applied *after* the join but *before* the final
    ⊕-aggregation — produced by the cycle-elimination rewrite (§5.1, Ex 5.2).
    """

    relations: tuple[Relation, ...]
    output: tuple[str, ...]
    semiring: Semiring = SUM_PROD
    alias: str = "agg"
    ri: frozenset[tuple[str, str]] = frozenset()
    eq_filters: tuple[tuple[str, str], ...] = ()
    name: str = ""

    def __post_init__(self):
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise ValueError("duplicate relation names")
        missing = set(self.output) - self.attrs
        if missing:
            raise ValueError(f"output attrs not in query: {missing}")

    # ---------------------------------------------------------- structure
    @property
    def attrs(self) -> frozenset[str]:
        """All query attributes 𝒜."""
        return frozenset(a for r in self.relations for a in r.attrs)

    @property
    def out_set(self) -> frozenset[str]:
        return frozenset(self.output)

    @property
    def plan_output(self) -> frozenset[str]:
        """Attributes the physical plan must preserve: declared outputs plus
        any attribute referenced by a post-join equality filter."""
        extra = {a for pair in self.eq_filters for a in pair}
        return self.out_set | extra

    @property
    def is_full(self) -> bool:
        """Full query: no ⊕-aggregation (output covers every attribute)."""
        return self.out_set == self.attrs

    def rel(self, name: str) -> Relation:
        for r in self.relations:
            if r.name == name:
                return r
        raise KeyError(name)

    def shared(self, a: str, b: str) -> frozenset[str]:
        """Join attributes between two relation occurrences."""
        return self.rel(a).attr_set & self.rel(b).attr_set

    def has_ri(self, dependent: str, referenced: str) -> bool:
        return (dependent, referenced) in self.ri

    # -------------------------------------------------------- derivations
    def rename_attr(self, rel_name: str, old: str, new: str) -> "CQ":
        """Rename one attribute occurrence inside one relation (the
        cycle-elimination primitive). Adds no filter by itself."""
        rels = []
        for r in self.relations:
            if r.name == rel_name and old in r.attrs:
                attrs = tuple(new if a == old else a for a in r.attrs)
                keys = tuple(
                    frozenset(new if a == old else a for a in k) for k in r.keys
                )
                r = replace(r, attrs=attrs, keys=keys)
            rels.append(r)
        return replace(self, relations=tuple(rels))

    def annotated_relations(self) -> tuple[Relation, ...]:
        return tuple(r for r in self.relations if r.annot is not None)

    # ---------------------------------------------------------------- SQL
    def scan_sql(self, r: Relation, *, with_annot: bool = True) -> str:
        """Sub-select renaming source columns to query attributes, applying
        the pushed-down predicate, and exposing the annotation as ``__v``."""
        cols = [f"{c} AS {a}" if c != a else a for a, c in zip(r.attrs, r.cols)]
        if with_annot and r.annot is not None and not self.semiring.boolean:
            cols.append(f"({r.annot}) AS __v")
        where = f" WHERE {r.predicate}" if r.predicate else ""
        return f"(SELECT {', '.join(cols)} FROM {r.source}{where})"

    def _join_conditions(self) -> list[str]:
        conds = []
        for a in sorted(self.attrs):
            holders = [r.name for r in self.relations if a in r.attr_set]
            first = holders[0]
            conds += [f"{first}.{a} = {h}.{a}" for h in holders[1:]]
        return conds

    def product_expr(self) -> str | None:
        """The ⊗-product of annotation columns, or None if nothing is
        annotated."""
        annotated = self.annotated_relations()
        if not annotated:
            return None
        op = f" {self.semiring.times_op} "
        return op.join(f"{r.name}.__v" for r in annotated)

    def agg_expr(self) -> str:
        """⊕(⊗-product of annotations) as SQL, e.g. ``sum(R1.__v * R3.__v)``;
        degenerates to ``count(*)`` / ``min(1)`` / ``max(0)`` when nothing is
        annotated."""
        prod = self.product_expr()
        if prod is None:
            return self.semiring.times_identity_aggregate()
        return f"{self.semiring.plus_fn}({prod})"

    def to_sql(self) -> str:
        """Canonical single-statement SQL over the source tables. Runs on
        both DuckDB (oracle) and any engine with standard SQL."""
        frm = ", ".join(f"{self.scan_sql(r)} {r.name}" for r in self.relations)
        conds = self._join_conditions()
        for a, b in self.eq_filters:
            ra = next(r.name for r in self.relations if a in r.attr_set)
            rb = next(r.name for r in self.relations if b in r.attr_set)
            conds.append(f"{ra}.{a} = {rb}.{b}")
        where = f" WHERE {' AND '.join(conds)}" if conds else ""

        def qual(a: str) -> str:
            h = next(r.name for r in self.relations if a in r.attr_set)
            return f"{h}.{a}"

        if self.semiring.boolean:
            distinct = "" if self.is_full else "DISTINCT "
            sel = ", ".join(f"{qual(a)} AS {a}" for a in self.output)
            return f"SELECT {distinct}{sel} FROM {frm}{where}"
        sel_cols = [f"{qual(a)} AS {a}" for a in self.output]
        if self.is_full:
            # full query: no ⊕ — each join row carries its ⊗-product
            prod = self.product_expr()
            sel_cols.append(f"({prod or self.semiring.one}) AS {self.alias}")
        else:
            sel_cols.append(f"{self.agg_expr()} AS {self.alias}")
        group = (
            f" GROUP BY {', '.join(qual(a) for a in self.output)}"
            if self.output and not self.is_full
            else ""
        )
        return f"SELECT {', '.join(sel_cols)} FROM {frm}{where}{group}"


def hyperedges(cq: CQ) -> dict[str, frozenset[str]]:
    """The query hypergraph: relation name → attribute set."""
    return {r.name: r.attr_set for r in cq.relations}


def components(cq: CQ) -> list[set[str]]:
    """Connected components of relations under shared-attribute adjacency."""
    names = [r.name for r in cq.relations]
    comp = {n: n for n in names}

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for a, b in itertools.combinations(names, 2):
        if cq.shared(a, b):
            comp[find(a)] = find(b)
    groups: dict[str, set[str]] = {}
    for n in names:
        groups.setdefault(find(n), set()).add(n)
    return list(groups.values())
