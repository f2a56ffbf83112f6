"""Shared plan-emission machinery for the Yannakakis and Yannakakis+ planners.

Tracks, per live tree node: its current slot, attribute set, unique keys,
whether the annotation column is materialised, and whether the node is still
*complete* (contains every base tuple — the licence for RI-based semi-join /
join elimination, §5.1). All rule-based eliminations live here so both
planners share one audited implementation.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from .cq import CQ, Relation
from .plan import Filter, Finalize, Join, Plan, Project, Scan, SemiJoin, Step


@dataclass(frozen=True)
class Rules:
    """Rule-based optimizer switches (§5.1). ``pk_fk`` enables PK-FK
    aggregation/projection elimination and semi-join elimination; ``annot``
    enables annotation pruning (keep ``__v`` virtual until needed)."""

    pk_fk: bool = True
    annot: bool = True


NO_RULES = Rules(pk_fk=False, annot=False)


@dataclass
class Node:
    """State of one live join-tree node during planning."""

    base: str  # original relation name whose tree position this node holds
    slot: str
    attrs: frozenset[str]
    keys: tuple[frozenset[str], ...]
    has_annot: bool
    complete: bool  # still holds all base tuples of `base` (RI-preserving)


class Emitter:
    """Appends IR steps while maintaining per-node state."""

    def __init__(self, cq: CQ, rules: Rules):
        self.cq = cq
        self.rules = rules
        self.steps: list[Step] = []
        self.nodes: dict[str, Node] = {}
        self._n = 0
        self._eq_done: set[tuple[str, str]] = set()

    # ------------------------------------------------------------- slots
    def fresh(self, base: str) -> str:
        self._n += 1
        return f"{base}@{self._n}"

    # ------------------------------------------------------------- state
    def _scan_annot(self, rel: Relation) -> bool:
        if self.cq.semiring.boolean:
            return False
        if self.rules.annot:
            return rel.annot is not None
        return True  # primitive mode: always materialise __v (1 if absent)

    def peek(self, name: str) -> Node:
        """Node state without forcing a scan (virtual state for unscanned
        base relations — lets elimination decisions kill dead scans)."""
        if name in self.nodes:
            return self.nodes[name]
        rel = self.cq.rel(name)
        return Node(
            base=name,
            slot="",
            attrs=rel.attr_set,
            keys=rel.keys,
            has_annot=self._scan_annot(rel),
            complete=rel.predicate is None,
        )

    def get(self, name: str) -> Node:
        """Materialise (scan) a base relation's node on first use."""
        if name not in self.nodes:
            rel = self.cq.rel(name)
            slot = self.fresh(name)
            self.steps.append(Scan(slot, rel, self._scan_annot(rel)))
            self.nodes[name] = Node(
                base=name,
                slot=slot,
                attrs=rel.attr_set,
                keys=rel.keys,
                has_annot=self._scan_annot(rel),
                complete=rel.predicate is None,
            )
        return self.nodes[name]

    # --------------------------------------------------------- operators
    def project(self, node: Node, keep: frozenset[str]) -> Node:
        """π_keep with ⊕-aggregation; no-op when nothing is dropped.
        Applies PK aggregation elimination (`dedup=False`) when a key
        survives the projection."""
        if keep == node.attrs:
            return node
        assert keep <= node.attrs, (keep, node.attrs)
        dedup = not (
            self.rules.pk_fk and any(k <= keep for k in node.keys)
        )
        slot = self.fresh(node.base)
        attrs = self._ordered(keep)
        self.steps.append(Project(slot, node.slot, attrs, dedup=dedup))
        keys = tuple(k for k in node.keys if k <= keep)
        if dedup:
            keys = keys + (frozenset(keep),)
        has_annot = node.has_annot
        if dedup and not node.has_annot and not self.cq.semiring.boolean:
            # grouping virtual identity annotations: a count materialises
            # __v; any other ⊕ of identities is the identity (stay virtual)
            has_annot = self.cq.semiring.plus_counts_ones
        return Node(node.base, slot, frozenset(keep), keys, has_annot, node.complete)

    def join(self, left: Node, right: Node, *, base: str | None = None) -> Node:
        """Natural join; ⊗-combines annotations; propagates keys that a
        PK-side join preserves, and completeness when RI guarantees every
        left tuple survives with multiplicity one."""
        on = self._ordered(left.attrs & right.attrs)
        slot = self.fresh(base or left.base)
        self.steps.append(Join(slot, left.slot, right.slot, on))
        on_set = frozenset(on)
        keys: tuple[frozenset[str], ...] = ()
        if any(k <= on_set for k in right.keys):
            keys += left.keys
        if any(k <= on_set for k in left.keys):
            keys += tuple(k for k in right.keys if k not in keys)
        complete = (
            left.complete
            and self.cq.has_ri(left.base, right.base)
            and right.complete
            and any(k <= on_set for k in right.keys)
        )
        return Node(
            base or left.base,
            slot,
            left.attrs | right.attrs,
            keys,
            left.has_annot or right.has_annot,
            complete,
        )

    def absorb(self, parent: Node, child_name: str, keep: frozenset[str]) -> Node:
        """Algorithm 1 line 5: ``R_p ← R_p ⋈ π_{A_p}(R_i)``, with the full
        PK-FK elimination: if RI guarantees every parent tuple matches
        exactly one (unannotated, complete) child tuple, the join is a no-op
        and the child's scan is never emitted."""
        child = self.peek(child_name)
        if (
            self.rules.pk_fk
            and self.cq.has_ri(parent.base, child_name)
            and child.complete
            and not child.has_annot
            and any(k <= keep for k in child.keys)
        ):
            return parent  # RI + key ⇒ join is the identity on parent
        child = self.project(self.get(child_name), keep)
        return self.join(parent, child, base=parent.base)

    def semijoin(self, left: Node, right: Node) -> Node:
        """left ⋉ right, eliminated entirely when RI already guarantees every
        left tuple has a (complete) right match."""
        complete = (
            left.complete
            and self.cq.has_ri(left.base, right.base)
            and right.complete
        )
        if self.rules.pk_fk and self.cq.has_ri(left.base, right.base) and right.complete:
            return replace(left, complete=complete)
        on = self._ordered(left.attrs & right.attrs)
        slot = self.fresh(left.base)
        self.steps.append(SemiJoin(slot, left.slot, right.slot, on))
        return replace(left, slot=slot, complete=complete)

    def apply_eq_filters(self, node: Node) -> Node:
        """Re-impose broken cycle equalities (Example 5.2) as soon as both
        renamed attributes coexist in one node — the earliest point the σ
        can run, keeping intermediates as selective as the original cycle."""
        pending = [
            p for p in self.cq.eq_filters
            if p not in self._eq_done and set(p) <= node.attrs
        ]
        if not pending:
            return node
        cond = " AND ".join(f"{a} = {b}" for a, b in pending)
        slot = self.fresh(node.base)
        self.steps.append(Filter(slot, node.slot, cond))
        self._eq_done.update(pending)
        return replace(node, slot=slot, complete=False)

    def finalize(self, node: Node) -> str:
        """Apply any still-pending cycle equalities, then the final π_O."""
        cq = self.cq
        node = self.apply_eq_filters(node)
        slot = node.slot
        pending = [p for p in cq.eq_filters if p not in self._eq_done]
        if pending:  # pragma: no cover — defensive; pairs should be applied
            cond = " AND ".join(f"{a} = {b}" for a, b in pending)
            out = self.fresh("sigma")
            self.steps.append(Filter(out, slot, cond))
            slot = out
        out = self.fresh("result")
        if cq.semiring.boolean:
            mode = "full" if cq.is_full else "distinct"
            self.steps.append(Finalize(out, slot, cq.output, mode, cq.alias))
        elif cq.is_full:
            self.steps.append(Finalize(out, slot, cq.output, "full", cq.alias))
        else:
            dedup = not (
                self.rules.pk_fk
                and not cq.eq_filters
                and any(k <= cq.out_set for k in node.keys)
            )
            self.steps.append(
                Finalize(out, slot, cq.output, "agg", cq.alias, dedup=dedup)
            )
        return out

    # ----------------------------------------------------------- helpers
    def _ordered(self, attrs: frozenset[str]) -> tuple[str, ...]:
        """Deterministic attribute order (query-wide order of appearance)."""
        order = []
        for r in self.cq.relations:
            for a in r.attrs:
                if a in attrs and a not in order:
                    order.append(a)
        return tuple(order)
