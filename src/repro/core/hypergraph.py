"""Hypergraph machinery: GYO reduction and join-tree enumeration (§2.2, §5.2).

Acyclicity is decided by GYO reduction. Join trees are enumerated as spanning
trees of the attribute-intersection graph (weight-descending, so the
maximum-weight trees — which by Maier's theorem are exactly the join trees of
an acyclic query — are found first), filtered by the running-intersection
property, and capped.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Mapping

from .cq import CQ, hyperedges


# ------------------------------------------------------------------ GYO
def gyo_reduce(edges: Mapping[str, frozenset[str]]) -> dict[str, frozenset[str]]:
    """Run GYO reduction to a fixpoint and return the surviving hyperedges.

    Rules: (1) drop attributes that occur in exactly one edge ("ear"
    attributes); (2) drop an edge contained in another edge. An acyclic
    hypergraph reduces to nothing (or a lone empty edge)."""
    es = {k: set(v) for k, v in edges.items()}
    changed = True
    while changed:
        changed = False
        counts: dict[str, int] = {}
        for v in es.values():
            for a in v:
                counts[a] = counts.get(a, 0) + 1
        for k, v in es.items():
            unique = {a for a in v if counts[a] == 1}
            if unique:
                v -= unique
                changed = True
        for k1, k2 in itertools.permutations(list(es), 2):
            if k1 in es and k2 in es and es[k1] <= es[k2]:
                del es[k1]
                changed = True
                break
    return {k: frozenset(v) for k, v in es.items()}


def is_acyclic(cq: CQ) -> bool:
    """α-acyclicity of the query hypergraph via GYO."""
    rest = gyo_reduce(hyperedges(cq))
    return len(rest) <= 1


# ---------------------------------------------------- spanning/join trees
Edge = tuple[str, str]


def _connected(nodes: list[str], edges: Iterable[Edge]) -> bool:
    adj: dict[str, set[str]] = {n: set() for n in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        for m in adj[stack.pop()]:
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return len(seen) == len(nodes)


def _spanning_trees(
    nodes: list[str], edges: list[Edge], cap: int
) -> list[frozenset[Edge]]:
    """Enumerate up to ``cap`` spanning trees, preferring the edge order given
    (callers pass weight-descending order so heavy trees come first)."""
    results: list[frozenset[Edge]] = []

    def rec(chosen: list[Edge], rest: list[Edge], comp: dict[str, str]):
        if len(results) >= cap:
            return

        def find(x: str) -> str:
            while comp[x] != x:
                comp[x] = comp[comp[x]]
                x = comp[x]
            return x

        if len(chosen) == len(nodes) - 1:
            results.append(frozenset(chosen))
            return
        if not rest:
            return
        e, tail = rest[0], rest[1:]
        ra, rb = find(e[0]), find(e[1])
        if ra != rb:
            comp2 = dict(comp)
            comp2[ra] = rb
            rec(chosen + [e], tail, comp2)
        # exclude e only if a spanning tree is still reachable without it
        if len(results) < cap and _connected(nodes, chosen + tail):
            rec(chosen, tail, comp)

    rec([], edges, {n: n for n in nodes})
    return results


def is_join_tree(cq: CQ, edges: Iterable[Edge]) -> bool:
    """Running-intersection check: for each attribute, the relations that
    contain it must induce a connected subtree."""
    edges = list(edges)
    for a in cq.attrs:
        holders = [r.name for r in cq.relations if a in r.attr_set]
        if len(holders) <= 1:
            continue
        sub = [e for e in edges if e[0] in holders and e[1] in holders]
        if not _connected(holders, sub):
            return False
    return True


def enumerate_tree_edges(cq: CQ, cap: int = 64) -> list[frozenset[Edge]]:
    """All (capped) undirected join trees of an acyclic CQ, as edge sets.

    Disconnected queries (cartesian products) get their component trees
    linked by zero-weight edges between component representatives."""
    names = [r.name for r in cq.relations]
    if len(names) == 1:
        return [frozenset()]
    cand = [
        (len(cq.shared(a, b)), (a, b))
        for a, b in itertools.combinations(names, 2)
        if cq.shared(a, b)
    ]
    cand.sort(key=lambda t: (-t[0], t[1]))
    edges = [e for _, e in cand]
    # bridge disconnected components through their smallest relation names
    from .cq import components

    comps = components(cq)
    if len(comps) > 1:
        reps = sorted(min(c) for c in comps)
        edges += [(reps[i], reps[i + 1]) for i in range(len(reps) - 1)]
    trees = _spanning_trees(names, edges, cap * 4)
    good = [t for t in trees if is_join_tree(cq, t)]
    return good[:cap]
