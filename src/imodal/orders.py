"""Small shared utilities for finite relations: closures, order checks,
up/down sets, and union-find for equivalence closures."""

from __future__ import annotations

from typing import Hashable, Iterable


def reflexive_transitive_closure(worlds: Iterable[Hashable], pairs) -> frozenset:
    worlds = list(worlds)
    rel = {(w, w) for w in worlds} | set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return frozenset(rel)


def is_reflexive(worlds, rel) -> bool:
    return all((w, w) in rel for w in worlds)


def is_transitive(rel) -> bool:
    by_first = {}
    for (a, b) in rel:
        by_first.setdefault(a, set()).add(b)
    for (a, b) in rel:
        for c in by_first.get(b, ()):
            if (a, c) not in rel:
                return False
    return True


def is_antisymmetric(rel) -> bool:
    return all(not ((a, b) in rel and (b, a) in rel and a != b) for (a, b) in rel)


def is_partial_order(worlds, rel) -> bool:
    return is_reflexive(worlds, rel) and is_transitive(rel) and is_antisymmetric(rel)


def is_preorder(worlds, rel) -> bool:
    return is_reflexive(worlds, rel) and is_transitive(rel)


def is_upward_closed(worlds, rel, subset) -> bool:
    return all(v in subset for w in subset for v in worlds if (w, v) in rel)


def successors(worlds, rel, w) -> frozenset:
    return frozenset(v for v in worlds if (w, v) in rel)


class UnionFind:
    def __init__(self, items: Iterable[Hashable]):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def same(self, a, b) -> bool:
        return self.find(a) == self.find(b)


def equivalence_classes(items, pairs) -> UnionFind:
    """Reflexive-symmetric-transitive closure of ``pairs`` over ``items``."""
    uf = UnionFind(items)
    for (a, b) in pairs:
        uf.union(a, b)
    return uf
