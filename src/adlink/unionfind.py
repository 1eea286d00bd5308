"""Disjoint-set forest with path compression and union by size, plus two
views of a partition: the pairs inside its groups and each member's group id."""

from __future__ import annotations

import itertools


class UnionFind:
    def __init__(self):
        self.parent: dict = {}
        self.sizes: dict = {}  # root -> set size; one entry per set

    def add(self, x) -> None:
        if x not in self.parent:
            self.parent[x] = x
            self.sizes[x] = 1

    def find(self, x):
        self.add(x)
        # iterative path compression, no recursion limit worries
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y) -> bool:
        """Join the sets of ``x`` and ``y``; False when they were one already."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self.sizes[rx] < self.sizes[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.sizes[rx] += self.sizes.pop(ry)
        return True

    def size(self, x) -> int:
        return self.sizes[self.find(x)]

    def connected(self, x, y) -> bool:
        return self.find(x) == self.find(y)

    def __len__(self) -> int:
        """Number of sets."""
        return len(self.sizes)

    def groups(self) -> dict:
        """Map smallest member -> sorted members, one entry per component."""
        by_root: dict = {}
        for x in self.parent:
            by_root.setdefault(self.find(x), []).append(x)
        out = {}
        for members in by_root.values():
            members.sort()
            out[members[0]] = members
        return out


def pairs_within(groups) -> list[tuple]:
    """Every pair of members sharing a group, as ``(smaller, larger)``,
    deduplicated across groups and sorted."""
    pairs: set = set()
    for members in groups:
        pairs.update(itertools.combinations(sorted(members), 2))
    return sorted(pairs)


def labels(groups: dict) -> dict:
    """Invert ``group id -> members`` into ``member -> group id``."""
    return {x: gid for gid, members in groups.items() for x in members}
