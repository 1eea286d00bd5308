"""Disjoint-set forest with path compression and union by size."""

from __future__ import annotations


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
