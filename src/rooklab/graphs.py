"""A small immutable undirected graph stored as int neighbour masks."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator

Vertex = Hashable


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class SimpleGraph:
    """Loop-free undirected graph on sorted, distinct vertices.

    ``masks[i]`` has bit j set exactly when ``vertices[i]`` and
    ``vertices[j]`` are adjacent. Bit order is vertex order, so scanning a
    mask from its lowest bit visits neighbours in sorted order.
    """

    vertices: tuple
    masks: tuple[int, ...]

    def __post_init__(self):
        vs = self.vertices
        if any(vs[i] >= vs[i + 1] for i in range(len(vs) - 1)):
            raise ValueError("vertices must be sorted and distinct")
        if len(self.masks) != len(vs):
            raise ValueError("one neighbour mask per vertex is needed")
        for i, mask in enumerate(self.masks):
            if mask < 0 or mask >> len(vs) or mask >> i & 1:
                raise ValueError(f"bad neighbour mask for {vs[i]!r}")
            if any(not self.masks[j] >> i & 1 for j in bits(mask)):
                raise ValueError(f"neighbour mask of {vs[i]!r} is not symmetric")

    @classmethod
    def from_pairs(cls, vertices: Iterable[Vertex], pairs: Iterable[tuple]) -> "SimpleGraph":
        vs = tuple(sorted(set(vertices)))
        index = {v: i for i, v in enumerate(vs)}
        masks = [0] * len(vs)
        for u, v in pairs:
            if u == v:
                continue
            if u not in index or v not in index:
                raise ValueError(f"bad edge {(u, v)!r}")
            masks[index[u]] |= 1 << index[v]
            masks[index[v]] |= 1 << index[u]
        return cls(vs, tuple(masks))

    def index(self, v: Vertex) -> int:
        """Position of ``v`` in the sorted vertex tuple."""
        i = bisect_left(self.vertices, v)
        if i == len(self.vertices) or self.vertices[i] != v:
            raise KeyError(v)
        return i

    def adjacent(self, u: Vertex, v: Vertex) -> bool:
        return bool(self.masks[self.index(u)] >> self.index(v) & 1)

    def degree(self, v: Vertex) -> int:
        return self.masks[self.index(v)].bit_count()

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def edges(self) -> frozenset[frozenset]:
        """All edges as vertex pairs; derived from the masks on each access."""
        return frozenset(frozenset(e) for e in self.edge_pairs())

    def edge_pairs(self) -> list[tuple]:
        """All edges as sorted pairs, in sorted order."""
        vs = self.vertices
        return [(vs[i], vs[j]) for i, mask in enumerate(self.masks) for j in bits((mask >> (i + 1)) << (i + 1))]
