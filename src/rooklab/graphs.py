"""A small immutable undirected graph stored as int neighbour masks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator

__all__ = ["SimpleGraph"]

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

    The constructor trusts its masks, which the package builds symmetric
    and loop-free from a shape's lines or by complementing. Outside graphs
    come in through ``from_pairs``, which builds and checks them itself.

    An attack graph, built by ``rook_complex.attack_graph``, carries its
    shape's ``lines``: the horizontal and the vertical lines as vertex
    masks, each a clique, with every vertex in one line of each. The
    face sweep, the witness search and the induced-matching bound need
    them. They are None on graphs from ``from_pairs`` or a complement,
    which go to the functions of ``chordal`` alone, and equality and
    hashing ignore them.
    """

    vertices: tuple
    masks: tuple[int, ...]
    lines: tuple[tuple[int, ...], tuple[int, ...]] | None = field(default=None, compare=False, repr=False)

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
