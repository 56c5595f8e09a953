"""A small immutable undirected graph stored as int neighbour masks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["SimpleGraph"]


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

    Graphs come only from ``rook_complex.attack_graph`` and
    ``chordal.complement_graph``, which build the masks symmetric and
    loop-free; the constructor trusts them.

    An attack graph carries its shape's ``lines``: the horizontal and the
    vertical lines as vertex masks, each a clique, with every vertex in
    one line of each. The face sweep, the witness search and the
    induced-matching bound need them. They are None on a complement,
    which goes to the functions of ``chordal`` alone, and equality and
    hashing ignore them.
    """

    vertices: tuple
    masks: tuple[int, ...]
    lines: tuple[tuple[int, ...], tuple[int, ...]] | None = field(default=None, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def edges(self) -> frozenset[frozenset]:
        """All edges as vertex pairs; derived from the masks on each access."""
        vs = self.vertices
        return frozenset(
            frozenset((vs[i], vs[j])) for i, mask in enumerate(self.masks) for j in bits((mask >> (i + 1)) << (i + 1))
        )
