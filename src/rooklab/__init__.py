"""Rook complexes of polyominoes: purity via super partitions, chordality
of the complement graph via brush polyominoes, and combinatorial
regularity, with an exhaustive small-rank census harness."""

from . import census, chordal, errors, graphs, partition, polyomino, record, regularity, rook_complex
from .census import *
from .chordal import *
from .errors import *
from .graphs import *
from .partition import *
from .polyomino import *
from .record import *
from .regularity import *
from .rook_complex import *

__all__ = [
    name
    for module in (census, chordal, errors, graphs, partition, polyomino, record, regularity, rook_complex)
    for name in module.__all__
]

__version__ = "0.1.0"
