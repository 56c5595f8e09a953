"""Rook complexes of polyominoes: purity via super partitions, chordality
of the complement graph via brush polyominoes, and combinatorial
regularity, with an exhaustive small-rank census harness."""

from .census import (
    CensusReport,
    CheckResult,
    CHECKS,
    Violation,
    free_census,
    generate,
    pure_brush_realizations,
    verify_corpus,
)
from .chordal import (
    BrushDecomposition,
    ChordalityClassification,
    ChordalityResult,
    brush_decomposition,
    classify_chordality,
    complement_graph,
    induced_cycle_lengths,
    is_chordal,
)
from .errors import (
    BadCellError,
    BadCharacterError,
    CellNotInPolyominoError,
    DuplicateCellError,
    EmptyInputError,
    IndexOutOfRangeError,
    IntervalNotInPolyominoError,
    NotApplicableError,
    NotConnectedError,
    NotPureBrushError,
    NotPureError,
    NotSimpleThinError,
    RankOutOfRangeError,
    RankTooSmallError,
    RookLabError,
    UnknownCheckError,
)
from .graphs import SimpleGraph
from .partition import (
    Embedding,
    PartitionSet,
    PurityTheoremReport,
    check_purity_theorem,
    embeddings,
    find_embedding,
    is_embedding,
    partitions,
    super_partitions,
)
from .polyomino import (
    Cell,
    CellInterval,
    Polyomino,
    ShapePredicates,
    canonical_cells,
    canonical_form,
    maximal_intervals,
    parse_ascii,
    parse_cells,
    render_ascii,
    shape_predicates,
)
from .record import ShapeRecord
from .regularity import (
    BrushVectors,
    MatchingCertificate,
    RegularityMatchReport,
    SigmaTriple,
    brush_fh,
    check_reg_eq_nu,
    check_sigma_identities,
    elementary_symmetric,
    induced_matching_number,
    regularity_pure_thin,
    sigma_triples,
    single_cell_intervals,
)
from .rook_complex import (
    PurityResult,
    RookComplex,
    attack_graph,
    f_from_h,
    f_vector,
    facets,
    h_from_f,
    is_face,
    is_pure,
    is_vertex_decomposable,
)

__version__ = "0.1.0"
