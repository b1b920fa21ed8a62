"""Move structures for runny permutations.

Length capping and alpha-balancing of interval tables, RLBWT-derived builders
for LF/FL/phi/phi-inverse, streaming BWT inversion and SA/DA enumeration, and
bit-packed serialization.
"""

from .bitpack import ColumnSpec, PackedMatrix, min_width
from .core import (
    ABSOLUTE,
    EXPONENTIAL,
    LINEAR,
    RELATIVE,
    RUN_COLUMNS,
    IntervalTable,
    MoveResult,
    QueryConfig,
    from_permutation,
    inverse,
    table_to_permutation,
)
from .errors import (
    BoundsError,
    FormatError,
    InvalidInputError,
    InvalidParameterError,
    InvalidSpecError,
    MissingColumnError,
    MoveStructError,
    ValueOverflowError,
)
from .files import inspect_move, load_move, pack_table, save_move
from .rlbwt import (
    DocBounds,
    Rlbwt,
    attach_docs,
    build_bwt,
    build_lf,
    build_phi_via_lf,
    load_rlbwt,
    save_rlbwt,
)
from .splitting import balance, bounds, cap_length, length_cap
from .traversal import (
    TraversalStats,
    cycle_profile,
    enumerate_da,
    enumerate_sa,
    invert_bwt,
    traverse_counted,
)

__version__ = "0.1.0"
