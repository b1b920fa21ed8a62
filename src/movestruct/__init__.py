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
    MoveCursor,
    MoveResult,
    QueryConfig,
    from_permutation,
    from_runs,
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
    UnsupportedModeError,
    ValueOverflowError,
)
from .files import inspect_move, load_move, pack_table, save_move
from .rlbwt import (
    DocBounds,
    Rlbwt,
    SaSamples,
    attach_docs,
    build_bwt,
    build_lf,
    build_phi_via_lf,
    collect_sa_samples,
    load_rlbwt,
    rlbwt_from_text,
    rlbwt_to_text,
    save_rlbwt,
)
from .splitting import SplitConfig, apply_splits, balance, cap_length, length_cap
from .traversal import (
    TraversalStats,
    enumerate_da,
    enumerate_sa,
    invert_bwt,
    recover_text,
    traverse_counted,
)

__version__ = "0.1.0"
