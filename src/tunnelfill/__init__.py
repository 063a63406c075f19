"""Realizability of standard complexes over F2[U, V].

The package decides whether the local equivalence class of a standard
complex C(a_1, ..., a_2n) admits a bigraded chain complex representative
over F2[U, V] with the expected homology, constructs such a representative
when one exists, and verifies every output independently.

``__all__`` is the public API: what decide, realize, verify, census and
render take and return, and the typed errors. Everything else is imported
from its module, e.g. ``from tunnelfill.rings import R2, lift_to``.
"""

from .builder import realize
from .census import CensusRow, census_rows, write_census_csv
from .errors import (
    ConstructionError,
    DocumentError,
    InternalError,
    InvalidLiftError,
    RenderError,
    SearchBudgetError,
    SequenceParseError,
    TunnelFillError,
    UnknownGeneratorError,
)
from .filler import (
    ForcedArrowEvent,
    NotRealizable,
    Obstruction,
    PartialRealization,
    decide,
)
from .homology import HomologyReport, check_correct_homology, check_symmetry
from .oracle import OracleResult, oracle_decide
from .render import render_svg
from .rings import (
    Arrow,
    BasedComplex,
    Generator,
    Grading,
    Monomial,
    degree_violations,
    differential_square,
)
from .serial import parse, parse_sequence, serialize
from .standard import ExtendedSignSequence, SignSequence, build_standard

__version__ = "0.1.0"

__all__ = [
    "SignSequence",
    "ExtendedSignSequence",
    "parse_sequence",
    "BasedComplex",
    "Arrow",
    "Monomial",
    "Generator",
    "Grading",
    "build_standard",
    "decide",
    "PartialRealization",
    "NotRealizable",
    "ForcedArrowEvent",
    "Obstruction",
    "realize",
    "differential_square",
    "degree_violations",
    "check_correct_homology",
    "HomologyReport",
    "check_symmetry",
    "parse",
    "serialize",
    "render_svg",
    "census_rows",
    "write_census_csv",
    "CensusRow",
    "oracle_decide",
    "OracleResult",
    "TunnelFillError",
    "ConstructionError",
    "DocumentError",
    "InternalError",
    "InvalidLiftError",
    "RenderError",
    "SearchBudgetError",
    "SequenceParseError",
    "UnknownGeneratorError",
]
