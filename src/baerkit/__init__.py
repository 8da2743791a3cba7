"""baerkit: exact computation of Baer invariants of finitely presented
nilpotent groups, with a builder and verifier for semidirect-product
presentations and their multiplier decompositions."""

from .baer import (
    baer_invariant,
    detect_class,
    verify_class_bound,
)
from .errors import (
    ActionError,
    BaerkitError,
    CapacityError,
    CertificateError,
    ClassUndeterminedError,
    ParseError,
)
from .intlinalg import AbelianInvariants, abelian_invariants, snf
from .lyndon import lyndon_words, witt_dimension
from .magnus import GroupElement, TruncatedSeries, series_of_word
from .presentations import (
    ActionSpec,
    Alphabet,
    Presentation,
    Word,
    parse_input_file,
    parse_word,
)
from .semidirect import (
    build_semidirect,
    merge_invariants,
    validate_action,
    verify_direct_factor,
)
from .subgroups import AmbientContext, FilteredSubgroup

__version__ = "0.1.0"
