"""GGS groups over the p-adic tree via finite portraits.

Enumerate the quotients by level stabilizers, compute Sigma sets of
generating pairs, decide Beauville structures, and verify the documented
claims with replayable certificates.
"""

from .certificate import CODE_VERSION, SCHEMA, Certificate, Check
from .portrait import (
    Portrait,
    PsiDecomposition,
    TreeShape,
    apply,
    assemble,
    commutator,
    compose,
    conjugate,
    identity,
    inverse,
    order,
    parse_vertex,
    psi,
    stabilizes_level,
    tree_shape,
)
from .generators import (
    CirculantAnalysis,
    Classification,
    DefiningVector,
    analyze_circulant,
    classify,
    conjugate_generator,
    make_a,
    make_b,
    parse_vector,
)
from .quotient import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    QuotientGroup,
    SubgroupHandle,
    enumerate_quotient,
    predicted_order,
)
from .beauville import (
    GeneratingTriple,
    NotGeneratingError,
    SEARCH_ELEMENT_CAP,
    SigmaSet,
    SpecialElements,
    build_special_elements,
    cyclic_subgroup,
    is_beauville_pair,
    search_beauville,
    sigma_set,
    subgroup_conjugation_orbit,
    triple_signature,
)
from .verifiers import CLAIMS, replay_certificate, verify_claim
from .words import WordSyntaxError, evaluate_word, parse_word

__version__ = CODE_VERSION

__all__ = [
    "CODE_VERSION",
    "SCHEMA",
    "SEARCH_ELEMENT_CAP",
    "Certificate",
    "Check",
    "Portrait",
    "PsiDecomposition",
    "TreeShape",
    "apply",
    "assemble",
    "commutator",
    "compose",
    "conjugate",
    "identity",
    "inverse",
    "order",
    "parse_vertex",
    "psi",
    "stabilizes_level",
    "tree_shape",
    "CirculantAnalysis",
    "Classification",
    "DefiningVector",
    "analyze_circulant",
    "classify",
    "conjugate_generator",
    "make_a",
    "make_b",
    "parse_vector",
    "BudgetExceeded",
    "DEFAULT_BUDGET",
    "QuotientGroup",
    "SubgroupHandle",
    "enumerate_quotient",
    "predicted_order",
    "GeneratingTriple",
    "NotGeneratingError",
    "SigmaSet",
    "SpecialElements",
    "build_special_elements",
    "cyclic_subgroup",
    "is_beauville_pair",
    "search_beauville",
    "sigma_set",
    "subgroup_conjugation_orbit",
    "triple_signature",
    "CLAIMS",
    "replay_certificate",
    "verify_claim",
    "WordSyntaxError",
    "evaluate_word",
    "parse_word",
    "__version__",
]
