"""GGS groups over the p-adic tree via finite portraits.

Enumerate the quotients by level stabilizers, compute Sigma sets of
generating pairs, decide Beauville structures, and verify the documented
claims with replayable certificates.

The public names below are loaded on first access (PEP 562), so importing
the package, or one of its modules, compiles only the modules used.
"""

from importlib import import_module

# Public name -> module of the package that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "certificate": "CODE_VERSION SCHEMA Certificate Check __version__",
        "portrait": "Portrait PsiDecomposition TreeShape assemble commutator make_a make_b "
        "tree_shape",
        "generators": "CirculantAnalysis Classification DefiningVector analyze_circulant "
        "classify parse_vector BudgetExceeded DEFAULT_BUDGET predicted_order",
        "quotient": "QuotientGroup Subset enumerate_quotient",
        "beauville": "GeneratingTriple NotGeneratingError SEARCH_ELEMENT_CAP cyclic_subgroup "
        "is_beauville_pair search_beauville sigma_set subgroup_conjugation_orbit "
        "triple_signature",
        "verifiers": "CLAIMS replay_certificate verify_claim",
        "words": "WordSyntaxError evaluate_word parse_word",
    }.items()
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_EXPORTS[name]}", __name__)
    value = module.CODE_VERSION if name == "__version__" else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
