"""epsnet: nets of smooth functions, asymptotic scale estimation, orthogonal
and Lorentz factorizations, Diophantine approximation, and grid-evidence
verifiers for group-invariance properties.

The names below are loaded from their modules on first use (PEP 562), so
that ``import epsnet.cli`` and the Diophantine subcommands need neither
numpy nor the modules they do not call.
"""

import importlib

_EXPORTS = {
    "expr": (
        "EvalError",
        "Expr",
        "MultiIndex",
        "ParseError",
        "Point",
        "evaluate",
        "parse",
        "partial",
        "partial_multi",
        "to_text",
    ),
    "colombeau": (
        "AsymptoticReport",
        "CompactBox",
        "EpsilonGrid",
        "Net",
        "classify",
        "is_bounded_generalized_number",
        "is_c_bounded",
        "seminorm",
    ),
    "groups": (
        "GroupElement",
        "PlanarFactor",
        "Translation",
        "compose_net",
        "planar_flow",
    ),
    "decompose": (
        "DecompositionError",
        "LorentzFactorization",
        "RotationSchedule",
        "decompose_net_matrix",
        "full_lorentz_decompose",
        "givens_decompose",
        "lorentz_decompose",
        "orthogonal_decompose",
    ),
    "numbertheory": (
        "AlgebraicNumber",
        "CorollaryPair",
        "DirichletPair",
        "LiouvilleData",
        "catalog",
        "convergents",
        "corollary_pair",
        "dirichlet",
        "liouville_constant",
    ),
    "verify": (
        "CBoundednessError",
        "ChainBoundReport",
        "ConstancyReport",
        "InvarianceReport",
        "chain_bound",
        "check_invariance",
        "check_periodicity",
        "lorentz_invariance_pipeline",
        "one_param_theorem_harness",
        "open_question_explorer",
        "rotation_invariance_pipeline",
        "translation_constancy",
        "two_period_constancy",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
