"""Demazure products and adjoints for eventually periodic integer permutations.

Public names resolve on first access (PEP 562), each from the one module
that defines it, so importing the package loads no submodule and a caller
pays only for the modules whose names it reads.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

_EXPORTS = {
    "errors": (
        "AsymptoteMismatch",
        "ClosureVerification",
        "DemazError",
        "InconsistentSlipface",
        "InfiniteInversions",
        "InternalInconsistency",
        "InvalidGeneratorSet",
        "InvalidPermutation",
        "NotASlipface",
        "NotDominated",
        "NotSubmodular",
        "OracleExtremum",
        "ParseError",
        "ResourceLimit",
    ),
    "grammar": ("format_perm", "parse_perm"),
    "perm": (
        "Permutation",
        "ResidueClass",
        "Violation",
        "apply",
        "canonicalize",
        "compose",
        "delta_s",
        "diff_bound",
        "eval_s",
        "from_window",
        "get_max_window",
        "has_inversion",
        "identity",
        "inv_count",
        "inverse",
        "inversions_in",
        "is_finitary",
        "make_affine",
        "make_from_one_line",
        "make_gamma",
        "make_shift",
        "make_sigma_set",
        "set_max_window",
        "shift_of",
        "validate",
    ),
    "slipface": (
        "Slipface",
        "ess_set",
        "read_slipface",
        "sf_dual",
        "sf_equal",
        "sf_eval",
        "sf_eval_grid",
        "sf_from_perm",
        "sf_from_rank_grid",
        "sf_is_submodular",
        "sf_leq_ess",
        "sf_leq_grid",
        "sf_star",
        "sf_tll",
        "sf_tlr",
        "sf_to_perm",
        "sf_validate",
        "write_slipface",
    ),
    "order": (
        "EssPoint",
        "EssSet",
        "bruhat_leq",
        "bruhat_leq_witness",
        "essential_cells",
        "leq_chi",
        "perm_ess_set",
        "weak_left_leq",
        "weak_left_leq_witness",
        "weak_right_leq",
        "weak_right_leq_witness",
    ),
    "demazure": (
        "ReducedTuple",
        "ReductionWitness",
        "greedy_witness",
        "is_reduced_pair",
        "is_reduced_pair_witness",
        "is_reduced_tuple",
        "reduce",
        "reduce_tuple",
        "star",
        "stingy_witness",
        "tll",
        "tlr",
    ),
    "oracle": ("star_sigma", "tll_sigma"),
    "render": ("RenderSpec", "render"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules themselves are public too; render is the function's name
_SUBMODULES = ("demazure", "errors", "finitary", "grammar", "order", "perm", "slipface")

__all__ = sorted([*_HOME, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(_ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # importing the submodule demaz.render binds it on the package under
        # the name of the public function render, which keeps that name
        if name == "render" and isinstance(value, _ModuleType):
            return
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
