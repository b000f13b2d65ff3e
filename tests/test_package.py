"""The package surface: its public names, their lazy resolution, and the
immutable value types."""

import os
import pickle
import subprocess
import sys

import pytest

import demaz
from demaz import (
    RenderSpec,
    ReductionWitness,
    from_window,
    identity,
    make_affine,
    reduce,
    star,
)

PUBLIC = [
    "AsymptoteMismatch", "ClosureVerification", "DemazError", "EssPoint", "EssSet",
    "InconsistentSlipface", "InfiniteInversions", "InternalInconsistency",
    "InvalidGeneratorSet", "InvalidPermutation", "NotASlipface", "NotDominated",
    "NotSubmodular", "OracleExtremum", "ParseError", "Permutation", "ReducedTuple",
    "ReductionWitness", "RenderSpec", "ResidueClass", "ResourceLimit", "Slipface",
    "Violation", "apply", "bruhat_leq", "bruhat_leq_witness", "canonicalize",
    "compose", "delta_s", "demazure", "diff_bound", "errors", "ess_set",
    "essential_cells", "eval_s", "finitary", "format_perm",
    "from_window", "get_max_window", "grammar", "greedy_witness", "has_inversion",
    "identity", "inv_count", "inverse", "inversions_in", "is_finitary",
    "is_reduced_pair", "is_reduced_pair_witness", "is_reduced_tuple", "leq_chi",
    "make_affine", "make_from_one_line", "make_gamma", "make_shift",
    "make_sigma_set", "order", "parse_perm", "perm", "perm_ess_set",
    "read_slipface", "reduce", "reduce_tuple", "render", "set_max_window",
    "sf_dual", "sf_equal", "sf_eval", "sf_eval_grid", "sf_from_perm",
    "sf_from_rank_grid", "sf_is_submodular", "sf_leq_ess", "sf_leq_grid",
    "sf_star", "sf_tll", "sf_tlr", "sf_to_perm", "sf_validate", "shift_of",
    "slipface", "star", "star_sigma", "stingy_witness", "tll", "tll_sigma", "tlr",
    "validate", "weak_left_leq", "weak_left_leq_witness", "weak_right_leq",
    "weak_right_leq_witness", "write_slipface",
]


def test_public_names_resolve():
    assert demaz.__all__ == PUBLIC and len(PUBLIC) == 93
    for name in PUBLIC:
        assert getattr(demaz, name) is not None, name
    assert set(PUBLIC) <= set(dir(demaz))
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        demaz.nothing
    assert callable(demaz.sf_from_perm.cache_info)


@pytest.mark.parametrize(
    "first",
    [
        "import demaz.render",
        "from demaz.cli import main\n"
        "main(['render', 'gamma(1,1)', '--arange=0:1', '--brange=0:1'])",
    ],
)
def test_render_stays_the_function(first):
    # in a fresh interpreter, whichever loads the module demaz.render first
    src = os.path.dirname(os.path.dirname(demaz.__file__))
    code = f"{first}\nimport demaz, demaz.render\nprint(demaz.render.__name__, type(demaz.render).__name__)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.stdout.splitlines()[-1] == "render function", proc.stderr[-500:]


def test_permutation_is_an_immutable_value():
    p = make_affine([2, -3, 4], 3)
    q = from_window(6, -3, [-1, -6, 1, 2, -3, 4])  # the same map, period 6
    assert p == q and hash(p) == hash(q) and p is not q
    assert p != identity() and p != (p.period, p.lo, p.vals)
    assert repr(p) == "ep(k=3, lo=0; 2 -3 4)"
    assert pickle.loads(pickle.dumps(p)) == p
    for name in ("period", "vals", "chi", "diff_bound", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, 0)
    with pytest.raises(AttributeError):
        del p.lo
    assert (p.period, p.lo, p.vals, p.chi, p.diff_bound) == (3, 0, (2, -3, 4), 0, 4)


def test_records_are_immutable():
    spec = RenderSpec(0, 1, 2, 3, mode="profiles")
    assert (spec.a_lo, spec.b_hi, spec.fmt, spec.mode) == (0, 3, "ascii", "profiles")
    p = make_affine([2, -3, 4], 3)
    w = reduce(p, p, star(p, p))
    assert isinstance(w, ReductionWitness) and w.gamma == star(p, p)
    for record, name in ((spec, "fmt"), (w, "alpha1")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_the_size_caps_have_one_home():
    # every size cap is raised by perm._check_window or perm._check_cells;
    # rank_table's int64 guard, a limit of the grid's dtype, is the one other
    # ResourceLimit; no other module holds either cap, and perm holds the
    # window cap in a ContextVar, not a global
    import ast
    import pathlib

    caps = {"_GRID_CELL_CAP", "_max_window"}
    raises, holders, globals_ = [], set(), []
    for path in sorted(pathlib.Path(demaz.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Raise)
                    and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "ResourceLimit"
                ):
                    raises.append((path.stem, fn.name))
        for node in ast.walk(tree):
            # a name read or bound, an attribute, or an imported name
            named = {getattr(node, field, None) for field in ("id", "attr", "name")}
            if path.stem != "perm" and named & caps:
                holders.add(path.stem)
            if isinstance(node, ast.Global):
                globals_.append(path.stem)
    assert sorted(raises) == [
        ("perm", "_check_cells"), ("perm", "_check_window"), ("slipface", "rank_table"),
    ]
    assert holders == set()
    assert "perm" not in globals_
