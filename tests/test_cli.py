"""Command-line surface: verbs, flags, exit codes, JSON schemas."""

import json
import os
import shlex
import subprocess
import sys

import pytest

import cli_module_budget
from conftest import zoo_perm

from demaz import (
    eval_s,
    make_gamma,
    make_sigma_set,
    parse_perm,
    format_perm,
    sf_from_perm,
    sf_star,
    sf_equal,
    read_slipface,
    write_slipface,
)
from demaz import demazure, finitary, order, slipface
from demaz.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_star_prints_canonical(capsys):
    code, out, err = run(capsys, "star", "sigma(1)", "sigma(2)")
    assert code == 0
    assert parse_perm(out.strip()) == parse_perm("sym(1; 2 3 1)")
    assert err == ""


def test_compute_verbs_consistent(capsys, rng):
    for verb in ("star", "tll", "tlr", "compose"):
        code, out, _ = run(capsys, verb, "gamma(1,2)", "sigma(0)")
        assert code == 0
        parse_perm(out.strip())
    code, out, _ = run(capsys, "inverse", "shift(5)")
    assert code == 0
    assert parse_perm(out.strip()) == parse_perm("shift(-5)")


def test_json_flag_both_positions(capsys):
    for argv in (
        ["--json", "star", "sigma(1)", "sigma(2)"],
        ["star", "--json", "sigma(1)", "sigma(2)"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        rec = json.loads(out)
        assert rec["schema"] == "demaz.perm/1"
        assert rec["vals"] == [0, 2, 3, 1, 4]
        assert rec["chi"] == 0


def test_round_trip_through_cli(capsys, rng):
    for _ in range(60):
        p = zoo_perm(rng)
        code, out, _ = run(capsys, "compose", format_perm(p), "shift(0)")
        assert code == 0
        assert parse_perm(out.strip()) == p


def test_compare_true_false_and_witness(capsys):
    code, out, _ = run(capsys, "compare", "leq", "shift(0)", "shift(1)")
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(capsys, "compare", "leq", "shift(0)", "shift(-1)")
    assert (code, out) == (1, "false witness=(13,11)\n")


def test_compare_json(capsys):
    code, out, _ = run(capsys, "--json", "compare", "leq", "sigma(1)", "sym(1; 3 2 1)")
    assert code == 0
    rec = json.loads(out)
    assert rec["schema"] == "demaz.compare/1"
    assert rec["result"] is True


@pytest.mark.parametrize(
    "rel, a, b, code, out",
    [
        ("wleft", "sigma(1)", "sym(1; 3 2 1)", 0, "true\n"),
        ("wleft", "sym(1; 3 2 1)", "sigma(1)", 1, "false witness=(1,3)\n"),
        ("wright", "sigma(1)", "sym(1; 3 2 1)", 0, "true\n"),
        ("wright", "sigma(2)", "sym(1; 2 3 1)", 1, "false witness=(2,3)\n"),
        ("wright", "aff(3; 2 0 1)", "gamma(1,2)", 1, "false witness=(-11,-10)\n"),
    ],
)
def test_compare_weak_orders(capsys, rel, a, b, code, out):
    assert run(capsys, "compare", rel, a, b) == (code, out, "")


def test_ess_listing(capsys):
    code, out, _ = run(capsys, "ess", "gamma(3,5)")
    assert code == 0
    assert "(1,0) value=5" in out
    code, out, _ = run(capsys, "ess", "shift(7)")
    assert code == 0
    code, out, _ = run(capsys, "ess", "sigma_mod(0,4)")
    assert "periodic" in out


def test_inv_verb(capsys):
    assert run(capsys, "inv", "gamma(3,5)")[1].strip() == "15"
    code, out, _ = run(capsys, "inv", "sigma_mod(0,2)")
    assert out.strip() == "infinite"
    rec = json.loads(run(capsys, "--json", "inv", "sigma_mod(0,2)")[1])
    assert rec == {"count": None, "infinite": True, "schema": "demaz.inv/1"}


def test_exit_codes():
    assert main(["star", "frob(1)", "sigma(1)"]) == 2  # parse
    assert main(["star", "sym(1; 1 1)", "sigma(1)"]) == 3  # domain
    assert main(["compare", "leq", "shift(1)", "shift(0)"]) == 1  # false
    assert main(["--max-window", "8", "star", "gamma(4,4)", "gamma(4,4)"]) == 4


@pytest.mark.parametrize("expr", ["sym(1; \u00b2)", "shift(\u0663)"])
def test_non_ascii_digits_exit_2(capsys, expr):
    code, out, err = run(capsys, "inverse", expr)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: expected an integer")


def test_diagnostics_go_to_stderr(capsys):
    code, out, err = run(capsys, "star", "frob(1)", "sigma(1)")
    assert code == 2
    assert out == ""
    assert err != ""


def test_validate_expression(capsys):
    code, out, _ = run(capsys, "validate", "aff(2; 3 -2)")
    assert code == 0
    assert out.startswith("valid")
    code, out, err = run(capsys, "validate", "aff(2; 0 2)")
    assert code == 1
    assert "invalid" in out or err


def test_validate_slipface_file(capsys, tmp_path, rng):
    s = sf_from_perm(zoo_perm(rng))
    good = tmp_path / "good.sf"
    good.write_text(write_slipface(s, "slipface"))
    assert run(capsys, "validate", str(good))[0] == 0
    bad = tmp_path / "bad.sf"
    bad.write_text("slipface chi=0 k=1 band=2 box=0..2x0..2\n9 9 9\n0 0 0\n1 1 1\n")
    assert run(capsys, "validate", str(bad))[0] == 1


def test_render_to_file(capsys, tmp_path):
    target = tmp_path / "out.svg"
    code, out, _ = run(
        capsys, "render", "gamma(2,2)", "--format", "svg",
        "--arange=-3:3", "--brange=-3:3", "-o", str(target),
    )
    assert code == 0
    assert target.read_text().startswith("<svg")


def test_render_bad_range(capsys):
    code, _, err = run(capsys, "render", "gamma(2,2)", "--arange=5:1", "--brange=0:3")
    assert code == 2
    assert err


def test_rankgrid_to_perm(capsys, tmp_path):
    p = make_gamma(3, 5)
    f = tmp_path / "g.rg"
    f.write_text(write_slipface(sf_from_perm(p), "rankgrid"))
    code, out, _ = run(capsys, "rankgrid", "to-perm", str(f))
    assert code == 0
    assert parse_perm(out.strip()) == p


def test_rankgrid_glue(capsys, tmp_path):
    p, q = make_sigma_set([1]), make_sigma_set([2])
    fa, fb = tmp_path / "a.rg", tmp_path / "b.rg"
    fa.write_text(write_slipface(sf_from_perm(p), "rankgrid"))
    fb.write_text(write_slipface(sf_from_perm(q), "rankgrid"))
    code, out, _ = run(capsys, "rankgrid", "glue", str(fa), str(fb))
    assert code == 0
    assert sf_equal(read_slipface(out), sf_star(sf_from_perm(p), sf_from_perm(q)))


@pytest.mark.parametrize(
    "cell, message",
    [
        ("mid", "error: star result failed validation: "),
        ("corner", "error: star result leaves its asymptote at "),
    ],
)
def test_rankgrid_glue_reports_a_corrupt_product(
    capsys, tmp_path, monkeypatch, cell, message
):
    p, q = make_sigma_set([1]), make_sigma_set([2])
    fa, fb = tmp_path / "a.rg", tmp_path / "b.rg"
    fa.write_text(write_slipface(sf_from_perm(p), "rankgrid"))
    fb.write_text(write_slipface(sf_from_perm(q), "rankgrid"))
    min_plus = slipface._min_plus

    def corrupt(S, T):
        g = min_plus(S, T)
        i, j = (len(g) // 2,) * 2 if cell == "mid" else (0, len(g) - 1)
        g[i, j] += 1
        return g

    monkeypatch.setattr(slipface, "_min_plus", corrupt)
    code, out, err = run(capsys, "rankgrid", "glue", str(fa), str(fb))
    assert (code, out) == (3, "")
    assert err.startswith(message), err


def test_rankgrid_dim(capsys):
    code, out, _ = run(capsys, "rankgrid", "dim", "gamma(1,2)", "--genus", "4")
    assert code == 0
    assert out.strip() == "2"


def test_oracle_verb(capsys):
    code, out, _ = run(capsys, "oracle", "eval", "sym(1; 5 6 2 8 3 9 7 4 1)", "4", "5")
    assert code == 0
    assert "engine=2" in out and "oracle=2" in out


def test_sd_oracles_refuse_operands_outside_s_d_and_sizes_over_the_caps(capsys):
    p = "sym(1; 2 1 3 5 4)"
    code, out, _ = run(capsys, "oracle", "star", p, p, "--d", "5")
    assert (code, out) == (0, "ep(k=1, lo=0; 0 2 1 3 5 4 6)\n")
    # p moves 4 and 5; S_0 and S_-3 do not exist
    for d in ("2", "0", "-3"):
        code, out, err = run(capsys, "oracle", "star", p, p, "--d", d)
        assert (code, out) == (3, "") and err.startswith("error: "), d
    # checked before any list or table is built
    for argv, what in (
        (["star", p, p, "--d", str(10**20)], "S_100000000000000000000 one-line"),
        (["star", p, p, "--d", "500"], "S_500 min-plus product of 125751501 cells"),
        (["eval", p, "1", "1", "--radius", str(10**20)], "oracle scan"),
    ):
        code, out, err = run(capsys, "oracle", *argv)
        assert (code, out) == (4, "") and err.startswith(f"resource limit: {what} "), err


def test_file_errors_name_the_path(capsys, tmp_path):
    missing = tmp_path / "missing" / "f"
    code, out, err = run(
        capsys, "render", "sym(1; 2 1)", "--arange=0:3", "--brange=0:3", "-o", str(missing)
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"file error: {missing}: ") and err.count("\n") == 1
    if os.path.exists("/dev/full"):
        # opens, then fails to write
        code, out, err = run(
            capsys, "render", "sym(1; 2 1)", "--arange=0:3", "--brange=0:3", "-o", "/dev/full"
        )
        assert (code, out, err) == (2, "", "file error: /dev/full: No space left on device\n")
    # a directory, and bytes that are not UTF-8, where a grid file is read
    binary = tmp_path / "grid.bin"
    binary.write_bytes(b"\xfb\xff" * 100)
    for path in (tmp_path, binary):
        for argv in (
            ["render", str(path), "--arange=0:3", "--brange=0:3"],
            ["validate", str(path)],
            ["rankgrid", "to-perm", str(path)],
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith(f"file error: {path}: ") and err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_unwritable_stdout_is_a_file_error():
    # a short result waits in the buffer until main flushes it, a long one
    # fails in the write itself; the interpreter's exit flush adds nothing
    src = os.path.dirname(os.path.dirname(demazure.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (
        ["star", "sym(1; 2 1)", "sym(1; 2 1)"],
        ["render", "sym(1; 2 1)", "--arange=0:3", "--brange=0:3"],
        ["render", "sym(1; 2 1)", "--arange=0:200", "--brange=0:200"],
        ["--json", "ess", "gamma(3,5)"],
    ):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "demaz", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        assert (proc.returncode, proc.stderr) == (
            2, "file error: <stdout>: No space left on device\n"
        ), argv


def test_extended_checks_flag(capsys):
    code, out, _ = run(capsys, "--extended-checks", "star", "sigma(1)", "sigma(2)")
    assert code == 0
    parse_perm(out.strip())


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["star", "sigma(1)", "sigma(2)"]
    code, out, _ = run(capsys, *argv)
    src = os.path.dirname(os.path.dirname(demazure.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "demaz", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (code, out)


@pytest.mark.parametrize("cap", ["-1", "0"])
def test_max_window_below_one_is_a_usage_error(capsys, cap):
    with pytest.raises(SystemExit) as exc:
        main(["--max-window", cap, "star", "sigma(1)", "sigma(2)"])
    assert exc.value.code == 2
    assert "--max-window" in capsys.readouterr().err


def test_extended_checks_rerun_finitary_paths_on_the_grid(capsys, monkeypatch):
    ext = "--extended-checks"
    for verb in ("star", "tll", "tlr"):
        assert run(capsys, ext, verb, "gamma(2,3)", "shift(4)")[0] == 0
    code, out, _ = run(capsys, ext, "compare", "leq", "gamma(2,3)", "gamma(1,2)")
    assert (code, out) == (1, "false witness=(1,0)\n")

    fold = finitary.affine_product
    monkeypatch.setattr(finitary, "affine_product", lambda k, p, q: fold("star", p, q))
    code, out, err = run(capsys, ext, "tll", "sym(1; 3 2 1)", "sigma(1)")
    assert (code, out) == (3, "")
    assert "extended check failed: affine tll" in err
    monkeypatch.setattr(order, "bruhat_leq_witness", lambda p, q: (False, (0, 0)))
    for a, b in (("shift(1)", "shift(0)"), (A3, A5)):
        code, _, err = run(capsys, ext, "compare", "leq", a, b)
        assert code == 3
        assert "extended check failed: rank-table comparison differs" in err


# shift(-15) composed with aff(7; 5 -1 9 3 -3 14 8): n -> alpha(n) + 15
A3, A5 = "aff(3; 2 -3 4)", "aff(5; 3 -1 7 0 6)"
S7 = "ep(k=7, lo=0; 20 14 24 18 12 29 23)"
# the identity on the left, adjacent swaps on the right
MIXED = "ep(k=2, lo=-2; -2 -1 1 0)"


@pytest.mark.parametrize(
    "verb, a, b, out",
    [
        ("star", A3, A5, "ep(k=15, lo=0; 5 1 8 -3 7 10 0 14 3 13 11 9 19 6 17)"),
        ("tll", A3, A5, "ep(k=15, lo=0; 2 4 0 5 3 7 8 6 10 11 9 13 12 14 16)"),
        ("tlr", A3, A5, "ep(k=15, lo=0; 3 1 4 2 6 8 5 9 7 12 13 10 15 11 14)"),
        ("star", S7, A5, "ep(k=35, lo=0; 18 16 29 14 27 23 12 36 21 31 30 25 38 19"
         " 34 32 28 43 26 41 45 37 50 35 44 48 39 52 33 46 57 42 59 40 55)"),
        ("tll", S7, A5, "ep(k=35, lo=0; 18 20 12 24 23 21 27 19 29 25 30 31 28 36"
         " 32 26 34 35 38 37 41 43 33 45 39 44 48 40 50 42 46 52 49 57 51)"),
        ("tlr", S7, A5, "ep(k=35, lo=0; 18 19 20 21 22 23 24 26 25 27 28 29 30 31"
         " 32 33 34 35 36 37 39 38 40 41 42 44 43 46 45 47 48 49 50 51 52)"),
        ("star", A5, S7, "ep(k=35, lo=0; 23 14 26 15 10 32 21 31 20 33 28 19 38 29"
         " 37 25 42 36 24 47 35 43 34 48 41 30 53 46 52 40 57 44 39 62 51)"),
        ("tll", A5, S7, "ep(k=35, lo=0; 18 19 20 21 22 23 24 25 26 27 28 29 30 31"
         " 32 33 34 35 37 36 38 39 40 41 42 43 44 46 45 47 48 49 51 50 52)"),
        ("tlr", A5, S7, "ep(k=35, lo=0; 19 16 24 21 17 29 25 26 23 30 27 22 34 31"
         " 35 32 36 33 28 40 39 41 38 44 42 37 49 45 46 47 50 48 43 55 53)"),
    ],
)
def test_affine_product_goldens(capsys, verb, a, b, out):
    # bytes recorded from the grid engine, which computed these pairs before
    # the affine fold did
    assert run(capsys, verb, a, b) == (0, out + "\n", "")


@pytest.mark.parametrize(
    "a, b, out",
    [
        (A3, A5, "false witness=(51,45)"),
        (A5, S7, "false witness=(151,126)"),  # shift 0 > -15: the far cell
        (S7, A5, "true"),
    ],
)
def test_periodic_compare_goldens(capsys, a, b, out):
    # bytes recorded from the grid comparison, which decided these pairs
    # before the rank tables did
    assert run(capsys, "compare", "leq", a, b) == (0 if out == "true" else 1, out + "\n", "")


def test_extended_checks_rerun_affine_paths_on_the_grid(capsys, monkeypatch):
    ext = "--extended-checks"
    for verb in ("star", "tll", "tlr"):
        assert run(capsys, ext, verb, S7, "sigma_mod(1,4)")[0] == 0
        assert run(capsys, ext, verb, MIXED, "sym(1; 3 1 4 2)")[0] == 0
    fold = finitary._fold_kind
    monkeypatch.setattr(finitary, "_fold_kind", lambda kind, x, v: fold("star", x, v))
    code, out, err = run(capsys, ext, "tll", A3, A5)
    assert (code, out) == (3, "")
    assert "extended check failed: affine tll differs from the grid engine" in err


# a finitary window near +-30 against an affine, and star(A3, sym(1; 3 1 2))
F30, F_30 = "sym(29; 31 29 32 30)", "sym(-31; -29 -31 -28 -30)"
X3 = "ep(k=3, lo=-2; -6 1 2 5 -3 4 0 7 8)"


@pytest.mark.parametrize(
    "verb, a, b, out",
    [
        ("star", A3, F30, "ep(k=3, lo=26; 28 29 24 32 31 34 27 35 30 37)"),
        ("tll", A3, F30, "ep(k=3, lo=26; 28 29 24 27 31 32 34 35 30)"),
        ("tlr", A3, F30, "ep(k=1, lo=0; 0)"),
        ("star", A3, F_30, "ep(k=3, lo=-34; -32 -31 -36 -28 -29 -26 -33 -25 -30 -23)"),
        ("tll", A3, F_30, "ep(k=3, lo=-34; -32 -31 -36 -33 -29 -28 -26 -25 -30)"),
        ("tlr", A3, F_30, "ep(k=1, lo=0; 0)"),
        ("star", F30, A3, "ep(k=3, lo=24; 26 21 28 31 24 32 30 27 34 35 29 37 38 33)"),
        ("tll", F30, A3, "ep(k=1, lo=0; 0)"),
        ("tlr", F30, A3, "ep(k=3, lo=26; 28 29 24 30 32 27 34 35 31 37 38 33)"),
        ("star", X3, "sym(1; 2 3 1)", "ep(k=3, lo=-2; -6 1 2 5 4 -3 0 7 8)"),
        ("tll", X3, "sym(1; 2 3 1)", "ep(k=3, lo=0; 2 -3 4)"),
        ("tlr", X3, "sym(1; 2 3 1)", "ep(k=1, lo=0; 0)"),
        ("star", "sym(-2; 0 -1 -2)", X3,
         "ep(k=3, lo=-7; -5 -4 -9 0 -1 -6 1 2 5 -3 4 -2 7 8 3)"),
        ("tll", "sym(-2; 0 -1 -2)", X3, "ep(k=1, lo=-3; -3 -1 -2 0)"),
        ("tlr", "sym(-2; 0 -1 -2)", X3, "ep(k=3, lo=-2; -6 1 2 5 -3 4 0 7 8)"),
    ],
)
def test_periodized_product_goldens(capsys, verb, a, b, out):
    # bytes recorded from the grid engine, which computed these pairs before
    # the periodized fold did
    assert run(capsys, verb, a, b) == (0, out + "\n", "")


def test_extended_checks_catch_a_wrong_periodized_fold(capsys, monkeypatch):
    fold = finitary._fold_kind

    def wrong(kind, x, v):
        # swap two entries mid-period: the cut's end periods, and so the
        # equal-tails check, still see the right values
        r = fold(kind, x, v)
        if len(r) > 3:
            i = len(r) // 2
            r[i], r[i + 1] = r[i + 1], r[i]
        return r

    assert run(capsys, "--extended-checks", "star", A3, F30)[0] == 0
    monkeypatch.setattr(finitary, "_fold_kind", wrong)
    code, out, err = run(capsys, "--extended-checks", "star", A3, F30)
    assert (code, out) == (3, "")
    assert "extended check failed: affine star differs from the grid engine" in err


# the longest element of S_9500: a word of 45120250 letters
W0_9500 = "sym(0; " + " ".join(map(str, range(9499, -1, -1))) + ")"


@pytest.mark.parametrize(
    "argv, code",
    [
        # a pure shift has an empty window, so no essential cell, at any size
        (["ess", "shift(1000000)"], 0),
        (["ess", "shift(10000000000000000000)"], 0),
        # window values past int64, counted exactly: shift 10^20 is far above
        (["compare", "leq", "sym(1; 2 1)",
          "ep(k=1, lo=0; -100000000000000000000 -99999999999999999999)"], 0),
        (["inverse", "shift(" + "9" * 5000 + ")"], 2),
        # an affine period past int64 in the operand whose word is folded,
        # about 10^20 letters
        (["star", "aff(2; 1 0)", "aff(2; 0 100000000000000000001)"], 4),
        # a periodic scan square of (8 * 10^6)^2 cells, refused before any list
        (["ess", "aff(2; 0 2000001)"], 4),
        # a finitary factor's word over the grid cap, refused before it is
        # spelled although its window is far under the window cap
        (["star", "aff(3; 2 -3 4)", W0_9500], 4),
        (["tll", "aff(3; 2 -3 4)", W0_9500], 4),
        (["tlr", W0_9500, "aff(3; 2 -3 4)"], 4),
        # render rectangles past sys.maxsize cells, refused by the cell cap
        (["render", "sym(1; 2 1)", "--arange=0:99999999999999999999", "--brange=0:0"],
         4),
        (["render", "sym(1; 2 1)", "--arange=0:0",
          "--brange=-9223372036854775808:9223372036854775807"], 4),
    ],
    ids=["shift-1e6", "shift-1e19", "values-1e20", "5000-digits", "affine-1e20",
         "periodic-ess-over-cap", "factor-word-star", "factor-word-tll",
         "factor-word-tlr", "render-rows-1e20", "render-columns-2e64"],
)
def test_huge_inputs_end_in_exit_codes(argv, code):
    src = os.path.dirname(os.path.dirname(demazure.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "demaz", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == code, proc.stderr[-500:]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["inverse", "gamma(0,999999999999)"],
        ["inverse", "sigma_mod(0," + "9" * 30 + ")"],
        # a valid-length window whose violation band spans 4 * 10^12 entries
        ["validate", "ep(k=1, lo=0; 0 999999999999)"],
        # two periods under the cap whose lcm, the product's period, is not
        ["compose", "sigma_mod(0,99991)", "sigma_mod(0,99989)"],
        ["compose", "sigma_mod(0,1009)", "sigma_mod(0,1013)"],
    ],
    ids=["gamma-1e12", "sigma-mod-1e30", "band-4e12", "compose-lcm-1e10",
         "compose-lcm-1e6"],
)
def test_windows_over_the_cap_are_refused_before_they_are_built(argv):
    src = os.path.dirname(os.path.dirname(demazure.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "demaz", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 4, proc.stderr[-500:]
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("resource limit: ")
    assert "--max-window" in proc.stderr


def test_invalid_window_message_is_bounded(capsys):
    # 7000 entries in decreasing order: 20998 violations, 3 of them named
    text = "ep(k=1, lo=1; " + " ".join(str(7000 - i) for i in range(7000)) + ")"
    src = os.path.dirname(os.path.dirname(demazure.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "demaz", "inverse", text],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 3
    assert len(proc.stderr.encode()) < 1024, len(proc.stderr)
    assert "duplicate-image: alpha(0) = alpha(2) = 6999;" in proc.stderr
    assert proc.stderr.endswith("(20998 violations in all)\n")
    assert "Traceback" not in proc.stderr
    # validate still lists every violation
    code, out, err = run(capsys, "validate", text)
    assert (code, out) == (1, "invalid\n")
    assert len(err.splitlines()) == 20998


def test_residue_collision_message_is_bounded(capsys):
    # one period of 3000 zeros: both tail generators hit one residue
    text = "ep(k=3000, lo=0; " + " ".join(["0"] * 3000) + ")"
    src = os.path.dirname(os.path.dirname(demazure.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "demaz", "inverse", text],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 3
    assert len(proc.stderr.encode()) < 1024, len(proc.stderr)
    assert "Traceback" not in proc.stderr
    detail = "alpha(0) and alpha(1) share residue 0 mod 3000; 1 of 3000 residues occur"
    code, out, err = run(capsys, "validate", text)
    assert (code, out) == (1, "invalid\n")
    assert err.splitlines() == [
        f"invalid: residue-collision: {side} tail generator: {detail}"
        for side in ("left", "right")
    ]


# finitary, globally periodic and periodized pairs, all with equal tails
FOLDED = [
    ("sym(1; 3 1 4 2)", "sym(1; 2 1)"),
    ("aff(3; 2 -3 4)", "aff(3; 5 -2 0)"),
    ("aff(3; 2 -3 4)", "sym(1; 3 1 4 2)"),
]


@pytest.mark.parametrize(
    "argv, numpy",
    [
        *[([verb, a, b], False) for verb in ("star", "tll", "tlr") for a, b in FOLDED],
        (["compose", "aff(3; 2 -3 4)", "sym(1; 2 1)"], False),
        (["inverse", "aff(3; 2 -3 4)"], False),
        (["inv", "sym(1; 3 1 4 2)"], False),
        (["validate", "aff(3; 2 -3 4)"], False),
        (["oracle", "star", "sym(1; 2 1)", "sym(1; 1 3 2)"], False),
        (["star", "--json", "aff(3; 2 -3 4)", "sym(1; 3 1 4 2)"], False),
        # the inversion scan is pure Python
        (["compare", "wleft", "sym(1; 2 1)", "sym(1; 3 2 1)"], False),
        # this builds grids, so the check cannot pass vacuously
        (["rankgrid", "glue", "sym(1; 2 1)", "sym(1; 1 3 2)"], True),
        # a mixed-tail operand: two folds and a stitch
        (["star", "ep(k=2, lo=-2; -2 -1 1 0)", "sym(1; 2 1)"], False),
        # essential cells and counts on permutations, no rank table
        (["compare", "leq", "sym(1; 2 1)", "sym(1; 3 2 1)"], False),
        (["compare", "leq", S7, A5], False),
        (["compare", "leq_chi", "sigma(2)", "sym(1; 3 2 1)"], False),
        (["ess", "sym(1; 3 1 4 2)"], False),
        (["ess", "--json", A3], False),
        (["render", "gamma(3,5)", "--arange=-2:4", "--brange=-3:3"], False),
        (["render", A3, "--format=svg", "--mode=profiles", "--arange=-2:4",
          "--brange=-3:3"], False),
        (["tll", "aff(3; 2 -3 4)", "ep(k=3, lo=-3; -3 -2 -1 1 2 0)"], False),
        (["tlr", "ep(k=3, lo=-2; -3 -2 -1 2 0 1)", "ep(k=2, lo=-2; -2 -1 1 0)"],
         False),
    ],
)
def test_fold_verbs_never_import_numpy(argv, numpy):
    src = os.path.dirname(os.path.dirname(demazure.__file__))
    code = (
        "import sys\nfrom demaz.cli import main\n"
        "print(main(sys.argv[1:]), 'numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.stdout.splitlines()[-1] == f"0 {numpy}", proc.stderr[-500:]


def test_numpy_free_verbs_match_their_goldens():
    # the script blocks numpy itself; CI also runs it before numpy is installed
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(demazure.__file__))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "tests", "cli_without_numpy.py")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.endswith("57 of 57 numpy-free CLI goldens match\n")


def test_numpy_free_heatmap_goldens_match_eval_s():
    # each ascii heatmap of the golden file, one with values near +-10^20,
    # read back and compared with eval_s pointwise
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "tests", "golden", "numpy_free_cli.txt")) as fh:
        blocks = fh.read().split("$ ")[1:]
    seen = []
    for block in blocks:
        head, *lines = block.splitlines()
        argv = shlex.split(head)
        if argv[0] != "render" or any(a.startswith(("--format", "--mode")) for a in argv):
            continue
        p = parse_perm(argv[1])
        (a0, a1), (b0, b1) = (
            map(int, a.split("=")[1].split(":")) for a in argv[2:4]
        )
        got = [[int(v) for v in line.split("|")[1].split()] for line in lines[1:-1]]
        want = [[eval_s(p, a, b) for b in range(b0, b1 + 1)] for a in range(a1, a0 - 1, -1)]
        assert got == want, head
        seen.append(max(map(max, got)))
    assert len(seen) == 2 and max(seen) > 10**19


@pytest.mark.parametrize("argv, code", cli_module_budget.LIGHT)
def test_permutation_verbs_keep_their_module_budget(argv, code):
    # a fresh interpreter per verb: no grid engine, oracle, dataclasses,
    # inspect or numpy
    assert cli_module_budget.loaded(argv) == (code, [])


@pytest.mark.parametrize("argv", cli_module_budget.GRID)
def test_grid_verbs_load_the_grid_engine(argv):
    assert "demaz.slipface" in cli_module_budget.loaded(argv)[1]
