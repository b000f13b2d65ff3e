"""Renderer output: exact ascii blocks, golden files, format structure."""

import pathlib

import pytest

from conftest import mixed_tails, rand_affine, zoo_perm

from demaz import (
    RenderSpec,
    ResourceLimit,
    compose,
    make_from_one_line,
    make_gamma,
    make_shift,
    render,
    sf_from_perm,
)

GOLD = pathlib.Path(__file__).parent / "golden"


def spec(a0, a1, b0, b1, fmt="ascii", mode="heatmap"):
    return RenderSpec(a0, a1, b0, b1, fmt=fmt, mode=mode)


def test_heatmap_exact_small_block():
    out = render(sf_from_perm(make_gamma(3, 5)), spec(-2, 4, -3, 3))
    assert out == (
        "heatmap a=-2..4 b=-3..3\n"
        " 4 | 8 7 6 5 4 3 2\n"
        " 3 | 7 6 5 5 4 3 2\n"
        " 2 | 6 5 5 5 4 3 2\n"
        " 1 | 5 5 5 5 4 3 2\n"
        " 0 | 4 4 4 4 3 2 1\n"
        "-1 | 3 3 3 3 2 1 0\n"
        "-2 | 2 2 2 2 1 0 0\n"
    )


@pytest.mark.parametrize(
    "name,line",
    [
        ("profiles_staircase9.txt", (1, 2, 3, 4, 5, 6, 7, 8, 9)),
        ("profiles_mixed9.txt", (5, 6, 2, 8, 3, 9, 7, 4, 1)),
        ("profiles_reversal9.txt", (9, 8, 7, 6, 5, 4, 3, 2, 1)),
    ],
)
def test_profile_goldens(name, line):
    s = sf_from_perm(make_from_one_line(line))
    out = render(s, spec(-10, 12, 0, 20, mode="profiles"))
    assert out == (GOLD / name).read_text()


def test_render_deterministic(rng):
    for fmt in ("ascii", "svg", "pgm"):
        for mode in ("heatmap", "profiles"):
            s = sf_from_perm(zoo_perm(rng))
            sp = spec(-5, 6, -4, 5, fmt=fmt, mode=mode)
            assert render(s, sp) == render(s, sp)


def test_output_always_newline_terminated(rng):
    for fmt in ("ascii", "svg", "pgm"):
        for mode in ("heatmap", "profiles"):
            s = sf_from_perm(zoo_perm(rng))
            out = render(s, spec(-4, 4, -4, 4, fmt=fmt, mode=mode))
            assert out.endswith("\n")


def test_pgm_structure():
    out = render(sf_from_perm(make_gamma(2, 2)), spec(-3, 3, -3, 3, fmt="pgm"))
    lines = out.splitlines()
    assert lines[0] == "P2"
    w, h = map(int, lines[1].split())
    assert (w, h) == (7, 7)
    maxval = int(lines[2])
    rows = [list(map(int, ln.split())) for ln in lines[3:]]
    assert len(rows) == h and all(len(r) == w for r in rows)
    assert all(0 <= v <= maxval for r in rows for v in r)


def test_svg_structure():
    out = render(sf_from_perm(make_gamma(2, 2)), spec(-3, 3, -3, 3, fmt="svg"))
    assert out.startswith("<svg")
    assert 'width="70"' in out and 'height="70"' in out
    assert out.count("<rect") >= 7 * 7
    out2 = render(
        sf_from_perm(make_gamma(2, 2)), spec(-3, 3, -3, 3, fmt="svg", mode="profiles")
    )
    assert out2.count("<polyline") == 7  # one per b value


def test_spec_validation():
    with pytest.raises(ValueError):
        RenderSpec(3, 1, 0, 4)
    with pytest.raises(ValueError):
        RenderSpec(0, 4, 5, 2)
    with pytest.raises(ValueError):
        RenderSpec(0, 4, 0, 4, fmt="jpeg")
    with pytest.raises(ValueError):
        RenderSpec(0, 4, 0, 4, mode="contour")


def test_heatmap_rows_descend_in_a(rng):
    s = sf_from_perm(zoo_perm(rng))
    out = render(s, spec(-3, 3, 0, 2))
    labels = [ln.split("|")[0].strip() for ln in out.splitlines()[1:]]
    assert labels == [str(a) for a in range(3, -4, -1)]


@pytest.mark.parametrize("fmt", ["ascii", "svg", "pgm"])
@pytest.mark.parametrize("mode", ["heatmap", "profiles"])
def test_permutation_render_matches_the_grid(rng, fmt, mode):
    # a permutation is counted on the rectangle alone, a slipface read off
    # its grid: the bytes agree, near the window and away from it
    pool = [zoo_perm(rng) for _ in range(6)] + [mixed_tails(rng)]
    pool += [rand_affine(rng, 5, 1), compose(make_shift(-30), make_gamma(2, 3))]
    for p in pool:
        corners = ((p.lo - 4, p.lo - 3), (p.lo - 40, p.lo + 25), (p.hi + 20, p.lo - 30))
        for a0, b0 in corners:
            sp = spec(a0, a0 + 8, b0, b0 + 6, fmt=fmt, mode=mode)
            assert render(p, sp) == render(sf_from_perm(p), sp), (p, sp)


def test_render_checks_the_rectangle_before_counting():
    s = spec(0, 9999, 0, 4000)
    for f in (make_gamma(1, 1), sf_from_perm(make_gamma(1, 1))):
        with pytest.raises(ResourceLimit, match="40010000 cells exceeds cap 40000000"):
            render(f, s)
