"""Property-based invariants over the generated permutation families."""

import hypothesis.strategies as st
from hypothesis import given, settings

from demaz import (
    apply, bruhat_leq, compose, delta_s, eval_s, format_perm, from_window, identity,
    inv_count, inverse, is_finitary, is_reduced_pair, make_affine, make_from_one_line,
    make_gamma, make_shift, parse_perm, read_slipface, sf_from_perm, sf_leq_ess,
    sf_leq_grid, sf_to_perm, shift_of, star, tll, weak_left_leq, write_slipface,
)

from conftest import translated
from test_finitary import check_products

one_line = (
    st.integers(2, 5)
    .flatmap(lambda d: st.permutations(list(range(1, d + 1))))
    .map(lambda l: make_from_one_line(tuple(l)))
)
shifts = st.integers(-3, 3).map(make_shift)


def affine(k):
    return st.tuples(
        st.permutations(list(range(k))),
        st.lists(st.integers(-2, 2), min_size=k, max_size=k),
    ).map(lambda t: make_affine([r + k * m for r, m in zip(t[0], t[1])], k))


gammas = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(lambda t: make_gamma(*t))

atoms = st.one_of(one_line, shifts, affine(2), affine(3), gammas)
perms = st.one_of(atoms, st.tuples(atoms, atoms).map(lambda t: star(*t)))
cells = st.integers(-9, 9)


def _mixed(block, invert, chi):
    # the identity left of -k, the block permutation in every period right
    # of it, like conftest.mixed_tails
    k = len(block)
    p = from_window(k, -k, list(range(-k, 0)) + block)
    p = inverse(p) if invert else p
    return compose(make_shift(chi), p)


mixed_tails = st.tuples(
    st.integers(2, 4)
    .flatmap(lambda k: st.permutations(list(range(k))))
    .filter(lambda b: b != sorted(b)),
    st.booleans(),
    st.integers(-3, 3),
).map(lambda t: _mixed(*t))


@given(perms, cells, cells)
@settings(deadline=None)
def test_duality(p, a, b):
    assert eval_s(p, a, b) - eval_s(inverse(p), b, a) == shift_of(p) + a - b


@given(perms, cells, cells)
@settings(deadline=None)
def test_column_step_and_delta(p, a, b):
    step = eval_s(p, a, b) - eval_s(p, a, b + 1)
    assert step == (1 if apply(p, b) < a else 0)
    dd = (
        eval_s(p, a + 1, b)
        - eval_s(p, a, b)
        - eval_s(p, a + 1, b + 1)
        + eval_s(p, a, b + 1)
    )
    assert dd == delta_s(p, a, b) == (1 if apply(p, b) == a else 0)


@given(perms)
@settings(deadline=None)
def test_text_round_trip(p):
    assert parse_perm(format_perm(p)) == p


@given(perms)
@settings(deadline=None)
def test_grid_round_trip(p):
    assert sf_to_perm(sf_from_perm(p)) == p


@given(perms)
@settings(deadline=None, max_examples=40)
def test_file_round_trip(p):
    s = sf_from_perm(p)
    for kind in ("slipface", "rankgrid"):
        assert sf_to_perm(read_slipface(write_slipface(s, kind))) == p


@given(perms, perms, perms)
@settings(deadline=None, max_examples=60)
def test_compose_group_laws(p, q, r):
    assert compose(compose(p, q), r) == compose(p, compose(q, r))
    assert compose(p, identity()) == p == compose(identity(), p)
    assert compose(p, inverse(p)) == identity()


@given(perms, perms, perms)
@settings(deadline=None, max_examples=40)
def test_star_associative(p, q, r):
    assert star(star(p, q), r) == star(p, star(q, r))


@given(perms, perms)
@settings(deadline=None, max_examples=60)
def test_star_unit_shift_antihom(p, q):
    e = identity()
    assert star(e, p) == p == star(p, e)
    assert shift_of(star(p, q)) == shift_of(p) + shift_of(q)
    assert inverse(star(p, q)) == star(inverse(q), inverse(p))


@given(perms, perms)
@settings(deadline=None, max_examples=60)
def test_star_dominates_compose(p, q):
    assert bruhat_leq(compose(p, q), star(p, q))


@given(perms, perms, perms)
@settings(deadline=None, max_examples=40)
def test_galois_equivalence(p, q, c):
    g = tll(p, inverse(q))
    assert bruhat_leq(p, star(g, q))
    assert bruhat_leq(p, star(c, q)) == bruhat_leq(g, c)


@given(perms, perms)
@settings(deadline=None, max_examples=60)
def test_comparator_paths_agree(p, q):
    sp, sq = sf_from_perm(p), sf_from_perm(q)
    assert sf_leq_ess(sp, sq)[0] == sf_leq_grid(sp, sq)[0]


@given(perms, perms)
@settings(deadline=None, max_examples=60)
def test_inv_count_laws_finitary(p, q):
    if not (is_finitary(p) and is_finitary(q)):
        return
    n = inv_count(star(p, q))
    assert n <= inv_count(p) + inv_count(q)
    assert (n == inv_count(p) + inv_count(q)) == is_reduced_pair(p, q)


@given(perms, perms)
@settings(deadline=None, max_examples=60)
def test_weak_left_antisymmetric(p, q):
    if weak_left_leq(p, q) and weak_left_leq(q, p) and shift_of(p) == shift_of(q):
        sp, sq = sf_from_perm(p), sf_from_perm(q)
        if bruhat_leq(p, q) and bruhat_leq(q, p):
            assert p == q


@given(perms, perms, perms)
@settings(deadline=None, max_examples=40)
def test_star_monotone_both_sides(p, q, r):
    if bruhat_leq(p, q):
        assert bruhat_leq(star(p, r), star(q, r))
        assert bruhat_leq(star(r, p), star(r, q))


@given(mixed_tails, st.one_of(mixed_tails, perms), st.booleans())
@settings(deadline=None)
def test_mixed_tail_products_agree(m, other, flip):
    p, q = (other, m) if flip else (m, other)
    assert all(check_products(p, q).values())


finitary_factors = st.tuples(
    st.integers(2, 6).flatmap(lambda d: st.permutations(list(range(1, d + 1)))),
    st.integers(-5, 5),
    st.integers(-50, 50),
).map(lambda t: compose(
    make_shift(t[2]), make_from_one_line([v + t[1] - 1 for v in t[0]], t[1])
))
partners = st.one_of(
    affine(2), affine(3), affine(5), affine(7),
    st.tuples(affine(3), one_line).map(lambda t: star(*t)),
    mixed_tails,
).filter(lambda p: p.period > 1)


@given(finitary_factors, partners, st.sampled_from([0, 0, 10**4, -(10**4) - 7]),
       st.booleans())
@settings(deadline=None, max_examples=100)
def test_finitary_factor_products_agree(f, other, off, flip):
    # a finitary factor, or with f on the side whose word is not folded, the
    # germ folds and a finitary middle; the grid conjugates the windows to 0
    f, other = translated(f, off), translated(other, off)
    p, q = (other, f) if flip else (f, other)
    assert all(check_products(p, q).values())
