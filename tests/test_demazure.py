"""Greedy product, stingy adjoints, witnesses, factorization."""

import itertools

import pytest

from conftest import rand_sigma_fin, sd_lines, sd_perms, zoo_perm

from demaz import (
    NotDominated,
    ResidueClass,
    ResourceLimit,
    apply,
    bruhat_leq,
    bruhat_leq_witness,
    compose,
    greedy_witness,
    identity,
    inv_count,
    inverse,
    is_reduced_pair,
    is_reduced_pair_witness,
    is_reduced_tuple,
    leq_chi,
    make_from_one_line,
    make_gamma,
    make_shift,
    make_sigma_set,
    parse_perm,
    reduce,
    reduce_tuple,
    shift_of,
    star,
    star_sigma,
    stingy_witness,
    tll,
    tll_sigma,
    tlr,
)
from demaz.oracle import oracle_star_sd, oracle_stingy_min


def test_star_simple_examples():
    s1, s2 = make_sigma_set([1]), make_sigma_set([2])
    assert star(s1, s2) == parse_perm("sym(1; 2 3 1)")
    assert star(s1, s1) == s1
    assert star(make_shift(1), make_shift(2)) == make_shift(3)


def test_tll_simple_example():
    w0 = parse_perm("sym(1; 3 2 1)")
    assert tll(w0, make_sigma_set([1])) == parse_perm("sym(1; 2 3 1)")


def test_star_matches_oracle_s3():
    perms = sd_perms(3)
    for p in perms:
        for q in perms:
            assert star(p, q) == oracle_star_sd(p, q, 3)


def test_tll_matches_oracle_s3():
    perms = sd_perms(3)
    for p in perms:
        for q in perms:
            assert tll(p, inverse(q)) == oracle_stingy_min(p, q, 3)


def test_tlr_by_inverse_identity(rng):
    for _ in range(30):
        p, q = zoo_perm(rng), zoo_perm(rng)
        assert tlr(p, q) == inverse(tll(inverse(q), inverse(p)))


def test_reduced_iff_star_is_compose_s3():
    perms = sd_perms(3)
    for p in perms:
        for q in perms:
            assert (star(p, q) == compose(p, q)) == is_reduced_pair(p, q)


def test_reduced_pair_witness_is_common_inversion(rng):
    for _ in range(50):
        p, q = zoo_perm(rng), zoo_perm(rng)
        ok, wit = is_reduced_pair_witness(p, q)
        assert ok == is_reduced_pair(p, q)
        if not ok:
            u, v = wit
            # witness: a pair inverted by both p and q^-1
            assert u < v
            assert apply(p, u) > apply(p, v)
            qi = inverse(q)
            assert apply(qi, u) > apply(qi, v)


def test_single_swap_recurrences_s4():
    for line in sd_lines(4):
        p = make_from_one_line(line)
        for n in range(0, 5):
            sn = make_sigma_set([n])
            if apply(p, n) < apply(p, n + 1):
                assert star(p, sn) == compose(p, sn)
                assert tll(p, sn) == p
            else:
                assert star(p, sn) == p
                assert tll(p, sn) == compose(p, sn)


def test_sigma_fast_paths_match_engine(rng):
    for _ in range(60):
        p = zoo_perm(rng)
        if rng.random() < 0.5:
            s = rand_sigma_fin(rng)
        else:
            m = rng.choice((2, 3, 4, 5))
            s = ResidueClass(rng.randrange(m), m)
        sigma = make_sigma_set(s)
        assert star_sigma(p, s) == star(p, sigma)
        assert tll_sigma(p, s) == tll(p, sigma)


def test_greedy_witness_properties_s3():
    perms = sd_perms(3)
    for p in perms:
        for q in perms:
            p1 = greedy_witness(p, q)
            assert leq_chi(p1, p)
            assert is_reduced_pair(p1, q)
            assert compose(p1, q) == star(p, q)


def test_stingy_witness_properties_s3():
    perms = sd_perms(3)
    for p in perms:
        for q in perms:
            q1 = stingy_witness(p, q)
            assert leq_chi(q1, q)
            assert tll(p, inverse(q)) == compose(p, inverse(q1))


def test_reduce_small_cases():
    s1, s2 = make_sigma_set([1]), make_sigma_set([2])
    w = reduce(s1, s1, s1)
    assert w.alpha1 == identity() or w.beta1 == identity()
    assert compose(w.alpha1, w.beta1) == s1
    assert w.reduced and w.product_equal
    assert w.alpha1_leq_chi and w.beta1_leq_chi

    g = star(s1, s2)
    w = reduce(s1, s2, g)
    assert (w.alpha1, w.beta1) == (s1, s2)


def test_reduce_dominating_triples_s3():
    perms = sd_perms(3)
    for p, q in itertools.product(perms, repeat=2):
        top = star(p, q)
        for g in perms:
            if not bruhat_leq(g, top):
                continue
            w = reduce(p, q, g)
            assert w.alpha1_leq_chi and w.beta1_leq_chi
            assert w.reduced and w.product_equal
            assert leq_chi(w.alpha1, p)
            assert leq_chi(w.beta1, q)
            assert is_reduced_pair(w.alpha1, w.beta1)
            assert compose(w.alpha1, w.beta1) == g


def test_reduce_rejects_non_dominated():
    s1, s2 = make_sigma_set([1]), make_sigma_set([2])
    w0 = parse_perm("sym(1; 3 2 1)")
    with pytest.raises(NotDominated):
        reduce(s1, s2, w0)  # star is the 3-cycle, w0 is above it
    with pytest.raises(NotDominated):
        reduce(s1, s1, make_shift(1))  # shift mismatch


@pytest.mark.parametrize(
    "p, q, g, cell",
    [
        ("sym(1; 2 1)", "sym(2; 3 2)", "sym(1; 3 2 1)", (3, 2)),
        ("aff(3; 2 -3 4)", "sym(1; 2 1)", "aff(3; 4 -3 2)", (-17, -20)),
        ("aff(3; 2 -3 4)", "shift(2)", "ep(k=3, lo=0; 2 -5 0)", (-22, -20)),
        ("sigma_mod(0,2)", "sigma_mod(1,2)", "aff(2; 3 -2)", (-13, -13)),
        ("ep(k=2, lo=-2; -2 -1 1 0)", "sym(1; 3 1 2)",
         "ep(k=2, lo=-2; -2 -1 1 2 3 0 5 4)", (1, 3)),
        ("sym(10000; 10001 10000)", "sym(10001; 10002 10001)",
         "ep(k=1, lo=9999; 9999 10002 10001 10000 10003)", (10002, 10001)),
        ("gamma(2,3)", "sym(1; 2 1)", "gamma(3,2)", None),  # shift mismatch
    ],
)
def test_reduce_names_the_cell_where_the_product_fails(p, q, g, cell):
    # reduce builds star(p, q) only once its certificate fails, and names
    # the first cell where it does not dominate g (cells recorded when the
    # star was built before the certificate)
    p, q, g = map(parse_perm, (p, q, g))
    with pytest.raises(NotDominated) as info:
        reduce(p, q, g)
    assert info.value.cell == cell
    if cell is not None:
        assert bruhat_leq_witness(g, star(p, q)) == (False, cell)


def test_reduce_tuple_examples():
    s1, s2 = make_sigma_set([1]), make_sigma_set([2])
    w0 = parse_perm("sym(1; 3 2 1)")
    t = reduce_tuple((s1, s2, s1), w0)
    assert t.factors == (s1, s2, s1)
    assert is_reduced_tuple(t.factors)

    t = reduce_tuple((s1, s1), s1)
    assert t.factors == (identity(), s1)

    g = make_gamma(2, 3)
    assert reduce_tuple((g,), g).factors == (g,)


def test_reduce_tuple_product_and_flags(rng):
    for _ in range(25):
        factors = [zoo_perm(rng) for _ in range(rng.randint(1, 4))]
        top = identity()
        for f in factors:
            top = star(top, f)
        t = reduce_tuple(tuple(factors), top)
        prod = identity()
        for f in t.factors:
            prod = compose(prod, f)
        assert prod == top
        assert is_reduced_tuple(t.factors)
        for f1, f0 in zip(t.factors, factors):
            assert leq_chi(f1, f0)


def test_inv_count_laws_s3():
    perms = sd_perms(3)
    for p in perms:
        for q in perms:
            np_, nq = inv_count(p), inv_count(q)
            assert inv_count(star(p, q)) <= np_ + nq
            assert (inv_count(star(p, q)) == np_ + nq) == is_reduced_pair(p, q)
            assert inv_count(tll(p, q)) >= np_ - nq


def test_resource_cap(max_window):
    max_window(8)
    with pytest.raises(ResourceLimit):
        star(make_gamma(4, 4), make_gamma(4, 4))


@pytest.mark.extended
def test_star_tll_match_oracles_s5_exhaustive():
    perms = sd_perms(5)
    for p in perms:
        for q in perms:
            assert star(p, q) == oracle_star_sd(p, q, 5)
            assert tll(p, inverse(q)) == oracle_stingy_min(p, q, 5)


@pytest.mark.extended
def test_star_tll_match_oracles_s6_sample(rng):
    lines = sd_lines(6)
    for _ in range(300):
        p = make_from_one_line(rng.choice(lines))
        q = make_from_one_line(rng.choice(lines))
        assert star(p, q) == oracle_star_sd(p, q, 6)
        assert tll(p, inverse(q)) == oracle_stingy_min(p, q, 6)
