"""Grid-backed rank functions: evaluation, duality, essential sets, IO."""

import numpy as np
import pytest

from conftest import rand_affine, sd_perms, sym, zoo_perm, zoo_perm_with_shift

from demaz import (
    NotSubmodular,
    ParseError,
    ResidueClass,
    ResourceLimit,
    apply,
    compose,
    eval_s,
    ess_set,
    identity,
    inverse,
    make_from_one_line,
    make_gamma,
    make_shift,
    make_sigma_set,
    read_slipface,
    sf_dual,
    sf_equal,
    sf_eval,
    sf_eval_grid,
    sf_from_perm,
    sf_is_submodular,
    sf_leq_ess,
    sf_leq_grid,
    sf_star,
    sf_tll,
    sf_tlr,
    sf_to_perm,
    sf_validate,
    shift_of,
    star,
    write_slipface,
)
from demaz.slipface import perm_box, rank_table


def test_eval_agrees_with_perm_everywhere(rng):
    # includes cells far outside the stored box
    for _ in range(15):
        p = zoo_perm(rng)
        s = sf_from_perm(p)
        for a in range(-25, 26, 5):
            for b in range(-25, 26, 5):
                assert sf_eval(s, a, b) == eval_s(p, a, b), (p, a, b)


def test_eval_grid_matches_pointwise(rng):
    for _ in range(10):
        s = sf_from_perm(zoo_perm(rng))
        g = sf_eval_grid(s, -18, 18, -14, 14)
        for i, a in enumerate(range(-18, 19)):
            for j, b in enumerate(range(-14, 15)):
                assert g[i, j] == sf_eval(s, a, b)


def _rank_table_members(rng):
    """Zoo members, shifted affines of periods 2-7 and star(affine, S_d),
    whose tails differ from one period to the next."""
    out = [zoo_perm(rng) for _ in range(12)]
    for k in range(2, 8):
        a = rand_affine(rng, k, 1)
        out.append(compose(make_shift(rng.randint(-9, 9)), a))
        out.append(star(a, sym(rng, rng.randint(2, 5), rng.randint(-4, 4))))
    return out


def _eval_table(p, a0, a1, b0, b1):
    return [[eval_s(p, a, b) for b in range(b0, b1 + 1)] for a in range(a0, a1 + 1)]


def test_rank_tables_match_eval_s(rng):
    # eval_s counts pointwise, independently of the tabulation that both the
    # grids and the Bruhat comparison read
    for p in _rank_table_members(rng):
        _, _, c0, c1 = perm_box(p)
        box = (c0, c1, c0, c1)
        assert rank_table(p, *box).tolist() == _eval_table(p, *box), p
        for where in ("left", "right", "straddle", "far"):
            w = rng.randint(0, 9)
            if where == "left":
                b1 = p.lo - rng.randint(1, 9)
                b0 = b1 - w
            elif where == "right":
                b0 = p.hi + rng.randint(1, 9)
                b1 = b0 + w
            elif where == "straddle":
                b0, b1 = p.lo - rng.randint(0, 4), p.hi + rng.randint(0, 4)
            else:
                b0 = rng.choice((-1, 1)) * 10**5 + rng.randint(-9, 9)
                b1 = b0 + w
            a0 = b0 + rng.randint(-15, 15)
            a1 = a0 + rng.randint(0, 12)
            want = _eval_table(p, a0, a1, b0, b1)
            assert rank_table(p, a0, a1, b0, b1).tolist() == want, (p, a0, a1, b0, b1)


def test_rank_table_checks_int64_range_first():
    # the reach is the largest region or window bound plus the period and
    # diff_bound, 1 each here
    edge = 2**62 - 10
    p = make_from_one_line([edge + 1, edge], edge)
    box = (edge - 3, edge + 7, edge - 3, edge + 3)  # reach 2^62 - 1
    assert rank_table(p, *box).tolist() == _eval_table(p, *box)
    with pytest.raises(ResourceLimit, match=f"needs integers up to {2**62}, "
                       f"over the int64 limit {2**62}"):
        rank_table(p, edge - 3, edge + 8, edge - 3, edge + 3)
    with pytest.raises(ResourceLimit, match="int64 limit"):
        rank_table(make_shift(-(10**20)), 0, 2, 0, 2)
    _, _, c0, c1 = perm_box(make_shift(10**6))
    with pytest.raises(ResourceLimit, match=r"rank table of \d+ cells exceeds cap 40000000"):
        rank_table(make_shift(10**6), c0, c1, c0, c1)


def test_validate_clean_on_real_slipfaces(rng):
    for _ in range(20):
        assert sf_validate(sf_from_perm(zoo_perm(rng))) == []


def test_dual_is_inverse_slipface(rng):
    for _ in range(15):
        p = zoo_perm(rng)
        assert sf_equal(sf_dual(sf_from_perm(p)), sf_from_perm(inverse(p)))
        assert sf_equal(sf_dual(sf_dual(sf_from_perm(p))), sf_from_perm(p))


def test_round_trip_to_perm(rng):
    for _ in range(25):
        p = zoo_perm(rng)
        assert sf_to_perm(sf_from_perm(p)) == p


def test_submodularity_of_perm_slipfaces(rng):
    for _ in range(15):
        ok, cell = sf_is_submodular(sf_from_perm(zoo_perm(rng)))
        assert ok and cell is None


def test_pointwise_max_can_break_submodularity():
    # the pointwise max of two rank functions is still a slipface but
    # need not be submodular; hunt a witness among small pairs
    perms = sd_perms(3)
    found = False
    for p in perms:
        for q in perms:
            sp, sq = sf_from_perm(p), sf_from_perm(q)
            a0, a1, b0, b1 = -6, 9, -6, 9
            g = np.maximum(sf_eval_grid(sp, a0, a1, b0, b1),
                           sf_eval_grid(sq, a0, a1, b0, b1))
            dd = g[1:, :-1] - g[:-1, :-1] - g[1:, 1:] + g[:-1, 1:]
            if (dd < 0).any():
                found = True
    assert found


def test_ess_two_block():
    e = ess_set(sf_from_perm(make_gamma(3, 5)))
    assert [(p.a, p.b, p.value) for p in e.points] == [(1, 0, 5)]
    assert not e.periodic


def test_ess_longest_element():
    e = ess_set(sf_from_perm(make_from_one_line((3, 2, 1))))
    got = sorted((p.a, p.b, p.value) for p in e.points)
    assert got == [(2, 3, 1), (3, 2, 2)]


def test_ess_identity_empty():
    assert ess_set(sf_from_perm(identity())).points == ()
    assert ess_set(sf_from_perm(make_shift(7))).points == ()


def test_ess_periodic():
    e = ess_set(sf_from_perm(make_sigma_set(ResidueClass(0, 4))))
    assert e.periodic and e.period == 4
    pts = {(p.a, p.b) for p in e.points}
    assert (1, 1) in pts
    assert (5, 5) in pts


def test_ess_points_are_corners(rng):
    # at an essential point the function exceeds all three outer neighbors'
    # implied bounds: s(a,b) = s(a-1,b)+1 = s(a,b+1)+1, s(a+1,b) = s(a,b-1) = s(a,b)
    for _ in range(10):
        s = sf_from_perm(zoo_perm(rng))
        for p in ess_set(s).points:
            a, b, v = p.a, p.b, p.value
            assert sf_eval(s, a, b) == v > 0
            assert sf_eval(s, a - 1, b) == v - 1
            assert sf_eval(s, a, b + 1) == v - 1
            assert sf_eval(s, a + 1, b) == v
            assert sf_eval(s, a, b - 1) == v


def _check_leq_pair(sp, sq):
    ok_e, wit_e = sf_leq_ess(sp, sq)
    ok_g, wit_g = sf_leq_grid(sp, sq)
    assert ok_e == ok_g
    if not ok_e:
        # each path must hand back a genuine violation cell
        for a, b in (wit_e, wit_g):
            assert sf_eval(sp, a, b) > sf_eval(sq, a, b)


def test_leq_paths_agree_small(rng):
    perms = sd_perms(3)
    for p in perms:
        for q in perms:
            sp, sq = sf_from_perm(p), sf_from_perm(q)
            _check_leq_pair(sp, sq)
    for _ in range(60):
        p = zoo_perm(rng)
        q = zoo_perm_with_shift(rng, shift_of(p))
        _check_leq_pair(sf_from_perm(p), sf_from_perm(q))


def test_leq_across_shifts():
    assert sf_leq_ess(sf_from_perm(identity()), sf_from_perm(make_shift(1)))[0]
    assert not sf_leq_ess(sf_from_perm(identity()), sf_from_perm(make_shift(-1)))[0]


def test_star_agrees_with_greedy_small():
    from demaz.oracle import oracle_star_sd

    perms = sd_perms(3)
    for p in perms:
        for q in perms:
            got = sf_to_perm(sf_star(sf_from_perm(p), sf_from_perm(q)))
            assert got == oracle_star_sd(p, q, 3)


def test_adjunction_left(rng):
    # g = s tll dual(t) is the least solution of x star t >= s
    for _ in range(25):
        p, q = zoo_perm(rng), zoo_perm(rng)
        sp, sq = sf_from_perm(p), sf_from_perm(q)
        g = sf_tll(sp, sf_dual(sq))
        assert sf_leq_grid(sp, sf_star(g, sq))[0]
        c = sf_from_perm(zoo_perm(rng))
        lhs = sf_leq_grid(sp, sf_star(c, sq))[0]
        rhs = sf_leq_grid(g, c)[0]
        assert lhs == rhs


def test_adjunction_right(rng):
    for _ in range(25):
        p, q = zoo_perm(rng), zoo_perm(rng)
        sp, sq = sf_from_perm(p), sf_from_perm(q)
        g = sf_tlr(sf_dual(sp), sq)
        assert sf_leq_grid(sq, sf_star(sp, g))[0]
        c = sf_from_perm(zoo_perm(rng))
        assert sf_leq_grid(sq, sf_star(sp, c))[0] == sf_leq_grid(g, c)[0]


def test_duality_antihomomorphism(rng):
    for _ in range(20):
        s = sf_from_perm(zoo_perm(rng))
        t = sf_from_perm(zoo_perm(rng))
        assert sf_equal(sf_dual(sf_star(s, t)), sf_star(sf_dual(t), sf_dual(s)))
        assert sf_equal(sf_dual(sf_tll(s, t)), sf_tlr(sf_dual(t), sf_dual(s)))


def test_mixed_associativity(rng):
    for _ in range(15):
        s, t, u = (sf_from_perm(zoo_perm(rng)) for _ in range(3))
        assert sf_equal(sf_tll(sf_tll(s, t), u), sf_tll(s, sf_star(t, u)))
        assert sf_equal(sf_tlr(s, sf_tlr(t, u)), sf_tlr(sf_star(s, t), u))


def test_file_round_trip(rng):
    for i in range(10):
        s = sf_from_perm(zoo_perm(rng))
        for kind in ("slipface", "rankgrid"):
            assert sf_equal(read_slipface(write_slipface(s, kind)), s)


def test_file_rejects_garbage():
    cases = [
        "nonsense chi=0\n",
        "slipface chi=0 k=1 band=2 box=0..3x0..3\n1 2 3\n",
        "slipface chi=zz k=1 band=2 box=0..3x0..3\n",
    ]
    for text in cases:
        with pytest.raises(ParseError):
            read_slipface(text)


def test_to_perm_rejects_non_submodular(tmp_path):
    # tabulate the pointwise max of two incomparable rank functions
    p = make_from_one_line((2, 1))
    q = make_from_one_line((1, 3, 2))
    sp, sq = sf_from_perm(p), sf_from_perm(q)
    a0, a1, b0, b1 = -8, 10, -8, 10
    g = np.maximum(sf_eval_grid(sp, a0, a1, b0, b1),
                   sf_eval_grid(sq, a0, a1, b0, b1))
    from demaz import sf_from_rank_grid

    s = sf_from_rank_grid(g, 0, 4, a0, b0)
    with pytest.raises(NotSubmodular):
        sf_to_perm(s)


def test_star_chi_adds(rng):
    for _ in range(20):
        p, q = zoo_perm(rng), zoo_perm(rng)
        prod = sf_star(sf_from_perm(p), sf_from_perm(q))
        assert prod.chi == shift_of(p) + shift_of(q)
        assert sf_equal(prod, sf_from_perm(star(p, q)))
