"""The word-fold engine against the grid engine and the brute-force oracles.

Period-1 products have two implementations: the word fold of demaz.finitary,
which star/tll/tlr use, and the slipface grid engine, which serves every
period.  Both must give the same permutations; Bruhat comparison of the same
pairs, which reads rank tables on the left side's window, must give the grid
comparison's verdict and witness cell.
The inputs stress the shift factoring and the window arithmetic: large
shifts on either side, windows far from 0, unequal two-block shuffles.
Products of globally periodic operands have the affine fold as their second
implementation, tested the same way on coprime periods and large shifts.
"""

import random

import pytest

from conftest import rand_affine, sym, zoo_perm

from demaz import (
    InternalInconsistency,
    ResidueClass,
    ResourceLimit,
    bruhat_leq_witness,
    compose,
    inv_count,
    inverse,
    is_reduced_pair,
    make_affine,
    make_gamma,
    make_shift,
    make_sigma_set,
    reduce,
    sf_from_perm,
    sf_leq_ess,
    sf_star,
    sf_tll,
    sf_tlr,
    sf_to_perm,
    star,
    star_sigma,
    tll,
    tll_sigma,
    tlr,
    weak_left_leq,
)
from demaz import finitary, perm
from demaz.demazure import product_path
from demaz.oracle import (
    oracle_greedy_max,
    oracle_star_sd,
    oracle_star_word,
    oracle_stingy_min,
)

GRID = {"star": sf_star, "tll": sf_tll, "tlr": sf_tlr}
FAST = {"star": star, "tll": tll, "tlr": tlr}


def grid(kind, p, q):
    return sf_to_perm(GRID[kind](sf_from_perm(p), sf_from_perm(q)))


def grid_leq(p, q):
    return sf_leq_ess(sf_from_perm(p), sf_from_perm(q))


def assert_agree(p, q):
    assert p.period == q.period == 1
    for kind, fast in FAST.items():
        assert fast(p, q) == grid(kind, p, q), (kind, p, q)
    assert bruhat_leq_witness(p, q) == grid_leq(p, q), (p, q)
    assert bruhat_leq_witness(q, p) == grid_leq(q, p), (q, p)


def reduced_word(q):
    """A reduced word n1 n2 ... with q = sigma(n1) sigma(n2) ..., for a
    shift-0 period-1 q, by plain bubble sort of its window."""
    assert q.chi == 0
    line = list(q.vals)
    swaps = []
    changed = True
    while changed:
        changed = False
        for i in range(len(line) - 1):
            if line[i] > line[i + 1]:
                line[i], line[i + 1] = line[i + 1], line[i]
                swaps.append(q.lo + i)
                changed = True
    return swaps[::-1]


def test_zoo_finitary_members_agree(rng):
    pool = [p for p in (zoo_perm(rng) for _ in range(80)) if p.period == 1]
    assert len(pool) >= 20
    for p, q in zip(pool, pool[1:] + pool[:1]):
        assert_agree(p, q)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 13, 21, 30])
def test_random_sd_agree_with_grid_and_oracle_star_sd(d):
    rng = random.Random(d)
    for _ in range(2 if d > 20 else 4):
        p, q = sym(rng, d), sym(rng, d)
        assert_agree(p, q)
        assert star(p, q) == oracle_star_sd(p, q, d)


def test_extremal_oracles_s4_s5(rng):
    for d, trials in ((4, 25), (5, 6)):
        for _ in range(trials):
            p, q = sym(rng, d), sym(rng, d)
            assert star(p, q) == oracle_greedy_max(p, q, d)
            assert tll(p, q) == oracle_stingy_min(p, inverse(q), d)
            assert tlr(p, q) == inverse(oracle_stingy_min(inverse(q), p, d))


@pytest.mark.parametrize("off", [10**4, -(10**4) - 7])
def test_windows_far_from_zero(rng, off):
    for d, chi_p, chi_q in ((6, 0, 0), (9, 3, -2), (4, -5, 5)):
        p = sym(rng, d, off + rng.randint(-3, 3), chi_p)
        q = sym(rng, d, off + rng.randint(-3, 3), chi_q)
        assert_agree(p, q)


def test_far_apart_operands_against_word_and_sigma_oracles(rng):
    # the windows are 10^4 apart: the grid engine's box would exceed its cap
    for chi in (0, 7, -4):
        p = sym(rng, 6, 10**4, chi)
        q = sym(rng, 5, -3)
        assert star(p, q) == oracle_star_word(p, reduced_word(q))
        w = compose(make_shift(-chi), p)
        assert star(q, w) == oracle_star_word(q, reduced_word(w))
        members = [-2, 0, 4]
        sigma = make_sigma_set(members)
        assert star(p, sigma) == star_sigma(p, members)
        assert tll(p, sigma) == tll_sigma(p, members)
        assert tlr(p, q) == inverse(tll(inverse(q), inverse(p)))


@pytest.mark.parametrize("chi_p, chi_q", [(50, 0), (0, -50), (-50, 50), (23, -41)])
def test_large_shifts(rng, chi_p, chi_q):
    p, q = sym(rng, 4, chi=chi_p), sym(rng, 5, -2, chi_q)
    assert_agree(p, q)
    w = compose(make_shift(-chi_q), q)
    assert star(p, w) == oracle_star_word(p, reduced_word(w))


def test_far_witness_when_left_shift_is_larger(rng):
    p, q = sym(rng, 5, chi=3), sym(rng, 7, -4, chi=-2)
    ok, wit = bruhat_leq_witness(p, q)
    assert not ok and wit is not None
    assert (ok, wit) == grid_leq(p, q)


@pytest.mark.parametrize("m, n", [(0, 3), (4, 1), (2, 7), (6, 0), (3, 5)])
def test_unequal_two_block_shuffles(m, n):
    g = make_gamma(m, n)
    for h in (make_gamma(n, m + 1), make_gamma(1, 4), inverse(g)):
        assert_agree(g, h)
        assert_agree(h, g)


def test_finitary_operations_build_no_grid(rng):
    p, q = sym(rng, 12, chi=2), sym(rng, 10, -3, chi=-1)
    before = sf_from_perm.cache_info()
    for fast in FAST.values():
        fast(p, q)
    bruhat_leq_witness(p, q)
    after = sf_from_perm.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_d1000_smoke():
    rng = random.Random(1000)
    p, q = sym(rng, 1000), sym(rng, 1000)
    for fast in FAST.values():
        r = fast(p, q)
        assert r.period == 1 and r.chi == 0
    bruhat_leq_witness(p, q)
    g = star(p, q)
    w = reduce(p, q, g)
    assert is_reduced_pair(w.alpha1, w.beta1)
    # g = alpha1 beta1 is reduced: lengths add, Inv(beta1) lies in Inv(g)
    assert inv_count(g) == inv_count(w.alpha1) + inv_count(w.beta1)
    assert weak_left_leq(w.beta1, g) and not weak_left_leq(g, w.beta1)


def test_fold_certificates_fire(rng, monkeypatch):
    from demaz import InternalInconsistency, finitary

    p, q = sym(rng, 6), sym(rng, 6, chi=1)
    monkeypatch.setattr(finitary, "_inversions", lambda seq: 0)
    for fast in FAST.values():
        with pytest.raises(InternalInconsistency):
            fast(p, q)


def test_size_caps_apply_before_allocation(rng):
    from demaz import ResourceLimit

    far = sym(rng, 3, 2 * 10**6)
    with pytest.raises(ResourceLimit, match="fold window"):
        star(far, sym(rng, 3))
    wide = sym(rng, 7000)
    with pytest.raises(ResourceLimit, match="rank table"):
        bruhat_leq_witness(wide, wide)


# ---------------------------------------------------------------------------
# affine fold: globally periodic operands


def assert_affine_agree(p, q):
    assert product_path(p, q) == "affine", (p, q)
    for kind, fast in FAST.items():
        assert fast(p, q) == grid(kind, p, q), (kind, p, q)


def test_random_affines_agree_with_grid(rng):
    for _ in range(30):
        p = rand_affine(rng, rng.randint(2, 7), rng.randint(0, 3))
        q = rand_affine(rng, rng.randint(2, 7), rng.randint(0, 3))
        assert_affine_agree(p, q)


def test_coprime_and_transposition_family_pairs(rng):
    for _ in range(2):
        assert_affine_agree(rand_affine(rng, 7, 1), rand_affine(rng, 5, 1))
    for r in range(4):
        p, sig = rand_affine(rng, 7, 1), ResidueClass(r, 4)
        q = make_sigma_set(sig)
        assert_affine_agree(p, q)
        # the transposition paths build neither grid nor word
        assert star(p, q) == star_sigma(p, sig)
        assert tll(p, q) == tll_sigma(p, sig)


@pytest.mark.parametrize("chi", [50, -50, 17, -33])
def test_shifts_on_either_side(rng, chi):
    p = rand_affine(rng, rng.randint(2, 4), 2)
    q = rand_affine(rng, rng.randint(2, 4), 2)
    assert_affine_agree(compose(make_shift(chi), p), q)
    assert_affine_agree(compose(p, make_shift(-chi)), compose(q, make_shift(chi)))


def test_pure_shifts_against_affines(rng):
    for chi in (0, 3, -7, 50):
        p = rand_affine(rng, rng.randint(2, 6), 2)
        assert_affine_agree(make_shift(chi), p)
        assert_affine_agree(p, make_shift(chi))


def test_affine_length_is_the_inversion_count(rng):
    for _ in range(40):
        k = rng.randint(1, 7)
        p = compose(make_shift(rng.randint(-9, 9)), rand_affine(rng, k, 3))
        vals = [p(n) for n in range(k)]
        m = p.diff_bound
        brute = sum(
            p(i) > p(n) for i in range(k) for n in range(i + 1, i + 2 * m + 2)
        )
        assert finitary._affine_length(vals) == brute, p


def test_affine_certificates_fire(rng, monkeypatch):
    p = rand_affine(rng, 5, 2)
    q = inverse(compose(p, make_shift(2)))
    word, fold = finitary._affine_word, finitary._fold_word
    monkeypatch.setattr(finitary, "_affine_word", lambda u, n: word(u, n) + [0])
    for fast in FAST.values():
        with pytest.raises(InternalInconsistency, match="letters, the operand"):
            fast(p, q)
    monkeypatch.setattr(finitary, "_affine_word", word)
    # star keeping descents and tll keeping ascents
    wrong = lambda arr, w, ascents: fold(arr, w, not ascents)
    monkeypatch.setattr(finitary, "_fold_word", wrong)
    for fast in FAST.values():
        with pytest.raises(InternalInconsistency, match="the length went"):
            fast(p, q)


def test_affine_products_build_no_grid(rng):
    p = compose(make_shift(-15), rand_affine(rng, 7, 1))
    q = rand_affine(rng, 5, 1)
    before = sf_from_perm.cache_info()
    for fast in FAST.values():
        fast(p, q)
    after = sf_from_perm.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_affine_size_caps_apply_before_folding(rng, monkeypatch):
    def no_fold(*args):
        raise AssertionError("folded past the size cap")

    monkeypatch.setattr(finitary, "_affine_word", no_fold)
    p, q = rand_affine(rng, 89, 1), rand_affine(rng, 97, 1)
    for fast in FAST.values():
        with pytest.raises(ResourceLimit, match="affine fold of period 8633"):
            fast(p, q)
    p, q = rand_affine(rng, 7, 1), rand_affine(rng, 5, 1)
    monkeypatch.setattr(perm, "_max_window", 30)
    with pytest.raises(ResourceLimit, match="affine period 35 exceeds window cap"):
        star(p, q)
    monkeypatch.setattr(perm, "_max_window", perm.DEFAULT_MAX_WINDOW)
    # k^2 fits the cap, the word's letter bound 2km (m = 30) does not
    monkeypatch.setattr(finitary, "_GRID_CELL_CAP", 35 * 35)
    wide = make_affine([30, 1, 2, 3, -26], 5)
    with pytest.raises(ResourceLimit, match="period 35 and diff_bound 30"):
        tll(p, wide)


def test_pairs_with_a_non_affine_operand_take_the_grid(rng):
    a = rand_affine(rng, 3, 1)
    mixed = star(a, sym(rng, 4))  # periodic tails that differ: not affine
    assert not finitary.is_affine(mixed)
    for p, q in ((mixed, a), (a, mixed), (sym(rng, 4), a), (a, make_gamma(2, 1))):
        assert product_path(p, q) == "grid", (p, q)
    assert product_path(make_shift(3), a) == "affine"
    assert product_path(make_shift(3), sym(rng, 4)) == "finitary"
