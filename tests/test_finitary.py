"""The word-fold engine against the grid engine and the brute-force oracles.

Every product has two implementations: the affine word fold of
demaz.finitary, which star/tll/tlr use, and the slipface grid engine
(``grid_product``), the reference.  ``check_products(p, q)`` compares star,
tll and tlr of one pair with every reference that applies: the grid where
its box fits the caps, the S_d extremal oracles (d <= 5) or else
``oracle_star_sd``, ``oracle_star_word`` against a right operand of period
1 and shift 0, and ``star_sigma``/``tll_sigma`` against a transposition
family; for two period-1 operands, Bruhat comparison both ways against the
grid's verdict and witness cell.  A kind that no reference reaches is
checked by its mirror and adjoint identities alone, and reported.

``TABLE`` is the one table of inputs, grouped by the route the products
take.  Each entry is one test of ``check_products``, with a case per row
unless it holds one row without an id; each row names a family of pairs,
its seed, and the kinds that no reference independent of the fold reaches
on some pair (``unchecked``).  New families and references plug in there.

The other tests assert more than agreement: spies on the fold sizes and
on the grid, the certificates and size caps made to fire, associativity
across the routes, the factored grid against the unfactored one, and the
word generator on its own: its letters rebuild the inverse, each is a
descent, and wrap letters occur exactly off the symmetric-group case.
"""

import random
import sys

import pytest

from conftest import (
    SEED, has_equal_tails, mixed_tails, rand_affine, rand_line, sym, translated, zoo_perm,
)

from demaz import (
    InternalInconsistency, ResidueClass, ResourceLimit, bruhat_leq, bruhat_leq_witness,
    compose, from_window, inv_count, inverse, is_reduced_pair, make_affine,
    make_from_one_line, make_gamma, make_shift, make_sigma_set, parse_perm, reduce,
    sf_from_perm, sf_leq_ess, sf_star, sf_tll, sf_tlr, sf_to_perm, star, tll, tlr,
    weak_left_leq,
)
from demaz import demazure, finitary, perm, slipface
from demaz.demazure import grid_product
from demaz.oracle import (
    oracle_greedy_max, oracle_star_sd, oracle_star_word, oracle_stingy_min, star_sigma,
    tll_sigma,
)

FAST = {"star": star, "tll": tll, "tlr": tlr}
# kind(p, q) = inverse(MIRROR[kind](inverse(q), inverse(p)))
MIRROR = {"star": star, "tll": tlr, "tlr": tll}


def reduced_word(q):
    """A reduced word n1 n2 ... with q = sigma(n1) sigma(n2) ..., for a
    shift-0 period-1 q, by plain bubble sort of its window."""
    assert q.chi == 0
    line, swaps = list(q.vals), []
    for end in range(len(line) - 1, 0, -1):
        for i in range(end):
            if line[i] > line[i + 1]:
                line[i], line[i + 1] = line[i + 1], line[i]
                swaps.append(q.lo + i)
    return swaps[::-1]


def sd_size(p, q):
    """The least d with p and q in S_d: period 1, shift 0, and nothing
    moved outside [1, d]; None if there is none."""
    moved = []
    for f in (p, q):
        if f.period != 1 or f.chi != 0:
            return None
        moved += [n for n, v in enumerate(f.vals, f.lo) if v != n]
    return max(moved, default=1) if min(moved, default=1) >= 1 else None


def sigma_members(q):
    """The S with q = sigma_S, disjoint transpositions (n, n + 1): a list
    for period 1, a ResidueClass for one class of a larger period; None
    for any other q."""
    k = q.period
    span = range(q.lo - k - 1, q.hi + k + 2)
    if q.chi or any(abs(q(n) - n) > 1 or q(q(n)) != n for n in span):
        return None
    members = [n for n in span if q(n) == n + 1]
    if k > 1 and members:
        members = ResidueClass(members[0] % k, k)
    return members if make_sigma_set(members) == q else None


def check_products(p, q, kinds=tuple(FAST)):
    """star, tll and tlr of (p, q), or those named in kinds, against every
    reference that applies and fits the size caps.  Returns the names of
    the references that ran, by kind; a kind with none is checked by its
    mirror and adjoint identities alone."""
    got = {kind: FAST[kind](p, q) for kind in kinds}
    refs = [(kind, "grid", lambda kind=kind: grid_product(kind, p, q)) for kind in kinds]
    d = sd_size(p, q)
    if d is not None and d <= 5:
        refs += [("star", "greedy", lambda: oracle_greedy_max(p, q, d)),
                 ("tll", "stingy", lambda: oracle_stingy_min(p, inverse(q), d)),
                 ("tlr", "stingy", lambda: inverse(oracle_stingy_min(inverse(q), p, d)))]
    elif d is not None:
        refs.append(("star", "min-plus", lambda: oracle_star_sd(p, q, d)))
    if q.period == 1 and q.chi == 0:
        refs.append(("star", "word", lambda: oracle_star_word(p, reduced_word(q))))
    members = sigma_members(q)
    if members is not None:
        refs += [("star", "sigma", lambda: star_sigma(p, members)),
                 ("tll", "sigma", lambda: tll_sigma(p, members))]
    ran = {kind: [] for kind in kinds}
    for kind, name, ref in (r for r in refs if r[0] in got):
        try:
            want = ref()
        except ResourceLimit:  # its box or table exceeds a size cap
            continue
        assert got[kind] == want, (kind, name, p, q)
        ran[kind].append(name)
    if p.period == q.period == 1:
        for a, b in ((p, q), (q, p)):
            try:
                want = sf_leq_ess(sf_from_perm(a), sf_from_perm(b))
            except ResourceLimit:
                continue
            assert bruhat_leq_witness(a, b) == want, (a, b)
    for kind in kinds:
        if not ran[kind]:
            assert got[kind] == inverse(MIRROR[kind](inverse(q), inverse(p))), (kind, p, q)
    if "tll" in got and not ran["tll"]:
        assert bruhat_leq(p, star(got["tll"], inverse(q))), (p, q)
    if "tlr" in got and not ran["tlr"]:
        assert bruhat_leq(q, star(inverse(p), got["tlr"])), (p, q)
    return ran


# ---------------------------------------------------------------------------
# the families of input pairs; each takes a seeded random.Random


def both_orders(p, q):
    return [(p, q), (q, p)]


def factor_pairs(f, other):
    assert f.period == 1 < other.period
    return both_orders(f, other)


# period-1 pairs
def zoo_finitary_members(rng):
    pool = [p for p in (zoo_perm(rng) for _ in range(80)) if p.period == 1]
    assert len(pool) >= 20
    return zip(pool, pool[1:] + pool[:1])


def random_sd(rng, *sizes):
    for d in sizes:
        yield sym(rng, d), sym(rng, d)


def windows_far_from_zero(rng, off):
    for d, chi_p, chi_q in ((6, 0, 0), (9, 3, -2), (4, -5, 5)):
        p = sym(rng, d, off + rng.randint(-3, 3), chi_p)
        yield p, sym(rng, d, off + rng.randint(-3, 3), chi_q)


def far_apart(rng):
    # the windows are 10^4 apart: the grid's box would exceed its cap, and
    # the word and sigma oracles check star and tll(p, sigma) alone
    for chi in (0, 7, -4):
        p, q = sym(rng, 6, 10**4, chi), sym(rng, 5, -3)
        yield p, q
        yield q, compose(make_shift(-chi), p)
        yield p, make_sigma_set([-2, 0, 4])


def large_shifts(rng, chi_p, chi_q):
    p, q = sym(rng, 4, chi=chi_p), sym(rng, 5, -2, chi_q)
    return [(p, q), (p, compose(make_shift(-chi_q), q))]


def two_block_shuffles(rng, m, n):
    g = make_gamma(m, n)
    for h in (make_gamma(n, m + 1), make_gamma(1, 4), inverse(g)):
        yield from both_orders(g, h)


# globally periodic pairs
def random_affines(rng):
    for _ in range(30):
        p = rand_affine(rng, rng.randint(2, 7), rng.randint(0, 3))
        yield p, rand_affine(rng, rng.randint(2, 7), rng.randint(0, 3))


def coprime_and_transposition_families(rng):
    for _ in range(2):
        yield rand_affine(rng, 7, 1), rand_affine(rng, 5, 1)
    for r in range(4):
        yield rand_affine(rng, 7, 1), make_sigma_set(ResidueClass(r, 4))


def shifts_on_either_side(rng, chi):
    p = rand_affine(rng, rng.randint(2, 4), 2)
    q = rand_affine(rng, rng.randint(2, 4), 2)
    shift = make_shift(chi)
    return [(compose(shift, p), q), (compose(p, make_shift(-chi)), compose(q, shift))]


def pure_shifts_against_affines(rng):
    for chi in (0, 3, -7, 50):
        p = rand_affine(rng, rng.randint(2, 6), 2)
        yield from both_orders(make_shift(chi), p)


# germs and a finitary middle: operands with equal tails, not both globally
# periodic
def equal_tail_pool(rng):
    """Operands like the benchmark's zoo: zoo members, affines of period 2
    and 3 against S_d, star(affine, S_d), compose(S_d, affine) and shifted
    members."""
    pool = [zoo_perm(rng) for _ in range(10)]
    for k in (2, 3, 2):
        a, s = rand_affine(rng, k), sym(rng, rng.randint(2, 5), rng.randint(-3, 3))
        pool += [a, s, star(a, s), compose(s, a)]
    pool += [compose(make_shift(chi), p) for chi, p in zip((4, -6), pool[-2:])]
    return pool


def equal_tail_zoo_pairs(rng):
    pool = equal_tail_pool(rng)
    pairs = [(p, q) for p, q in zip(pool, pool[3:] + pool[:3])
             if not (perm.is_affine(p) and perm.is_affine(q) or p.period == q.period == 1)]
    assert len(pairs) >= 10
    return pairs


def coprime_periods_with_sd(rng):
    for r in range(3):
        a5, a7 = rand_affine(rng, 5, 1), rand_affine(rng, 7, 1)
        s = sym(rng, rng.randint(3, 5), rng.randint(-2, 2))
        yield star(a5, s), a7
        yield s, compose(a7, a5)
        # transposition families: diff_bound 1, so the lcm sets the margin
        sig5 = make_sigma_set(ResidueClass(r, 5))
        bent7 = star(make_sigma_set(ResidueClass(r + 1, 7)), sym(rng, 3, r - 1))
        yield from both_orders(sig5, bent7)


def equal_tail_large_shifts(rng, chi):
    a, s = rand_affine(rng, 3, 1), sym(rng, 4, rng.randint(-3, 3))
    return [(compose(make_shift(chi), star(a, s)), a), (s, compose(a, make_shift(-chi)))]


def equal_tail_windows_far_from_zero(rng, off):
    a = rand_affine(rng, 2, 1)
    s, t = sym(rng, 4, off), sym(rng, 5, off + 3, chi=2)
    return [(star(a, s), t), (t, compose(s, a))]


def large_diff_bound(rng):
    wide = make_affine([30, 1, 2, 3, -26], 5)
    s = sym(rng, 6, -2)
    return [(wide, s), (star(s, rand_affine(rng, 3, 3)), wide)]


SHIFTED_LEFT = [0, 10, 50, 200]


def shifted_pair(chi):
    """compose(shift(chi), star(A3, S)) against A3: equal tails, and a left
    operand whose diff bound grows with chi while its shift-0 factor stays."""
    a = make_affine([2, -3, 4], 3)
    return compose(make_shift(chi), star(a, make_from_one_line([3, 1, 4, 2]))), a


def counter_shifted_pair(chi):
    """compose(shift(chi), w) against A3, where w = compose(C, A3) and the
    cycle C moves 1 up by 2 chi: the left operand's diff bound is about chi
    and that of its shift-0 factor w about 2 chi."""
    a = make_affine([2, -3, 4], 3)
    n = 2 * chi + 1
    w = compose(make_from_one_line([n, *range(1, n)]), a)
    return compose(make_shift(chi), w), a


# germs and a finitary middle: a mixed-tail operand, whose germs differ
def mixed_tail_pairs(rng):
    for _ in range(12):
        m = mixed_tails(rng)
        for other in (mixed_tails(rng), m, zoo_perm(rng), rand_affine(rng, 3, 1)):
            yield from both_orders(m, other)


def inverted_and_shifted_mixed_tails(rng):
    for chi in (4, -5):
        m, n = mixed_tails(rng), mixed_tails(rng)
        yield inverse(m), compose(n, make_shift(chi))
        yield compose(make_shift(chi), m), inverse(n)
        a = rand_affine(rng, rng.choice((2, 3)), 2)
        yield compose(make_shift(chi), inverse(m)), a
        yield a, compose(m, make_shift(-chi))


# the identity on the left; on the right, adjacent swaps and a 3-cycle in
# every block of three
MIXED_GERMS = [
    from_window(2, -2, [-2, -1, 1, 0]),
    from_window(3, -3, [-3, -2, -1, 1, 2, 0]),
]


def sd_middles(rng, k):
    """S_40 and S_80 middles over the period-k germs of MIXED_GERMS."""
    m = MIXED_GERMS[k - 2]
    s, t = sym(rng, 40, -3), sym(rng, 40)
    p = compose(m, s)
    assert not has_equal_tails(p)
    s = sym(rng, 80)
    # star alone at S_80: the grid takes seconds per adjoint there
    pairs = [(p, t), (inverse(t), compose(make_shift(3), inverse(p)))]
    return pairs + [(compose(m, s), s, ["star"])]


def s80_middles(rng, k):
    m = MIXED_GERMS[k - 2]
    s = sym(rng, 80)
    return [(compose(m, s), s), (s, inverse(compose(m, s)))]


def affine_over_sym(n):
    """compose(aff(2; 1 0), s) and compose(aff(3; 2 0 1), s) for a random
    s in S_n: middles of periods 2 and 3 over one window of n entries."""
    s = sym(random.Random(n), n)
    return compose(make_affine([1, 0], 2), s), compose(make_affine([2, 0, 1], 3), s)


def germ_route_operand(rng):
    """Zoo members, mixed tails, affines of periods 2 to 7, and affine over
    S_d middles, of either tail kind."""
    kind = rng.randrange(7)
    if kind == 0:
        return zoo_perm(rng)
    if kind == 1:
        return mixed_tails(rng)
    if kind == 2:
        return rand_affine(rng, rng.randint(2, 5), rng.randint(0, 2))
    if kind == 3:
        return rand_affine(rng, rng.choice((5, 7)), 1)
    s = sym(rng, rng.randint(2, 8), rng.randint(-5, 5))
    if kind == 4:
        return compose(rand_affine(rng, rng.randint(2, 5), 1), s)
    if kind == 5:
        return star(rand_affine(rng, rng.choice((5, 7)), 1), s)
    return compose(mixed_tails(rng), s)


def moved(rng, p, off):
    """p shifted on either side by up to 50, or inverted, at random, then
    translated by off."""
    if rng.random() < 0.3:
        p = compose(make_shift(rng.randint(-50, 50)), p)
    if rng.random() < 0.2:
        p = compose(p, make_shift(rng.randint(-50, 50)))
    if rng.random() < 0.2:
        p = inverse(p)
    return translated(p, off)


def germ_route(rng):
    """Random pairs until 5000 products take the germ route: star with no
    period-1 operand, tll with none on the right, tlr with none on the left."""
    products = 0
    while products < 5000:
        off = rng.choice((0, 0, 300, -300))
        p = moved(rng, germ_route_operand(rng), off)
        q = moved(rng, germ_route_operand(rng), off if rng.random() < 0.8 else 0)
        yield p, q
        products += (p.period > 1 and q.period > 1) + (q.period > 1) + (p.period > 1)


# finitary factor: a period-1 word operand folds on its own window
def factor_zoo_against_sym(rng):
    pool = [p for p in (zoo_perm(rng) for _ in range(100)) if p.period > 1]
    assert len(pool) >= 12
    for other in pool[:12]:
        f = sym(rng, rng.randint(2, 6), rng.randint(-4, 4), rng.randint(-6, 6))
        yield from factor_pairs(f, other)


def factor_mixed_tails_against_sym(rng):
    for _ in range(6):
        m = mixed_tails(rng)
        f = sym(rng, rng.randint(2, 6), rng.randint(-4, 4), rng.randint(-3, 3))
        yield from factor_pairs(f, m)
        yield from factor_pairs(inverse(f), compose(make_shift(4), inverse(m)))
        yield from factor_pairs(compose(f, make_shift(-5)), compose(m, make_shift(2)))


def factor_s40_against_affines(rng, k):
    a, s = rand_affine(rng, k, 1), sym(rng, 40, -3, chi=2)
    return factor_pairs(s, a) + factor_pairs(inverse(s), star(a, sym(rng, 5, 2)))


def factor_windows_far_from_zero(rng, off):
    for chi in (0, 50, -50, rng.randint(-50, 50)):
        f = sym(rng, rng.randint(3, 12), off + rng.randint(-5, 5), chi)
        near = translated(star(rand_affine(rng, 3, 1), sym(rng, 4)), off)
        assert abs(near.lo - off) < 20
        # the grid conjugates the windows to 0, and skips the affine's
        yield from factor_pairs(f, rand_affine(rng, 5, 1))
        yield from factor_pairs(f, near)
        yield from factor_pairs(f, translated(MIXED_GERMS[1], off))
    yield from factor_pairs(sym(rng, 6, off, 50), translated(MIXED_GERMS[0], off))


def factor_s80_against_affines_and_mixed_tails(rng, k):
    s = sym(rng, 80, -3, chi=1)
    pairs = factor_pairs(s, rand_affine(rng, k, 1))
    return pairs + factor_pairs(inverse(s), compose(MIXED_GERMS[k % 2], sym(rng, 10)))


# ---------------------------------------------------------------------------
# the table of input families, each entry a test (see the module docstring)


def row(family, *args, seed=SEED, id=None, unchecked="", extended=False):
    pairs = lambda: family(random.Random(seed), *args)
    marks = pytest.mark.extended if extended else ()
    return pytest.param(pairs, unchecked, id=None if id is None else str(id), marks=marks)


def agreement_test(rows):
    def test(pairs, unchecked):
        ran = [check_products(p, q, *kinds) for p, q, *kinds in pairs()]
        assert {kind for refs in ran for kind in refs if not refs[kind]} == set(unchecked.split())
    if len(rows) > 1 or rows[0].id is not None:
        return pytest.mark.parametrize("pairs, unchecked", rows)(test)
    plain = lambda: test(*rows[0].values)
    plain.pytestmark = list(rows[0].marks)
    return plain


FAR = (10**4, -(10**4) - 7)
TABLE = {
    # period-1 pairs
    "test_zoo_finitary_members_agree": [row(zoo_finitary_members)],
    "test_random_sd_agree_with_grid_and_oracle_star_sd": [
        row(random_sd, *[d] * (2 if d > 20 else 4), seed=d, id=d)
        for d in (1, 2, 3, 5, 8, 13, 21, 30)],
    "test_extremal_oracles_s4_s5": [row(random_sd, *[4] * 25, *[5] * 6)],
    "test_windows_far_from_zero": [row(windows_far_from_zero, off, id=off) for off in FAR],
    "test_far_apart_operands_against_word_and_sigma_oracles": [row(far_apart, unchecked="tll tlr")],
    "test_large_shifts": [row(large_shifts, a, b, id=f"{a}-{b}")
                          for a, b in ((50, 0), (0, -50), (-50, 50), (23, -41))],
    "test_unequal_two_block_shuffles": [row(two_block_shuffles, m, n, id=f"{m}-{n}")
                                        for m, n in ((0, 3), (4, 1), (2, 7), (6, 0), (3, 5))],
    # globally periodic pairs
    "test_random_affines_agree_with_grid": [row(random_affines)],
    "test_coprime_and_transposition_family_pairs": [row(coprime_and_transposition_families)],
    "test_shifts_on_either_side": [
        row(shifts_on_either_side, chi, id=chi) for chi in (50, -50, 17, -33)],
    "test_pure_shifts_against_affines": [row(pure_shifts_against_affines)],
    # germs and a finitary middle, equal tails
    "test_equal_tail_zoo_pairs_agree_with_grid": [row(equal_tail_zoo_pairs)],
    "test_equal_tail_coprime_periods_with_sd": [row(coprime_periods_with_sd)],
    "test_equal_tail_large_shifts": [
        row(equal_tail_large_shifts, chi, id=chi) for chi in (50, -50, 31)],
    "test_equal_tail_windows_far_from_zero": [
        row(equal_tail_windows_far_from_zero, off, id=off) for off in (10**4, -(10**4) - 5)],
    "test_equal_tail_large_diff_bound": [row(large_diff_bound)],
    "test_shifted_equal_tail_pairs_agree_with_grid": [
        row(lambda rng, chi: [shifted_pair(chi)], chi, id=chi) for chi in SHIFTED_LEFT],
    "test_counter_shifted_pairs_agree_with_grid": [
        row(lambda rng, chi: [counter_shifted_pair(chi)], chi, id=chi) for chi in (3, 10)],
    # germs and a finitary middle, mixed tails
    "test_mixed_tail_pairs_agree_with_grid": [row(mixed_tail_pairs)],
    "test_inverted_and_shifted_mixed_tails_agree_with_grid": [
        row(inverted_and_shifted_mixed_tails)],
    "test_sd_middles_over_periodic_germs_agree_with_grid": [
        row(sd_middles, k, seed=k, id=f"period-{k}") for k in (2, 3)],
    "test_s80_middles_over_periodic_germs_agree_with_grid": [
        row(s80_middles, k, seed=80 + k, id=f"period-{k}", extended=True) for k in (2, 3)],
    "test_affine_over_sym_middles_agree_with_grid": [row(lambda rng: [affine_over_sym(40)])],
    "test_affine_over_s100_middles_agree_with_grid": [
        row(lambda rng: [affine_over_sym(100)], extended=True)],
    "test_germ_route_against_the_grid": [row(germ_route, seed=18, extended=True)],
    # finitary factors
    "test_finitary_factor_zoo_against_sym": [row(factor_zoo_against_sym)],
    "test_finitary_factor_mixed_tails_against_sym": [row(factor_mixed_tails_against_sym)],
    "test_finitary_factor_s40_against_affines": [
        row(factor_s40_against_affines, k, seed=40 + k, id=k) for k in (2, 3, 5, 7)],
    "test_finitary_factor_windows_far_from_zero": [
        row(factor_windows_far_from_zero, off, id=off) for off in FAR],
    "test_s80_finitary_factor_against_affines_and_mixed_tails": [
        row(factor_s80_against_affines_and_mixed_tails, k, seed=80 + k, id=k, extended=True)
        for k in (2, 3, 5, 7)],
}
globals().update((name, agreement_test(rows)) for name, rows in TABLE.items())


# ---------------------------------------------------------------------------
# period-1 pairs


def test_far_witness_when_left_shift_is_larger(rng):
    p, q = sym(rng, 5, chi=3), sym(rng, 7, -4, chi=-2)
    ok, wit = bruhat_leq_witness(p, q)
    assert not ok and wit is not None
    assert (ok, wit) == sf_leq_ess(sf_from_perm(p), sf_from_perm(q))


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
    with pytest.raises(ResourceLimit, match=r"product window of \d+ entries exceeds cap"):
        star(far, make_sigma_set([1]))
    # a globally periodic operand, the identity drawn here, adds no window
    e = sym(rng, 3)
    assert e == make_shift(0)
    assert star(far, e) == far
    # equal sides answer without a scan, so the comparison takes two
    wide, other = sym(rng, 7000), sym(rng, 7000)
    assert wide != other
    with pytest.raises(ResourceLimit, match="of 49014001 cells exceeds cap 40000000"):
        bruhat_leq_witness(wide, other)


# ---------------------------------------------------------------------------
# affine fold: globally periodic operands


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


def shi_length(vals):
    """Shi's formula, the sum over 0 <= i < j < k of |floor((w(j) - w(i)) /
    k)|: the reference length of the k-periodic w with period vals."""
    k = len(vals)
    return sum(
        abs((vals[j] - vals[i]) // k) for i in range(k) for j in range(i + 1, k)
    )


def random_period(rng, k, spread):
    """One period of a k-periodic permutation: residues shuffled, each lifted
    by up to spread periods, all moved by one offset (any shift)."""
    res = list(range(k))
    rng.shuffle(res)
    offset = rng.randint(-10**9, 10**9)
    return [r + k * rng.randint(-spread, spread) + offset for r in res]


def test_affine_length_matches_shis_formula(rng):
    for _ in range(400):
        k = rng.randint(1, 40)
        vals = random_period(rng, k, rng.choice((0, 1, 3, 100, 10**6)))
        assert finitary._affine_length(vals) == shi_length(vals), vals
    for _ in range(20):
        vals = random_period(rng, 2, 10**7)
        assert finitary._affine_length(vals) == shi_length(vals), vals
    # past 4096 entries _inversions counts with a Fenwick tree
    vals = random_period(rng, 5000, 2)
    assert finitary._affine_length(vals) == shi_length(vals)


def test_interval_shortcut_matches_the_general_sum(rng, monkeypatch):
    # a period onto [c, c + k): its inversion count, and the general sum,
    # whose two extra terms are then equal
    periods = []
    for _ in range(100):
        c, k = rng.randint(-10**6, 10**6), rng.randint(1, 40)
        vals = list(range(c, c + k))
        rng.shuffle(vals)
        periods.append(vals)
    shortcut = [finitary._affine_length(v) for v in periods]
    assert shortcut == [perm._inversions(v) for v in periods]
    monkeypatch.setattr(finitary, "_interval", lambda vals: False)
    assert [finitary._affine_length(v) for v in periods] == shortcut


def shift_free_period(p):
    """One period [0, k) of p with its shift factored out, as the fold
    takes it."""
    return [p(n) + p.chi for n in range(p.period)]


def crossing_affines():
    """aff(2; 3 -2), its Demazure powers, and the powers of aff(3; 5 -2 0):
    an inversion crosses every cut n | n + 1, so their words need wrap
    letters."""
    a, b = make_affine([3, -2], 2), make_affine([5, -2, 0], 3)
    out = [a, b]
    for _ in range(3):
        out += [star(out[-2], a), compose(out[-1], b)]
    return out


def test_affine_word_spells_the_inverse_by_descents(rng):
    crossing = crossing_affines()
    elements = list(crossing)
    for _ in range(60):
        k = rng.randint(2, 7)
        elements.append(rand_affine(rng, k, rng.randint(0, 30 // k)))
    for p in elements:
        u = shift_free_period(p)
        k = len(u)
        word = finitary._affine_word(list(u), 10**9)
        assert len(word) == finitary._affine_length(u), p
        # a wrap letter occurs exactly when the period does not map onto
        # an interval
        assert (k - 1 in word) != finitary._interval(u), (p, word)
        assert p not in crossing or k - 1 in word, (p, word)
        # replaying the word on u swaps a descent every time and ends at
        # the identity; on the identity it builds u^-1
        w, e = list(u), list(range(k))
        for j in word:
            right = w[0] + k if j == k - 1 else w[j + 1]
            assert w[j] > right, (p, word)
            for arr in (w, e):
                if j < k - 1:
                    arr[j], arr[j + 1] = arr[j + 1], arr[j]
                else:
                    arr[0], arr[j] = arr[j] - k, arr[0] + k
        assert w == list(range(k)), p
        assert e == finitary._period_inverse(u), p


def test_symmetric_group_words_take_no_wrap_letter(rng):
    for d in (1, 2, 5, 12, 40):
        u = [a - 1 for a in rand_line(rng, d)]
        word = finitary._affine_word(list(u), 10**9)
        assert d - 1 not in word
        assert len(word) == finitary._affine_length(u) == perm._inversions(u)


def test_affine_certificates_fire(rng, monkeypatch):
    p = rand_affine(rng, 5, 2)
    q = inverse(compose(p, make_shift(2)))
    # and finitary factors: q of period 1 for star and tll, p for tlr
    f = sym(rng, 6, 1, chi=3)
    cases = [(fast, p, q) for fast in FAST.values()]
    cases += [(star, p, f), (tll, p, f), (star, f, q), (tlr, f, q)]
    word, fold = finitary._affine_word, finitary._fold_word
    monkeypatch.setattr(finitary, "_affine_word", lambda u, n: word(u, n) + [0])
    for fast, a, b in cases:
        with pytest.raises(InternalInconsistency, match="letters, the operand"):
            fast(a, b)
    monkeypatch.setattr(finitary, "_affine_word", word)
    # star keeping descents and tll keeping ascents
    wrong = lambda arr, w, ascents: fold(arr, w, not ascents)
    monkeypatch.setattr(finitary, "_fold_word", wrong)
    for fast, a, b in cases:
        with pytest.raises(InternalInconsistency, match="the length went"):
            fast(a, b)


def test_affine_products_build_no_grid(rng):
    p = compose(make_shift(-15), rand_affine(rng, 7, 1))
    q = rand_affine(rng, 5, 1)
    before = sf_from_perm.cache_info()
    for fast in FAST.values():
        fast(p, q)
    after = sf_from_perm.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_affine_size_caps_apply_before_folding(rng, monkeypatch, max_window):
    # the period 8633 = 89 * 97 is far under the window cap, and the words,
    # about 4 * 10^5 letters, far under the cell cap: all three fold, and
    # star agrees with its mirror, which folds the other operand's word
    p, q = rand_affine(rng, 89, 1), rand_affine(rng, 97, 1)
    for fast in FAST.values():
        assert fast(p, q).period == 8633
    assert star(p, q) == inverse(star(inverse(q), inverse(p)))

    def no_fold(*args):
        raise AssertionError("folded past the size cap")

    monkeypatch.setattr(finitary, "_affine_word", no_fold)
    p, q = rand_affine(rng, 7, 1), rand_affine(rng, 5, 1)
    max_window(30)
    with pytest.raises(ResourceLimit, match="germ period of 35 entries exceeds cap 30"):
        star(p, q)
    max_window(perm.DEFAULT_MAX_WINDOW)
    # the word of q on the common period [0, 35), one letter over the cap
    letters = finitary._affine_length(perm._images(q.period, q.lo, q.vals, 0, 34))
    monkeypatch.setattr(perm, "_GRID_CELL_CAP", letters - 1)
    refused = f"affine fold word of {letters} cells exceeds cap {letters - 1}"
    for fast in (star, tll):
        with pytest.raises(ResourceLimit, match=refused):
            fast(p, q)


def test_has_equal_tails_classifies_the_operands(rng):
    a = rand_affine(rng, 3, 1)
    s = sym(rng, 4)
    bent = star(a, s)  # equal tails, but not globally periodic
    assert has_equal_tails(bent) and not perm.is_affine(bent)
    for p in (a, s, bent, make_shift(3), make_gamma(2, 1), compose(s, a)):
        assert has_equal_tails(p), p
    mixed = from_window(2, -2, [-2, -1, 1, 0])
    assert not has_equal_tails(mixed)
    for _ in range(20):
        m = mixed_tails(rng)
        assert not has_equal_tails(m), m
        # the germs: its first and last periods repeated
        k = m.period
        left = from_window(k, m.lo, m.vals[:k])
        right = from_window(k, m.hi - k + 1, m.vals[-k:])
        assert perm.is_affine(left) and perm.is_affine(right)
        assert left != right and left.chi == right.chi == m.chi, m


# ---------------------------------------------------------------------------
# germs and a finitary middle: operands with equal tails, not both globally
# periodic


def test_middle_fold_ignores_the_shifts(monkeypatch):
    sizes = []
    fold = finitary._fold_kind

    def spy(kind, x, v):
        sizes.append(len(x))
        return fold(kind, x, v)

    monkeypatch.setattr(finitary, "_fold_kind", spy)
    for chi in SHIFTED_LEFT:
        p, a = shifted_pair(chi)
        for fast in FAST.values():
            sizes.clear()
            fast(p, a)
            # the first fold is the germs (equal tails: one pair), the
            # second the finitary middle
            assert sizes == [3, sizes[1]] and sizes[1] > 3, (chi, sizes)
            if chi == 0:
                m0 = sizes[1]
            assert sizes[1] == m0, (chi, sizes, m0)


def test_counter_shifted_pairs_fold_their_shift_0_factor(monkeypatch):
    sizes = []
    fold = finitary._fold_kind

    def spy(kind, x, v):
        sizes.append(len(x))
        return fold(kind, x, v)

    monkeypatch.setattr(finitary, "_fold_kind", spy)
    # the shift-0 factor w has about twice the diff bound of p: both fold
    # the germs on 3 entries and w's truncation on 6656
    p, a = counter_shifted_pair(300)
    w = compose(make_shift(-300), p)
    assert (p.diff_bound, w.diff_bound) == (305, 602)
    for fast in FAST.values():
        sizes.clear()
        r = fast(w, a)
        assert sizes == [3, 6656], sizes
        assert fast(p, a) == compose(make_shift(300), r)
    # the certificate of reduce holds for the product of w
    reduce(w, a, star(w, a))


def test_associativity_across_engines(rng):
    # mixed-tail operands fold two germ pairs, equal-tail ones one, so each
    # kind of product feeds the other
    equal = [rand_affine(rng, 2, 1), star(rand_affine(rng, 3, 1), sym(rng, 3))]
    equal += [sym(rng, 3, -1), make_gamma(1, 2)]
    for _ in range(8):
        ops = [rng.choice(equal), mixed_tails(rng), rng.choice(equal)]
        rng.shuffle(ops)
        a, b, c = ops
        assert star(star(a, b), c) == star(a, star(b, c)), (a, b, c)


def test_products_of_a_zoo_pass_build_no_grid(rng, monkeypatch):
    calls = []
    for name, mod in list(sys.modules.items()):
        if name == "demaz" or name.startswith("demaz."):
            for fn in ("grid_product", "sf_from_perm"):
                if hasattr(mod, fn):
                    f = getattr(mod, fn)
                    spy = lambda *a, _f=f, _n=fn: calls.append(_n) or _f(*a)
                    monkeypatch.setattr(mod, fn, spy)
    pool = equal_tail_pool(rng)
    pool += [mixed_tails(rng) for _ in range(6)]
    rng.shuffle(pool)
    for p, q in zip(pool, pool[5:] + pool[:5]):
        for fast in FAST.values():
            fast(p, q)
        reduce(p, q, star(p, q))
    assert calls == []
    demazure.grid_product("star", pool[0], pool[1])  # the spies see the grid
    assert "grid_product" in calls and "sf_from_perm" in calls


def test_equal_tail_germ_certificates_fire(rng, monkeypatch):
    # the margin is proven, not tight: with X = B + K the first and last K
    # entries of the middle follow the germ products; read from the windows
    # themselves (X = 0), this pair of coprime periods leaves them
    p = make_sigma_set(ResidueClass(0, 5))
    q = star(make_sigma_set(ResidueClass(1, 7)), sym(rng, 3, -1))
    right = star(p, q)
    monkeypatch.setattr(finitary, "_germ_margin", lambda b, k: 0)
    with pytest.raises(InternalInconsistency, match="leaves the germ product at"):
        star(p, q)
    monkeypatch.undo()
    word = finitary._affine_word
    monkeypatch.setattr(finitary, "_affine_word", lambda u, n: word(u, n)[:-1])
    with pytest.raises(InternalInconsistency, match="letters, the operand"):
        star(p, q)
    monkeypatch.undo()
    assert star(p, q) == right


def test_mixed_tail_germ_certificate_fires(monkeypatch):
    # a mixed-tail operand: its two germs differ, and X = 0 leaves the germ
    # product on the side where they meet the other operand's
    p, q = from_window(2, 2, [2, 3, 5, 4]), make_affine([-1, 2], 2)
    right = star(p, q)
    monkeypatch.setattr(finitary, "_germ_margin", lambda b, k: 0)
    with pytest.raises(InternalInconsistency, match="leaves the germ product at"):
        star(p, q)
    monkeypatch.undo()
    assert star(p, q) == right
    assert right == grid_product("star", p, q)


def test_germ_size_caps_apply_before_folding(rng, monkeypatch, max_window):
    def no_fold(*args):
        raise AssertionError("folded past the size cap")

    # the germs fold on the lcm 35 of the periods, capped and folded before
    # the finitary middle
    p, q = star(rand_affine(rng, 7, 1), sym(rng, 4)), rand_affine(rng, 5, 1)
    monkeypatch.setattr(finitary, "_affine_word", no_fold)
    max_window(30)
    for fast in FAST.values():
        with pytest.raises(ResourceLimit, match="germ period of 35 entries exceeds cap 30"):
            fast(p, q)
    max_window(perm.DEFAULT_MAX_WINDOW)
    # tlr folds the word of the left germ of p^-1 first: p's left germ, a
    # period of 7 repeated on [0, 35), has as many letters, one over the cap
    germ = perm._images(p.period, p.lo, p.vals[: p.period], 0, 34)
    letters = finitary._affine_length([v + p.chi for v in germ])
    monkeypatch.setattr(perm, "_GRID_CELL_CAP", letters - 1)
    with pytest.raises(
        ResourceLimit, match=f"affine fold word of {letters} cells exceeds cap {letters - 1}"
    ):
        tlr(p, q)


def test_affine_fold_checks_both_operands_before_numpy(monkeypatch):
    # huge has length about 10^20; s swaps 0 and 1 in every period
    huge, s = make_affine([0, 10**20 + 1], 2), make_affine([1, 0], 2)
    # as the left operand of star and tll, huge is not folded as a word:
    # huge(0) < huge(1), so star keeps the letter and tll drops it
    assert star(huge, s) == compose(huge, s)
    assert tll(huge, s) == huge

    def no_fold(*args):
        raise AssertionError("spelled a word past the cell cap")

    monkeypatch.setattr(finitary, "_affine_word", no_fold)
    # tlr folds the word of huge^-1, and tll(shift, huge) that of huge
    for fast, p, q in ((tlr, huge, s), (tll, make_shift(1), huge)):
        with pytest.raises(ResourceLimit, match=r"affine fold word of \d{20,} cells exceeds cap"):
            fast(p, q)
    # star and tlr fold a period-1 left operand on its own window: a shift
    # has none, so nothing is folded
    for fast in (star, tlr):
        assert fast(make_shift(1), huge) == from_window(2, 0, [-1, 10**20])


# ---------------------------------------------------------------------------
# germs and a finitary middle: a mixed-tail operand, whose germs differ


def test_mixed_tail_window_2000_builds_no_grid(monkeypatch):
    def no_grid(*args):
        raise AssertionError("built a grid")

    monkeypatch.setattr(demazure, "grid_product", no_grid)
    # the grid engine loads where grid_product runs; the spy sits there
    monkeypatch.setattr(slipface, "sf_from_perm", no_grid)
    with pytest.raises(AssertionError, match="built a grid"):
        grid_product("star", MIXED_GERMS[0], make_shift(0))
    rng = random.Random(2000)
    m, s = MIXED_GERMS[0], sym(rng, 2000)
    r = star(compose(m, s), s)
    # its tails are the germ products: m's germs against the identity
    assert r.period == 2 and r.chi == 0 and not has_equal_tails(r)
    assert r.vals[:2] == (r.lo, r.lo + 1)


def test_globally_periodic_operands_add_no_window():
    # the identity's canonical window sits at 0 and m's near 10^4: only m's
    # is truncated, and shift(2) in the identity's place answers alike
    m = parse_perm("ep(k=3, lo=9997; 9997 9998 9999 10001 10002 10000)")
    e = make_shift(0)
    assert tll(e, m) == tlr(m, e) == from_window(1, 0, [0])
    for a in (e, make_shift(2), make_affine([-1, 2], 2)):
        for x, y in both_orders(a, m):
            assert all(check_products(x, y).values())


@pytest.mark.parametrize("n", [800, 1600])
def test_affine_over_sym_middles_answer_within_the_caps(n):
    a, b = affine_over_sym(n)
    results = [fast(a, b) for fast in FAST.values()]
    assert all(r.period == 6 and r.chi == a.chi + b.chi for r in results)
    if n == 800:
        # reduce re-derives the product from tll and tlr and certifies it
        reduce(a, b, results[0])


def test_closed_windows_are_capped_before_they_are_built(rng, monkeypatch, max_window):
    def no_fold(*args):
        raise AssertionError("folded past the window cap")

    # the truncations, closed by the identity, span the windows, 2B + K more
    # on each side, and the d + 1 entries of each gap
    m = compose(MIXED_GERMS[0], sym(rng, 30))
    bent = parse_perm("ep(k=3, lo=-2; -6 1 2 5 -3 4 0 7 8)")
    monkeypatch.setattr(finitary, "_fold_kind", no_fold)
    max_window(60)
    # period-2 partners: a period-1 one is a finitary factor of star and tll
    a = make_affine([-1, 2], 2)
    refused = r"truncated window of \d+ entries exceeds cap 60"
    for p, q in ((m, a), (bent, a), (a, bent)):
        for fast in FAST.values():
            with pytest.raises(ResourceLimit, match=refused):
                fast(p, q)


def test_factored_grid_equals_the_unfactored_grid(rng):
    grid = {"star": sf_star, "tll": sf_tll, "tlr": sf_tlr}
    pairs = []
    while len(pairs) < 12:
        p, q = zoo_perm(rng), zoo_perm(rng)
        if max(abs(p.chi), abs(q.chi)) <= 5 and (p.chi or q.chi):
            pairs.append((p, q, FAST))
    # |chi| = 50, where the unfactored boxes grow with the shift (star alone,
    # to bound the time), and two windows near +10^4, neither globally
    # periodic, which grid_product conjugates to 0
    p = compose(make_shift(50), rand_affine(rng, 3, 2))
    pairs.append((p, rand_affine(rng, 4, 2), ["star"]))
    p = star(rand_affine(rng, 2, 1), sym(rng, 4, 10**4))
    pairs.append((p, sym(rng, 5, 10**4 + 3, chi=2), FAST))
    for p, q, kinds in pairs:
        for kind in kinds:
            unfactored = sf_to_perm(grid[kind](sf_from_perm(p), sf_from_perm(q)))
            assert grid_product(kind, p, q) == unfactored, (kind, p, q)


# ---------------------------------------------------------------------------
# finitary factor: a period-1 word operand folds on its own window


def test_finitary_factors_skip_the_germ_folds(monkeypatch):
    calls = []
    route = finitary._germ_product
    spy = lambda *a: calls.append(a[0]) or route(*a)
    monkeypatch.setattr(finitary, "_germ_product", spy)
    rng = random.Random(2000)
    m, s = MIXED_GERMS[0], sym(rng, 2000)
    star(compose(m, s), s)
    a, f = parse_perm("aff(3; 2 -3 4)"), parse_perm("sym(29; 31 29 32 30)")
    for fast, p, q in ((star, a, f), (star, f, a), (tll, a, f), (tlr, f, a)):
        fast(p, q)
    assert calls == []
    # tll folds q, tlr p^-1: a period-1 operand on the other side has no
    # identity of its own, and the pair takes the germ folds
    tll(f, a)
    tlr(a, f)
    assert calls == ["tll", "tlr"]
