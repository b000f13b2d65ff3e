"""Shared generators for the test suite.

The "zoo" samplers below draw from the families the library is built
around: finite symmetric-group embeddings, pure shifts, periodic affine
permutations of modulus 2 and 3, two-block permutations, and greedy
products thereof.  All of them have equal tails (both tails follow one
affine germ, ``has_equal_tails``); ``mixed_tails`` draws permutations whose
tails differ.  Every sampler takes an explicit random.Random so each test
is deterministic under its own seed.
"""

import itertools
import random

import pytest

from demaz import (
    compose,
    from_window,
    get_max_window,
    inverse,
    make_affine,
    make_from_one_line,
    make_gamma,
    make_shift,
    set_max_window,
    shift_of,
    star,
)


def pytest_addoption(parser):
    parser.addoption(
        "--extended",
        action="store_true",
        default=False,
        help="run the large exhaustive oracle comparisons",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "extended: large exhaustive comparisons, needs --extended"
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--extended"):
        return
    skip = pytest.mark.skip(reason="pass --extended to run")
    for item in items:
        if "extended" in item.keywords:
            item.add_marker(skip)


SEED = 0xD380AC


@pytest.fixture
def rng():
    return random.Random(SEED)


@pytest.fixture
def max_window():
    """``set_max_window`` for one test; the caller's cap is restored after."""
    old = get_max_window()
    yield set_max_window
    set_max_window(old)


def has_equal_tails(p):
    """Whether both tails follow the same affine germ: the displacement
    alpha(n) - n on the window's first period equals that on its last
    period, residue by residue.  Globally periodic permutations have equal
    tails, and so has every permutation of period 1: a bijection moves both
    of its tails by -chi."""
    k, v = p.period, p.vals
    if k == 1:
        return True
    end = len(v) - k
    # the entry of the last period in the residue class of j
    last = (end + (j - end) % k for j in range(k))
    return all(v[j] - j == v[i] - i for j, i in zip(range(k), last))


def sd_lines(d):
    return list(itertools.permutations(range(1, d + 1)))


def sd_perms(d):
    return [make_from_one_line(line) for line in sd_lines(d)]


def line_of(p, d):
    """One-line window of a finitary permutation supported on 1..d."""
    from demaz import apply

    return tuple(apply(p, i) for i in range(1, d + 1))


def rand_line(rng, d):
    line = list(range(1, d + 1))
    rng.shuffle(line)
    return tuple(line)


def rand_affine(rng, k, spread=2):
    res = list(range(k))
    rng.shuffle(res)
    vals = [r + k * rng.randint(-spread, spread) for r in res]
    return make_affine(vals, k)


def zoo_atom(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return make_from_one_line(rand_line(rng, rng.randint(2, 5)))
    if kind == 1:
        return make_shift(rng.randint(-3, 3))
    if kind == 2:
        return rand_affine(rng, rng.choice((2, 3)))
    return make_gamma(rng.randint(0, 4), rng.randint(0, 4))


def zoo_perm(rng):
    p = zoo_atom(rng)
    if rng.random() < 0.35:
        p = star(p, zoo_atom(rng))
    return p


def zoo_perm_with_shift(rng, chi):
    p = zoo_perm(rng)
    return compose(p, make_shift(chi - shift_of(p)))


def sym(rng, d, off=1, chi=0):
    """A random element of S_d on [off, off + d - 1], then shifted by chi."""
    line = [v + off - 1 for v in rand_line(rng, d)]
    p = make_from_one_line(line, off)
    return compose(make_shift(chi), p) if chi else p


def mixed_tails(rng):
    """A permutation whose two tails follow different germs: the identity
    below -k and a random block permutation of each [jk, jk + k) above k,
    like ep(k=2, lo=-2; -2 -1 1 0); then inverted or shifted at random."""
    k = rng.randint(2, 4)
    block = list(range(k))
    while block == sorted(block):
        rng.shuffle(block)
    p = from_window(k, -k, list(range(-k, 0)) + block)
    if rng.random() < 0.5:
        p = inverse(p)
    return compose(make_shift(rng.randint(-3, 3)), p)


def inversion_pairs(rng):
    """Operand pairs that stress inversion-set scans: zoo members, random S_d
    up to d = 40, periods 5 and 7 (lcm 35), unequal two-block shuffles, and
    windows near lo = +-10^4 with |chi| up to 50, each paired only with
    operands near the same window, plus partners that make pairs reduced
    or weak-below."""
    near = [zoo_perm(rng) for _ in range(24)]
    near += [sym(rng, d, rng.randint(-3, 3)) for d in (1, 2, 7, 19, 40)]
    near += [star(rand_affine(rng, k), zoo_atom(rng)) for k in (5, 7, 5, 7)]
    for m, n in ((0, 3), (4, 1), (2, 7), (6, 0)):
        near += [make_gamma(m, n), inverse(make_gamma(m, n))]
    rng.shuffle(near)

    def far(off, chi):
        # an identity line would leave a pure shift, whose window is at 0
        while True:
            p = sym(rng, rng.randint(3, 12), off + rng.randint(-5, 5), chi)
            if abs(p.lo - off) < 20:
                return p

    groups = [near]
    for off in (10**4, -(10**4) - 7):
        chis = (0, rng.randint(-50, 50), rng.randint(-50, 50), 50, -50)
        groups.append([far(off, chi) for chi in chis])
    pairs = []
    for g in groups:
        pairs += zip(g, g[1:] + g[:1])
        pairs += zip(g, g[2:])
        pairs += [(p, star(q, p)) for p, q in zip(g[::3], g[1::3])]
        pairs += [(p, p) for p in g[::5]]
    return pairs


def inversion_scan_pairs(rng):
    """inversion_pairs, plus mixed_tails against each other and against zoo
    members in both orders, and random S_d up to d = 120 near 0 and near
    +-10^4, each with partners that make the pair weak-below or reduced."""
    pairs = inversion_pairs(rng)
    for _ in range(10):
        m = mixed_tails(rng)
        for other in (mixed_tails(rng), zoo_perm(rng)):
            pairs += [(m, other), (other, m)]
    for d, off in ((120, 0), (60, 10**4), (120, 10**4), (60, -10**4), (120, -10**4)):
        near = off + rng.randint(-5, 5)
        p, q = [sym(rng, d, near, rng.randint(-50, 50)) for _ in "pq"]
        # p lies weak-below star(q, p), and star(p, q) q^-1 is reduced against q
        pairs += [(p, q), (p, star(q, p)), (compose(star(p, q), inverse(q)), q)]
    return pairs


def rand_sigma_fin(rng):
    """Random set of pairwise non-adjacent integers in a small window."""
    out = []
    for n in range(-6, 7):
        if rng.random() < 0.3 and (not out or out[-1] < n - 1):
            out.append(n)
    if not out:
        out = [rng.randint(-6, 6)]
    return out


def translated(p, off):
    """n -> p(n - off) + off: p with its window moved by off."""
    return compose(make_shift(-off), compose(p, make_shift(off)))
