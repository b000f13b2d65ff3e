"""Seeded inputs of the four workloads.

Every input is a canonical ``ep(...)`` string (or an argv list of them for
the CLI), so the library receives only parsed text and two commits run
identical work for one seed.  A workload yields groups of ops; an op is
(kind, args, checked).  In args, STAR stands for the output of the group's
star op, so ``reduce(p, q, star(p, q))`` needs no extra product at setup.
"""

from __future__ import annotations

import os
import random

from demaz import (
    compose,
    format_perm,
    make_affine,
    make_from_one_line,
    make_gamma,
    make_shift,
    make_sigma_set,
    parse_perm,
    ResidueClass,
    sf_from_perm,
    star,
    write_slipface,
)

STAR = "@star"


def _line(rng, d):
    line = list(range(1, d + 1))
    rng.shuffle(line)
    return line


def sd_ep(line) -> str:
    """Canonical ep string of the permutation acting as `line` on [1, d].

    Computed without the library, so finitary-large inputs cost nothing to
    make: the canonical window runs from the first to one past the last n
    with alpha(n + 1) != alpha(n) + 1.
    """
    d = len(line)
    alpha = lambda n: line[n - 1] if 1 <= n <= d else n
    dev = [n for n in range(0, d + 1) if alpha(n + 1) != alpha(n) + 1]
    if not dev:
        return "ep(k=1, lo=0; 0)"
    lo, hi = dev[0], dev[-1] + 1
    return f"ep(k=1, lo={lo}; " + " ".join(str(alpha(n)) for n in range(lo, hi + 1)) + ")"


def _affine(rng, k, spread):
    res = list(range(k))
    rng.shuffle(res)
    return make_affine([r + k * rng.randint(-spread, spread) for r in res], k)


def _zoo_atom(rng, kind, j):
    """An atom of the test-suite zoo; j fixes its shape so that every seed
    draws the same mix of sizes, and rng only fills in values."""
    if kind == 0:
        return make_from_one_line(_line(rng, 2 + j % 4))
    if kind == 1:
        return make_shift(j % 7 - 3)
    if kind == 2:
        return _affine(rng, 2 + j % 2, 2)
    return make_gamma(j % 5, j // 5 % 5)


class Workload:
    name = ""
    # the latency percentile reported as latency_tail_ms; fixed per
    # workload so it names the same quantile on every run and commit,
    # chosen so that at least 10 samples lie beyond it in a run
    tail_pct = 99.0
    # when set, the loop runs whole passes of this many groups and checks
    # its deadline only between passes, so every run times the same
    # multiset of ops however far the clock lets it get
    pass_groups = 0

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir

    def groups(self):
        i = 0
        while True:
            yield self.group(i, random.Random(f"{self.name}/{self.seed}/{i}"))
            i += 1

    def warmup(self):
        return [self.group(0, random.Random(f"{self.name}/{self.seed}/warmup"))]


class ZooSmall(Workload):
    """A fixed pool of small permutations; pairs drawn from it repeat, so
    the sf_from_perm cache serves most lookups and per-call overhead, not
    the kernel, sets the pace.  The pool and its pairs are the same for
    every seed; the seed orders the pairs.  The loop runs whole passes over
    the pairs: a few reduce calls set the peak memory and the slowest
    latencies, so a run that met a seed's own draw of pairs, or stopped
    part-way through a pass, would time a different mix."""

    name = "zoo-small"
    tail_pct = 99.0
    # pool strata: (atom kind, count); kind 4 is a greedy product of atoms
    STRATA = ((0, 50), (1, 20), (2, 40), (3, 40), (4, 50))
    pass_groups = sum(count for _, count in STRATA)

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        rng = random.Random(f"{self.name}/pool")
        pool = []
        for kind, count in self.STRATA:
            for j in range(count):
                if kind == 4:
                    a = _zoo_atom(rng, j % 4, j)
                    p = star(a, _zoo_atom(rng, j // 4 % 4, j // 16))
                else:
                    p = _zoo_atom(rng, kind, j)
                pool.append(p)
        self.pool = [format_perm(p) for p in pool]
        self.finitary = [format_perm(p) for p in pool if p.period == 1]
        # each pool member is a left and a right operand once per pass
        right = list(range(len(pool)))
        random.Random(f"{self.name}/pairs").shuffle(right)
        self.pairs = [
            (self.pool[j], self.pool[right[j]], self.finitary[j % len(self.finitary)])
            for j in range(len(pool))
        ]
        random.Random(f"{self.name}/{seed}/order").shuffle(self.pairs)

    def group(self, i, rng):
        return self._ops(*self.pairs[i % self.pass_groups])

    @staticmethod
    def _ops(p, q, f):
        return [
            ("star", (p, q), True),
            ("tll", (p, q), True),
            ("tlr", (p, q), True),
            ("compose", (p, q), True),
            ("inverse", (p,), True),
            ("bruhat_leq", (p, q), True),
            ("weak_left_leq", (p, q), True),
            ("is_reduced_pair", (p, q), True),
            ("ess", (p,), True),
            ("inv_count", (f,), True),
            ("reduce", (p, q, STAR), True),
            ("roundtrip", (q,), True),
        ]


class FinitaryLarge(Workload):
    """Random S_48 pairs, fresh for every op, so the cache never hits and
    the dense cubic kernel dominates.  The group holds one star, one tll,
    one tlr and two comparisons, so the median of all ops, of products and
    of queries each falls in the middle of one op kind's cluster."""

    name = "finitary-large"
    D = 48
    tail_pct = 70.0
    # share of groups whose tll/tlr results are checked; each such check
    # costs one more product, the star and comparison checks are cheap
    CHECK_SHARE = 0.5

    def group(self, i, rng):
        pair = lambda: (sd_ep(_line(rng, self.D)), sd_ep(_line(rng, self.D)))
        checked = rng.random() < self.CHECK_SHARE
        return [
            ("bruhat_leq", pair(), True),
            ("star", pair(), True),
            ("tll", pair(), checked),
            ("tlr", pair(), checked),
            ("bruhat_leq", pair(), True),
        ]

    def warmup(self):
        rng = random.Random(f"{self.name}/{self.seed}/warmup")
        pair = lambda: (sd_ep(_line(rng, 8)), sd_ep(_line(rng, 8)))
        return [[(k, pair(), True) for k in ("star", "tll", "tlr", "bruhat_leq")]]


class Periodic(Workload):
    """Periodic pairs: affines of periods 3 and 5, a shifted period-7 affine
    against a period-5 one (lcm 35, shift 15), unequal two-block shuffles,
    and transposition families, periodic and finite.  Each pair runs the
    products, two order queries and a reduction.  The pool of pairs is the
    same for every seed; the seed orders the pairs within each family.

    The ops of different pairs take from under 1 ms to about 1 s, so the
    loop runs whole passes over the pool: a run that stopped part-way
    through would time a different mix.  One lcm-35 pair costs as much as
    all the pairs of the cheap families together, so the pool holds few of
    the slow pairs and many of the cheap ones, whose ops make up the middle
    of the latency distribution; a pass visits the families in turn, so the
    slow pairs are spread through it."""

    name = "periodic"
    tail_pct = 90.0
    # pairs in the pool per family, in the order of _pair's families
    SIZES = (8, 1, 8, 2, 8)
    pass_groups = sum(SIZES)

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        rng = random.Random(f"{self.name}/pool")
        pool = [
            [tuple(format_perm(x) for x in self._pair(rng, f)) for _ in range(n)]
            for f, n in enumerate(self.SIZES)
        ]
        rng = random.Random(f"{self.name}/{seed}/order")
        for family in pool:
            rng.shuffle(family)
        self.schedule = [
            family[j] for j in range(max(self.SIZES)) for family in pool if j < len(family)
        ]

    @staticmethod
    def _pair(rng, family):
        if family == 0:
            return _affine(rng, 3, 1), _affine(rng, 5, 1)
        if family == 1:
            shift = make_shift(rng.choice((-15, 15)))
            return compose(_affine(rng, 7, 1), shift), _affine(rng, 5, 1)
        if family == 2:
            m, n = rng.sample(range(9), 2)
            m2, n2 = rng.sample(range(9), 2)
            return make_gamma(m, n), make_gamma(m2, n2)
        if family == 3:
            return _affine(rng, 7, 1), make_sigma_set(ResidueClass(rng.randrange(4), 4))
        members = sorted(rng.sample(range(-8, 9, 2), 3))
        m, n = rng.sample(range(9), 2)
        return make_gamma(m, n), make_sigma_set(members)

    def group(self, i, rng):
        p, q = self.schedule[i % self.pass_groups]
        return [
            ("star", (p, q), True),
            ("tll", (p, q), True),
            ("tlr", (p, q), True),
            ("bruhat_leq", (p, q), True),
            ("is_reduced_pair", (p, q), True),
            ("reduce", (p, q, STAR), True),
        ]


class Cli(Workload):
    """One CLI subprocess at a time on small inputs: start-up, which no
    in-process workload measures, outweighs the work of every call."""

    name = "cli"
    tail_pct = 85.0

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        rng = random.Random(f"{self.name}/{seed}/pool")
        pool = [_zoo_atom(rng, i % 4, i) for i in range(12)]
        self.pool = [format_perm(p) for p in pool]
        self.finitary = [format_perm(p) for p in pool if p.period == 1]
        os.makedirs(out_dir, exist_ok=True)
        self.grids = []
        for i in range(3):
            path = os.path.join(out_dir, f"grid{i}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(write_slipface(sf_from_perm(pool[i]), "rankgrid"))
            self.grids.append(path)

    def group(self, i, rng):
        a, b = rng.choice(self.pool), rng.choice(self.pool)
        f = rng.choice(self.finitary)
        g1, g2 = rng.choice(self.grids), rng.choice(self.grids)
        p = parse_perm(a)
        # the '=' form keeps a negative range from reading as a flag
        arange = f"--arange={p.lo - 3}:{p.lo + 5}"
        brange = f"--brange={p.lo - 3}:{p.lo + 5}"
        return [
            ("cli.star", ("star", a, b), True),
            ("cli.tll", ("tll", a, b), True),
            ("cli.leq", ("compare", "leq", a, b), True),
            ("cli.ess", ("ess", a), True),
            ("cli.inv", ("inv", f), True),
            ("cli.render", ("render", a, "--format=ascii", arange, brange), True),
            ("cli.glue", ("rankgrid", "glue", g1, g2), True),
        ]

    def warmup(self):
        return [[("cli.inv", ("inv", self.finitary[0]), True)]]


WORKLOADS = {w.name: w for w in (ZooSmall, FinitaryLarge, Periodic, Cli)}
