"""An exact oracle for hulls: integer generators with roots at Pythagorean
points (ROADMAP item 13).

A point (a + bi)/c with a^2 + b^2 = c^2 lies exactly on the unit circle,
and c u - (a + bi) has Gaussian-integer coefficients.  A generator here is
a product of such factors, at planted multiplicities, times a cofactor
whose constant term exceeds the sum of the moduli of its other
coefficients, so that the cofactor has no zero on the closed unit disc.
While every coefficient stays below 2^53 the float generator is this
integer polynomial exactly, and its hull is known exactly: the planted
points, and for several generators the common ones at their least
multiplicity.  ``exact_hull`` computes it in Python ints, from each
generator's Taylor coefficients at each rational point of the circle with
denominator at most 13; no second root finder is involved.

The transform is sum_n f(n) u^n with u = e^{-it}, so the root (a + bi)/c
is the hull point t = -arg(a + bi).
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beurling.seq_algebra import CirclePoint, FinSeq
from beurling.spectra import Empty, Finite, hull_of_generators

#: The rational points (a, b, c) of the unit circle, (a + bi)/c in lowest
#: terms, with c <= 13: the triples (3, 4, 5) and (5, 12, 13) in every
#: order and sign, and +-1 and +-i.  Any two are more than 0.2 apart.
PYTHAGOREAN = sorted({(s * x, r * y, c) for a, b, c in ((1, 0, 1), (3, 4, 5), (5, 12, 13))
                      for x, y in ((a, b), (b, a)) for s in (1, -1) for r in (1, -1)})

#: A float holds every integer of modulus up to 2^53 exactly.
EXACT = 2 ** 53


def _times_factor(p, a, b, c):
    """p times c u - (a + bi); coefficients low first, as (re, im) int pairs."""
    out = [(0, 0)] * (len(p) + 1)
    for k, (x, y) in enumerate(p):
        re, im = out[k + 1]
        out[k + 1] = (re + c * x, im + c * y)
        re, im = out[k]
        out[k] = (re - (a * x - b * y), im - (a * y + b * x))
    return out


def exact_generator(rng, support, planted):
    """Coefficients, low first, of a generator of the given support that
    plants each point of {(a, b, c): m} at multiplicity m.  The cofactor's
    other entries lie in {-1, 0, 1} + i{-1, 0, 1}; its constant term exceeds
    the sum of their |re| + |im|, hence of their moduli."""
    degree = support - 1 - sum(planted.values())
    rest = [(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(degree)]
    p = [(1 + sum(abs(x) + abs(y) for x, y in rest), 0)] + rest
    for (a, b, c), m in planted.items():
        for _ in range(m):
            p = _times_factor(p, a, b, c)
    return p


def vanishing_order(p, point):
    """Order of the zero of p at z = (a + bi)/c.  Its Taylor coefficients
    there, scaled to Gaussian integers, are c^(d - j) p^(j)(z) / j! =
    sum_k C(k, j) p_k (a + bi)^(k - j) c^(d - k), d the degree of p."""
    a, b, c = point
    d = len(p) - 1
    powers = [(1, 0)]
    for _ in range(d):
        x, y = powers[-1]
        powers.append((a * x - b * y, a * y + b * x))
    j = 0
    while True:
        re = im = 0
        for k in range(j, d + 1):
            w = math.comb(k, j) * c ** (d - k)
            (x, y), (u, v) = p[k], powers[k - j]
            re += w * (x * u - y * v)
            im += w * (x * v + y * u)
        if re or im:
            return j
        j += 1


def exact_hull(gens):
    """{point: least vanishing order} over the Pythagorean points at which
    every generator vanishes.  The cofactors have no zero on the circle, so
    these are the only hull points."""
    orders = {point: min(vanishing_order(p, point) for p in gens) for point in PYTHAGOREAN}
    return {point: m for point, m in orders.items() if m}


def as_finseq(p, lo):
    assert all(abs(x) <= EXACT and abs(y) <= EXACT for x, y in p), "not exact as floats"
    return FinSeq({lo + k: complex(x, y) for k, (x, y) in enumerate(p)})


def assert_hull(result, hull):
    """result is the exact hull: each point within ANGULAR_TOL, at its
    multiplicity."""
    if not hull:
        assert isinstance(result, Empty), result
        return
    assert isinstance(result, Finite), "a wrong Empty"
    want = [(CirclePoint(-math.atan2(b, a)), m) for (a, b, _), m in hull.items()]
    got = [(p.angle, p.multiplicity) for p in result.points]
    assert len(got) == len(want) and all(
        any(u.close_to(t) and k == m for u, k in got) for t, m in want), (got, want)


def planted_family(rng, top, max_support):
    """1-3 generators of support up to max_support, each planting one or two
    Pythagorean points at multiplicities 1..top: 0-2 shared by every
    generator, the rest its own.  Returns the coefficient lists and the
    planted common points at their least multiplicity."""
    n_gens = rng.randint(1, 3)
    points = rng.sample(PYTHAGOREAN, 2 + 2 * n_gens)
    n_shared = rng.randint(0, 2)
    gens, planted = [], []
    for i in range(n_gens):
        own = points[2 + 2 * i:][:rng.randint(0 if n_shared else 1, 2 - n_shared)]
        plants = {point: rng.randint(1, top) for point in points[:n_shared] + own}
        support = rng.randint(max(12, sum(plants.values()) + 2), max_support)
        gens.append(exact_generator(rng, support, plants))
        planted.append(plants)
    common = {point: min(p.get(point, 0) for p in planted) for point in planted[0]}
    return gens, {point: m for point, m in common.items() if m}


class TestOracle:
    def test_the_points_are_on_the_circle_and_distinct(self):
        assert len(PYTHAGOREAN) == 20
        assert all(a * a + b * b == c * c and math.gcd(a, b, c) == 1 for a, b, c in PYTHAGOREAN)

    def test_the_exact_hull_is_the_planted_points(self):
        rng = random.Random(7)
        p = exact_generator(rng, 40, {(3, 4, 5): 3, (0, -1, 1): 1})
        q = exact_generator(rng, 30, {(3, 4, 5): 2, (-12, 5, 13): 2})
        assert exact_hull([p]) == {(3, 4, 5): 3, (0, -1, 1): 1}
        assert exact_hull([p, q]) == {(3, 4, 5): 2}
        assert len(p) == 40 and len(q) == 30


@pytest.mark.parametrize("top, max_support", [(2, 250), (3, 120)], ids=["m1-2", "m1-3"])
@settings(max_examples=25, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_hull_is_the_planted_common_points(top, max_support, rng):
    gens, hull = planted_family(rng, top, max_support)
    assert exact_hull(gens) == hull
    assert_hull(hull_of_generators([as_finseq(p, rng.randint(-50, 50)) for p in gens]), hull)


def two_point_generator(support, m, draw):
    """The generator of item 13's table: two Pythagorean points at
    multiplicity m on a cofactor, at an offset, from a seeded draw."""
    rng = random.Random(f"{support}-{m}-{draw}")
    planted = dict.fromkeys(rng.sample(PYTHAGOREAN, 2), m)
    p = exact_generator(rng, support, planted)
    return as_finseq(p, rng.randint(-support, support)), planted


def _wrong(item, reason):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {reason}")


@pytest.mark.parametrize("support, m, draw", [
    (12, 3, 0),
    (30, 2, 0),
    (60, 3, 0),
    (120, 4, 0),
    (250, 3, 0),
    (500, 2, 0),
    pytest.param(60, 5, 0, marks=_wrong(1, "a wrong Empty, certified by a grid minimum of "
                                           "2.6e5 that proves nothing between grid points")),
    pytest.param(500, 4, 2, marks=_wrong(2, "a wrong Finite, both points read at "
                                           "multiplicity 7")),
])
def test_item_13_cells(support, m, draw):
    f, planted = two_point_generator(support, m, draw)
    try:
        result = hull_of_generators([f])
    except ValueError:
        if m <= 3:
            raise
        return  # past multiplicity 3 a typed refusal is a right answer too
    assert_hull(result, planted)
