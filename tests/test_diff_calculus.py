import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from beurling.diff_calculus import (
    MAX_PROBES,
    GridSignal,
    LatticePoly,
    _exact_terms,
    default_probes,
    degree,
    degree_with_witness,
    domar_degree,
    iterated_difference,
    newton_expand,
    probe_directions,
    witness_grid,
)
from beurling import diff_calculus as dc
from beurling.errors import WindowError
from beurling.verify import random_lattice_poly


def poly_1d(*coeffs):
    return LatticePoly(1, {(j,): c for j, c in enumerate(coeffs) if c})


# ---------------------------------------------------------------------------
# reference: the symbolic difference cascade that degree_with_witness replaced
# with the closed form; the parity tests below hold the two to the same answer


def shift(p, v):
    """p(x + v) by exact binomial expansion."""
    v = tuple(int(y) for y in v)
    out = {}
    for alpha, c in p.coeffs:
        partial = [((), c)]
        for a_i, v_i in zip(alpha, v):
            nxt = []
            for beta, coeff in partial:
                for k in range(a_i + 1):
                    nxt.append((beta + (k,), coeff * math.comb(a_i, k) * v_i ** (a_i - k)))
            partial = nxt
        for beta, coeff in partial:
            out[beta] = out.get(beta, 0) + coeff
    return LatticePoly(p.dim, out)


def difference(p, y):
    """D_y p = p(x + y) - p(x), symbolically."""
    merged = dict(shift(p, y).coeffs)
    for alpha, c in p.coeffs:
        merged[alpha] = merged.get(alpha, 0) - c
    return LatticePoly(p.dim, merged)


def is_zero(p, tol=0.0):
    if tol == 0.0:
        return not p.coeffs
    return max((abs(c) for _, c in p.coeffs), default=0.0) <= tol


def cascade_degree_with_witness(p, tol=1e-9):
    """Along each probe y run D_y, D_y^2, ... until it vanishes; with k_y the
    first vanishing order, the degree is max_y k_y - 1 and the witness the
    first probe attaining it."""
    scale = max((abs(c) for _, c in p.coeffs), default=0.0)
    if is_zero(p, tol * scale):
        return -1, None
    bound = p.total_degree()
    seen = set()
    probes = [y for y in probe_directions(p.dim) + witness_grid(p.dim, bound)
              if not (y in seen or seen.add(y))]
    best_order, witness = 0, None
    for y in probes:
        cur, k = p, 0
        while k < bound + 2:
            cur = difference(cur, y)
            k += 1
            if is_zero(cur, tol * scale):
                break
        else:
            raise ValueError(f"difference cascade along {y} did not vanish")
        if k > best_order:
            best_order, witness = k, y
    return best_order - 1, witness


def sampling_domar_degree(phi, probes):
    """The restriction degree as domar_degree once took it: each restriction
    t -> phi(x + t y) sampled exactly on t = 0..bound+1 and differenced; an
    order counts while some difference exceeds 1e-12 of the largest sample."""
    def exact_value(terms, point):
        re = im = 0
        for alpha, a, b in terms:
            mono = math.prod(v ** e for v, e in zip(point, alpha))
            re, im = re + a * mono, im + b * mono
        return re, im

    bound = max(phi.total_degree(), 0)
    terms = _exact_terms(phi)
    tol2 = Fraction(1e-12) ** 2
    best = -1
    for x, y in probes:
        level = [exact_value(terms, tuple(a + t * b for a, b in zip(x, y)))
                 for t in range(bound + 2)]
        bar = tol2.numerator * max(re * re + im * im for re, im in level)
        deg_here = -1
        for k in range(bound + 2):
            if tol2.denominator * max(re * re + im * im for re, im in level) > bar:
                deg_here = k
            level = [(c - a, d - b) for (a, b), (c, d) in zip(level, level[1:])]
        best = max(best, deg_here)
    return best


def complex_variant(rng, negligible_top):
    """A random lattice polynomial with complex coefficients.  With
    ``negligible_top`` it also gets a 1e-14 term one degree up: small
    enough to read as zero at most probes, so the zero rule, not
    ``total_degree()``, decides the degree."""
    p = random_lattice_poly(rng, max_dim=3, max_degree=5)
    coeffs = {a: c * complex(rng.normal(), rng.normal()) for a, c in p.coeffs}
    if negligible_top:
        beta = tuple(int(v) for v in rng.multinomial(p.total_degree() + 1, [1 / p.dim] * p.dim))
        coeffs[beta] = coeffs.get(beta, 0) + 1e-14 * complex(rng.normal(), rng.normal())
    return LatticePoly(p.dim, coeffs)


class TestLatticePoly:
    def test_total_degree(self):
        assert poly_1d(1, 0, 3).total_degree() == 2
        assert LatticePoly(2, {(1, 2): 1}).total_degree() == 3
        assert LatticePoly(1, {}).total_degree() == -1

    def test_evaluate(self):
        p = LatticePoly(2, {(1, 1): 2, (0, 0): -1})
        assert p.evaluate((3, 4)) == 23

    def test_shift_exact(self):
        p = poly_1d(0, 0, 1)  # n^2
        q = shift(p, (3,))  # (n+3)^2 = n^2 + 6n + 9
        assert dict(q.coeffs) == {(0,): 9, (1,): 6, (2,): 1}

    def test_integer_arithmetic_stays_exact(self):
        p = LatticePoly(3, {(2, 1, 0): 7, (0, 0, 5): -3})
        q = shift(shift(p, (11, -4, 2)), (-11, 4, -2))
        assert q.coeffs == p.coeffs

    def test_multi_index_validation(self):
        with pytest.raises(ValueError):
            LatticePoly(2, {(1,): 1})
        with pytest.raises(ValueError):
            LatticePoly(1, {(-1,): 1})


class TestIteratedDifference:
    def test_third_difference_of_quadratic_vanishes(self):
        g = GridSignal((-5,), np.arange(-5, 6, dtype=float) ** 2)
        out = iterated_difference(g, [1, 1, 1])
        assert out.extents == (8,) and np.all(out.values == 0)

    def test_second_difference_of_quadratic_is_constant(self):
        g = GridSignal((-5,), np.arange(-5, 6, dtype=float) ** 2)
        out = iterated_difference(g, [1, 1])
        assert np.all(out.values == 2)

    def test_mixed_difference(self):
        xs = np.arange(-4, 5, dtype=float)
        g = GridSignal((-4, -4), np.outer(xs, xs))  # n m
        out = iterated_difference(g, [(1, 0), (0, 1)])
        assert out.extents == (8, 8) and np.all(out.values == 1)

    def test_grid_window_shrinks(self):
        g = GridSignal((-5,), np.arange(-5, 6, dtype=float))
        out = iterated_difference(g, [(2,)])
        assert out.extents == (9,)
        assert np.allclose(out.values, 2.0)

    def test_grid_window_exhaustion(self):
        g = GridSignal((0,), np.array([1.0, 2.0]))
        with pytest.raises(WindowError):
            iterated_difference(g, [(1,), (1,)])


class TestGridSignalValues:
    def test_equal_grids_are_equal_and_hash_alike(self):
        a, b = GridSignal((0, 0), np.ones((2, 2))), GridSignal((0, 0), np.ones((2, 2)))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != GridSignal((0, 1), np.ones((2, 2)))
        assert a != GridSignal((0, 0), 2 * np.ones((2, 2)))
        assert a != GridSignal((0,), np.ones(4)) and a != "grid"

    def test_negative_zero_hashes_like_zero(self):
        a, b = GridSignal((0,), np.array([-0.0, 1.0])), GridSignal((0,), np.array([0.0, 1.0]))
        assert a == b and hash(a) == hash(b)

    def test_complex_input_is_copied_and_read_only(self):
        values = np.ones((2, 2), dtype=complex)
        g = GridSignal((0, 0), values)
        values[0, 0] = 5
        assert g.values[0, 0] == 1
        with pytest.raises(ValueError):
            g.values[0, 0] = 5


class TestDegree:
    def test_quadratic(self):
        assert degree(poly_1d(1, 0, 3)) == 2

    def test_constant_is_degree_zero(self):
        assert degree(poly_1d(5)) == 0

    def test_zero_polynomial(self):
        assert degree(LatticePoly(1, {})) == -1

    def test_grid_cubic(self):
        g = GridSignal((-20,), np.arange(-20, 21, dtype=float) ** 3)
        assert degree(g, tol=1e-9) == 3

    def test_grid_non_polynomial(self):
        # differences of (-1)^n double at every step, so the cascade never
        # flattens before the window is exhausted
        ns = np.arange(-20, 21)
        g = GridSignal((-20,), (-1.0) ** ns)
        assert degree(g, tol=1e-9) is None

    def test_grid_verdicts_are_window_relative(self):
        # a slowly varying exponential contracts under differencing, so on
        # this window (tolerance 1e-9) it is indistinguishable from a
        # polynomial of moderate degree; the verdict is relative by design
        ns = np.arange(-20, 21, dtype=float)
        g = GridSignal((-20,), np.exp(0.3 * ns))
        n = degree(g, tol=1e-9)
        assert n is not None and n > 5

    def test_witness_direction(self):
        n, y = degree_with_witness(LatticePoly(2, {(2, 0): 1}))
        assert n == 2 and y is not None

    def test_adversarial_vanishing_on_signs(self):
        # x1 x2 (x1^2 - x2^2) vanishes on the basis and every sign vector,
        # so the certified witness grid is essential
        p = LatticePoly(2, {(3, 1): 1, (1, 3): -1})
        for y in probe_directions(2):
            assert p.evaluate(tuple(4 * c for c in y)) == 0
        assert degree(p) == 4

    def test_probe_order_is_pinned(self):
        # the first probe attaining the degree is its witness, so the order is part of the result
        assert probe_directions(1) == [(1,), (-1,)]
        assert probe_directions(2) == [(1, 0), (0, 1), (1, 1), (1, -1), (-1, 1), (-1, -1)]
        assert probe_directions(3)[2:7] == [(0, 0, 1), (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]
        assert witness_grid(2, 1) == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert witness_grid(3, 2)[:4] == [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 1)]
        assert witness_grid(3, 0) == [(1, 1, 1)] and witness_grid(0, 4) == [()]

    def test_probe_sets_in_use_fit_the_bound(self):
        assert len(witness_grid(3, 5)) == 6 ** 3 <= MAX_PROBES // 64
        assert len(probe_directions(10)) == 10 + 2 ** 10

    @pytest.mark.parametrize("build", [lambda: witness_grid(3, 10 ** 6),
                                       lambda: witness_grid(10 ** 6, 1),
                                       lambda: witness_grid(10 ** 6, 0),
                                       lambda: probe_directions(10 ** 6)])
    def test_oversized_probe_sets_refused_before_allocating(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="above"):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_oversized_witness_grid_refused_by_degree(self):
        with pytest.raises(ValueError, match="witness grid"):
            degree(LatticePoly(2, {(10 ** 6, 0): 1}))

    def test_two_dimensional_grid(self):
        xs = np.arange(-8, 9)
        vals = np.add.outer(xs ** 2, xs).astype(complex)  # n^2 + m
        g = GridSignal((-8, -8), vals)
        assert degree(g, tol=1e-9) == 2


class TestClosedFormParity:
    def test_matches_cascade_on_random_lattice_polys(self):
        rng = np.random.default_rng(20)
        for _ in range(400):
            p = random_lattice_poly(rng, max_dim=3, max_degree=5)
            assert degree_with_witness(p) == cascade_degree_with_witness(p), p

    def test_matches_cascade_on_complex_coefficients(self):
        rng = np.random.default_rng(21)
        lowered = 0
        for i in range(300):
            p = complex_variant(rng, negligible_top=i % 2 == 1)
            got = degree_with_witness(p)
            assert got == cascade_degree_with_witness(p), p
            lowered += got[0] < p.total_degree()
        assert lowered > 50  # the zero rule decided these, not total_degree()

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), complex(1, float("-inf"))])
    def test_non_finite_coefficient_is_refused(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            degree_with_witness(LatticePoly(1, {(2,): bad, (1,): 1}))

    def test_far_probes_stay_exact(self):
        # the top parts read as zero up to the last probe, where y^alpha is
        # past the float range
        p = LatticePoly(1, {(400,): 1, (0,): 10 ** 2000})
        assert degree_with_witness(p) == (0, (1,))
        assert degree_with_witness(p, tol=0) == (400, (1,))
        q = LatticePoly(1, {(150,): 1e-300, (0,): 1e300})
        assert degree_with_witness(q) == (0, (1,))
        assert degree_with_witness(q, tol=0) == (150, (1,))


def newton_expand_at(phi, x, y, m):
    """Both sides at one m, as newton_expand computed them one call per m:
    its own evaluations phi(x + i y), i <= min(m, degree), for the right side."""
    lhs = phi.evaluate(tuple(a + m * b for a, b in zip(x, y)))
    row = [phi.evaluate(tuple(a + i * b for a, b in zip(x, y))) for i in range(min(m, phi.total_degree()) + 1)]
    rhs = 0
    for j in range(len(row)):
        rhs = rhs + math.comb(m, j) * row[0]
        row = [b - a for a, b in zip(row, row[1:])]
    return lhs, rhs


class TestNewtonExpand:
    def test_square_example(self):
        assert newton_expand(poly_1d(0, 0, 1), (0,), (1,), 3) == ((0, 1, 4, 9), (0, 1, 4, 9))

    def test_m_zero(self):
        p = poly_1d(2, -1, 4)
        lhs, rhs = newton_expand(p, (5,), (3,), 0)
        assert lhs == rhs == (p.evaluate((5,)),)

    def test_linear(self):
        lhs, rhs = newton_expand(poly_1d(0, 1), (2,), (3,), 4)
        assert lhs == rhs == (2, 5, 8, 11, 14)

    def test_right_side_stops_at_the_degree(self):
        # summed to k, the right side matches any function; stopping at the
        # claimed degree 1 it must miss 2^n from k = 2 on
        class Claimed:
            dim = 1

            def total_degree(self):
                return 1

            def evaluate(self, point):
                return 2 ** point[0]

        assert newton_expand(Claimed(), (0,), (1,), 3) == ((1, 2, 4, 8), (1, 2, 3, 4))

    def test_random_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            p = random_lattice_poly(rng, max_dim=3, max_degree=5)
            x = tuple(int(v) for v in rng.integers(-3, 4, p.dim))
            y = tuple(int(v) for v in rng.integers(-3, 4, p.dim))
            lhs, rhs = newton_expand(p, x, y, 8)
            assert len(lhs) == len(rhs) == 9 and lhs == rhs

    @pytest.mark.parametrize("seed", range(5))
    def test_each_k_matches_a_call_at_that_m(self, seed):
        # complex coefficients too: the same sums in the same order, so the
        # same floats, not just close ones
        rng = np.random.default_rng(seed)
        for i in range(40):
            p = random_lattice_poly(rng) if i % 2 else complex_variant(rng, negligible_top=False)
            xy = rng.integers(-3, 4, 2 * p.dim).tolist()
            x, y = xy[:p.dim], xy[p.dim:]
            lhs, rhs = newton_expand(p, x, y, 8)
            assert list(zip(lhs, rhs)) == [newton_expand_at(p, x, y, m) for m in range(9)]

    def test_zero_polynomial_and_negative_m(self):
        assert newton_expand(LatticePoly(2, {}), (1, 2), (3, 4), 2) == ((0, 0, 0), (0, 0, 0))
        with pytest.raises(ValueError, match="m must be"):
            newton_expand(poly_1d(1), (0,), (1,), -1)


class TestRandomLatticePoly:
    def test_draw_stream_is_pinned(self):
        # the verify scenarios and the parity tests above are seeded through
        # this stream: a change of draws would change what they check
        rng = np.random.default_rng(0)
        got = [(p.dim, dict(p.coeffs)) for p in (random_lattice_poly(rng) for _ in range(5))]
        assert got == [
            (3, {(0, 0, 3): 2, (1, 1, 0): -5, (2, 1, 0): 3}),
            (3, {(0, 0, 0): 4}),
            (3, {(0, 1, 2): -1, (0, 1, 4): 1}),
            (3, {(1, 1, 1): 5}),
            (1, {(0,): 5, (1,): -2, (2,): 4, (3,): 3}),
        ]
        assert all(type(a) is int and type(c) is int
                   for p in (random_lattice_poly(rng) for _ in range(50))
                   for alpha, c in p.coeffs for a in alpha)


class TestDomarDegree:
    def test_square(self):
        p = poly_1d(0, 0, 1)
        assert domar_degree(p, [((0,), (1,))]) == 2

    def test_plane_diagonal(self):
        p = LatticePoly(2, {(1, 0): 1, (0, 1): 1})
        assert domar_degree(p, [((0, 0), (1, 1))]) == 1

    def test_constant(self):
        assert domar_degree(poly_1d(3), [((0,), (1,)), ((2,), (5,))]) == 0

    def test_agrees_with_difference_criterion(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            p = random_lattice_poly(rng, max_dim=3, max_degree=5)
            assert domar_degree(p, default_probes(p)) == degree(p)

    def test_needs_probes(self):
        with pytest.raises(ValueError):
            domar_degree(poly_1d(1), [])

    def test_float_coefficients_sample_exactly(self):
        # a float coefficient times an int power past the float range raised
        # OverflowError at far probes; the exact expansion answers, and with
        # the closed form's rule the constant dominates along every probe
        q = LatticePoly(1, {(150,): 1e-300, (0,): 1e300})
        assert degree_with_witness(q) == (0, (1,))
        assert domar_degree(q, [((0,), (y,)) for y in range(1, 56)]) == 0
        assert domar_degree(q, default_probes(q)) == 0

    def test_probe_dimension_mismatch_is_refused(self):
        p = LatticePoly(2, {(1, 1): 1})
        with pytest.raises(ValueError, match="dimension"):
            domar_degree(p, [((0,), (1,))])
        with pytest.raises(ValueError, match="dimension"):
            domar_degree(p, [((0, 0), (1, 1, 1))])

    def test_planted_monomial_degrees(self):
        # the old 1e-12-of-the-largest-sample rule read x^30 as 29 and x^150 as 51
        for n in range(1, 201):
            p = LatticePoly(1, {(n,): 1})
            assert domar_degree(p, default_probes(p)) == n
            q = LatticePoly(2, {(n, 0): 1, (0, 1): 3})
            assert domar_degree(q, [((2, -1), y) for y in probe_directions(2)]) == n

    def test_matches_sampling_on_off_origin_bases(self):
        # each direction from a base point in [-3, 3]^dim; the two zero rules
        # differ only near their thresholds, so the complex corpus has no
        # negligible top term here
        rng = np.random.default_rng(22)
        for i in range(300):
            p = (random_lattice_poly(rng, max_dim=3, max_degree=5) if i % 2
                 else complex_variant(rng, negligible_top=False))
            probes = [(tuple(int(v) for v in rng.integers(-3, 4, p.dim)), y)
                      for _, y in default_probes(p)]
            assert domar_degree(p, probes) == sampling_domar_degree(p, probes), p


class TestLineBound:
    """Off the origin each probe line is bounded before it is expanded; the
    bound may only skip lines that the exact zero rule would also reject."""

    def test_far_off_origin_lines_are_not_expanded(self):
        # 401 probe lines of degree 400 against a 10^2000 constant: about
        # 3 s when every line was expanded
        p = LatticePoly(1, {(400,): 1, (0,): 10 ** 2000})
        for x in (1, 2, -3):
            start = time.perf_counter()
            assert domar_degree(p, [((x,), y) for _, y in default_probes(p)]) == 0
            assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("rel", [-1e-3, -1e-6, 1e-6, 1e-3])
    def test_bound_meets_the_bar(self, rel):
        # along (1) + t (1), x^10 has 10! |q_10| = 10!, the bound itself: the
        # answer turns on 10! against 1e-9 C, a relative 1e-6 either side
        c = round(math.factorial(10) * 10 ** 9 * (1 + rel))
        p = LatticePoly(1, {(10,): 1, (0,): c})
        assert domar_degree(p, [((1,), (1,))]) == (10 if rel < 0 else 0)

    def test_binomial_rows_are_exact(self):
        for x, y, e in [(1, 1, 0), (2, 3, 5), (-3, 7, 12), (5, -2, 40), (-1, -1, 33)]:
            assert dc._binomial_row(x, y, e) == [math.comb(e, k) * x ** (e - k) * y ** k for k in range(e + 1)]

    def test_skipping_keeps_every_degree(self, monkeypatch):
        # coefficients over 60 decades, so some lines are skipped and some
        # sit near the bar; the answers with and without the bound agree
        rng = np.random.default_rng(30)
        cases = []
        for _ in range(60):
            dim = int(rng.integers(1, 3))
            coeffs = {(0,) * dim: 10 ** int(rng.integers(0, 60))}
            for _ in range(int(rng.integers(1, 4))):
                alpha = tuple(rng.multinomial(int(rng.integers(1, 30)), [1 / dim] * dim).tolist())
                coeffs[alpha] = complex(rng.normal(), rng.normal()) * 10.0 ** int(rng.integers(-20, 5))
            p = LatticePoly(dim, coeffs)
            probes = [(tuple(rng.integers(-4, 5, dim).tolist()), y) for _, y in default_probes(p)[:40]]
            cases.append((p, probes))

        skipped = []
        bound = dc._line_bound

        def counted(*args):
            test = bound(*args)
            if test is None:
                return None

            def recorded(*probe):
                skipped.append(test(*probe))
                return skipped[-1]

            return recorded

        monkeypatch.setattr(dc, "_line_bound", counted)
        fast = [domar_degree(p, probes) for p, probes in cases]
        monkeypatch.setattr(dc, "_line_bound", lambda *args: None)
        assert fast == [domar_degree(p, probes) for p, probes in cases]
        assert 100 < sum(skipped) < len(skipped)  # both outcomes were exercised
        assert len(set(fast)) > 3


class TestDifferenceChain:
    def test_directional_flatness_implies_mixed_flatness(self):
        # if every (n+1)-fold repeat difference vanishes, so does every
        # mixed (n+1)-fold difference over the probe directions
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = random_lattice_poly(rng, max_dim=2, max_degree=4)
            n = degree(p)
            dirs = probe_directions(p.dim) + witness_grid(p.dim, max(n, 0))
            picks = [dirs[int(i)] for i in rng.integers(0, len(dirs), n + 1)]
            for y in picks:
                p = difference(p, y)
            assert is_zero(p)

    def test_decay_beyond_degree(self):
        # |p(m y)| / m^(deg + 1/2) decays to a tiny fraction of its peak
        p = LatticePoly(1, {(3,): 2, (1,): -7})
        ms = sorted({int(m) for m in np.geomspace(1, 10_000, 50)})
        vals = [abs(p.evaluate((m,))) / m ** 3.5 for m in ms]
        tail = vals[len(vals) // 2:]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(tail, tail[1:]))
        assert tail[-1] <= 0.1 * max(vals)
