import tracemalloc

import numpy as np
import pytest

from beurling.diff_calculus import (
    MAX_PROBES,
    GridSignal,
    LatticePoly,
    default_probes,
    degree,
    degree_with_witness,
    domar_degree,
    iterated_difference,
    newton_expand,
    probe_directions,
    witness_grid,
)
from beurling.errors import WindowError
from beurling.verify import random_lattice_poly


def poly_1d(*coeffs):
    return LatticePoly(1, {(j,): c for j, c in enumerate(coeffs) if c})


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
        q = p.shift((3,))  # (n+3)^2 = n^2 + 6n + 9
        assert q.coeff_map() == {(0,): 9, (1,): 6, (2,): 1}

    def test_integer_arithmetic_stays_exact(self):
        p = LatticePoly(3, {(2, 1, 0): 7, (0, 0, 5): -3})
        q = p.shift((11, -4, 2)).shift((-11, 4, -2))
        assert q.coeff_map() == p.coeff_map()

    def test_multi_index_validation(self):
        with pytest.raises(ValueError):
            LatticePoly(2, {(1,): 1})
        with pytest.raises(ValueError):
            LatticePoly(1, {(-1,): 1})


class TestIteratedDifference:
    def test_third_difference_of_quadratic_vanishes(self):
        p = poly_1d(0, 0, 1)
        assert iterated_difference(p, [1, 1, 1]).is_zero()

    def test_second_difference_of_quadratic_is_constant(self):
        p = poly_1d(0, 0, 1)
        out = iterated_difference(p, [1, 1])
        assert out.coeff_map() == {(0,): 2}

    def test_mixed_difference(self):
        p = LatticePoly(2, {(1, 1): 1})  # n m
        out = iterated_difference(p, [(1, 0), (0, 1)])
        assert out.coeff_map() == {(0, 0): 1}

    def test_grid_window_shrinks(self):
        g = GridSignal((-5,), np.arange(-5, 6, dtype=float))
        out = iterated_difference(g, [(2,)])
        assert out.extents == (9,)
        assert np.allclose(out.values, 2.0)

    def test_grid_window_exhaustion(self):
        g = GridSignal((0,), np.array([1.0, 2.0]))
        with pytest.raises(WindowError):
            iterated_difference(g, [(1,), (1,)])


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


class TestNewtonExpand:
    def test_square_example(self):
        lhs, rhs = newton_expand(poly_1d(0, 0, 1), (0,), (1,), 3)
        assert lhs == rhs == 9

    def test_m_zero(self):
        p = poly_1d(2, -1, 4)
        lhs, rhs = newton_expand(p, (5,), (3,), 0)
        assert lhs == rhs == p.evaluate((5,))

    def test_linear(self):
        lhs, rhs = newton_expand(poly_1d(0, 1), (2,), (3,), 4)
        assert lhs == rhs == 14

    def test_random_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            p = random_lattice_poly(rng, max_dim=3, max_degree=5)
            x = tuple(int(v) for v in rng.integers(-3, 4, p.dim))
            y = tuple(int(v) for v in rng.integers(-3, 4, p.dim))
            for m in range(9):
                lhs, rhs = newton_expand(p, x, y, m)
                assert lhs == rhs


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
            assert iterated_difference(p, picks).is_zero()

    def test_decay_beyond_degree(self):
        # |p(m y)| / m^(deg + 1/2) decays to a tiny fraction of its peak
        p = LatticePoly(1, {(3,): 2, (1,): -7})
        ms = sorted({int(m) for m in np.geomspace(1, 10_000, 50)})
        vals = [abs(p.evaluate((m,))) / m ** 3.5 for m in ms]
        tail = vals[len(vals) // 2:]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(tail, tail[1:]))
        assert tail[-1] <= 0.1 * max(vals)
