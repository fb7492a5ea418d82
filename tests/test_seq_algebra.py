import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beurling.errors import NumericOverflowError
from beurling.seq_algebra import (
    DENSE_SPAN_RATIO,
    CirclePoint,
    FinSeq,
    angles_within,
    circle_distance,
    convolve,
    delta,
    difference_seq,
    fourier_eval,
    fourier_grid,
    involution,
    vanishing_order,
    vanishing_order_test,
    weighted_norm,
)
from beurling.weights import ExponentialWeight, PowerWeight

scalars = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=4.0, allow_nan=False, allow_infinity=False
)
# far offsets give sparse, wide sequences, which convolve keeps off the
# dense path
offsets = st.integers(-6, 6) | st.sampled_from([-10_000, 10_000])
finseqs = st.dictionaries(offsets, scalars, max_size=5).map(FinSeq)
nonzero_finseqs = finseqs.filter(bool)


class TestFinSeq:
    def test_zero_entries_dropped(self):
        assert len(FinSeq({0: 1, 3: 0})) == 1

    def test_support(self):
        assert FinSeq({-2: 1, 5: 1j}).support() == (-2, 5)
        with pytest.raises(ValueError):
            FinSeq().support()

    def test_arithmetic_prunes_cancellation(self):
        f = FinSeq({0: 1.0, 1: 1.0})
        g = FinSeq({1: 1.0 - 1e-16})
        out = f - g
        assert out.entries == {0: 1.0}  # 1e-16 residue pruned relative to 1.0

    def test_shift(self):
        assert delta(0).shift(3) == delta(3)


class TestConvolve:
    def test_identity(self):
        g = FinSeq({-1: 2, 3: 1j})
        assert convolve(delta(0), g) == g

    def test_delta_powers(self):
        assert convolve(delta(1), delta(1)) == delta(2)

    def test_small_example(self):
        f = FinSeq({0: 1, 1: 1})
        g = FinSeq({0: 1, -1: 1})
        assert convolve(f, g) == FinSeq({-1: 1, 0: 2, 1: 1})

    @pytest.mark.parametrize("entries, width", [(300, 300), (30, 30_000)])
    def test_integer_values_exact(self, entries, width):
        # one dense pair and one sparse, wide pair: both paths of convolve
        rng = np.random.default_rng(width)

        def draw(lo):
            ns = lo + np.sort(rng.choice(width, entries, replace=False))
            vals = rng.integers(-9, 10, entries) + 1j * rng.integers(-9, 10, entries)
            dense = np.zeros(ns[-1] - ns[0] + 1, dtype=complex)
            dense[ns - ns[0]] = vals
            return FinSeq(zip(ns.tolist(), vals.tolist())), int(ns[0]), dense

        (f, f_lo, a), (g, g_lo, b) = draw(-width // 2), draw(7)
        dense = len(a) * len(b) <= DENSE_SPAN_RATIO * len(f) * len(g)
        assert dense == (width == entries)
        want = np.convolve(a, b)
        keep = np.flatnonzero(want)
        assert convolve(f, g) == FinSeq(zip((f_lo + g_lo + keep).tolist(), want[keep].tolist()))

    @given(finseqs, finseqs)
    def test_commutative(self, f, g):
        lhs, rhs = convolve(f, g), convolve(g, f)
        diff = lhs - rhs
        scale = max([abs(v) for _, v in lhs] + [1e-30])
        assert all(abs(v) <= 1e-12 * scale for _, v in diff)

    @settings(max_examples=50)
    @given(finseqs, finseqs, finseqs)
    def test_associative(self, f, g, h):
        lhs = convolve(convolve(f, g), h)
        rhs = convolve(f, convolve(g, h))
        diff = lhs - rhs
        scale = max([abs(v) for _, v in lhs] + [abs(v) for _, v in rhs] + [1e-30])
        assert all(abs(v) <= 1e-9 * scale for _, v in diff)

    @given(finseqs, finseqs, finseqs)
    def test_distributive(self, f, g, h):
        lhs = convolve(f, g + h)
        rhs = convolve(f, g) + convolve(f, h)
        diff = lhs - rhs
        scale = max([abs(v) for _, v in lhs] + [1e-30])
        assert all(abs(v) <= 1e-9 * scale for _, v in diff)


class TestInvolution:
    def test_worked_example(self):
        f = FinSeq({-1: 2, 1: -0.5})
        assert involution(f) == FinSeq({1: 2, -1: -0.5})

    def test_conjugates_at_origin(self):
        assert involution(FinSeq({0: 1j})) == FinSeq({0: -1j})

    def test_reflect_and_conjugate(self):
        assert involution(FinSeq({2: 1 + 1j})) == FinSeq({-2: 1 - 1j})

    @given(finseqs)
    def test_involutive(self, f):
        assert involution(involution(f)) == f

    @given(finseqs, finseqs)
    def test_multiplicative(self, f, g):
        lhs = involution(convolve(f, g))
        rhs = convolve(involution(f), involution(g))
        diff = lhs - rhs
        scale = max([abs(v) for _, v in lhs] + [1e-30])
        assert all(abs(v) <= 1e-9 * scale for _, v in diff)


class TestWeightedNorm:
    def test_worked_example(self):
        f = FinSeq({-1: 2, 1: -0.5})
        assert weighted_norm(f, ExponentialWeight(2)) == pytest.approx(6.25)

    def test_delta_gives_weight_at_zero(self):
        assert weighted_norm(delta(0), ExponentialWeight(2)) == pytest.approx(2.0)

    def test_power_weight(self):
        assert weighted_norm(FinSeq({1: 1}), PowerWeight(1)) == pytest.approx(2.0)

    @settings(max_examples=50)
    @given(finseqs, finseqs)
    def test_banach_inequality(self, f, g):
        w = PowerWeight(1)
        lhs = weighted_norm(convolve(f, g), w)
        rhs = weighted_norm(f, w) * weighted_norm(g, w)
        assert lhs <= rhs * (1 + 1e-9) + 1e-12


class TestFourier:
    def test_worked_example_at_zero(self):
        assert fourier_eval(FinSeq({-1: 2, 1: -0.5}), 0.0) == pytest.approx(1.5)

    def test_delta_has_constant_transform(self):
        for t in (0.0, 1.0, 3.0):
            assert fourier_eval(delta(0), t) == pytest.approx(1.0)

    @given(nonzero_finseqs, nonzero_finseqs, st.floats(0, 2 * math.pi - 1e-9))
    def test_transform_multiplicative(self, f, g, t):
        lhs = fourier_eval(convolve(f, g), t)
        rhs = fourier_eval(f, t) * fourier_eval(g, t)
        scale = f.abs_sum() * g.abs_sum()
        assert abs(lhs - rhs) <= 1e-9 * scale

    @given(finseqs, st.floats(0, 2 * math.pi - 1e-9))
    def test_involution_conjugates_transform(self, f, t):
        lhs = fourier_eval(involution(f), t)
        rhs = fourier_eval(f, t).conjugate()
        assert abs(lhs - rhs) <= 1e-9 * max(f.abs_sum(), 1e-30)

    def test_grid_shape_and_values(self):
        f = FinSeq({-1: 2, 1: -0.5})
        ts, vals = fourier_grid(f, 8)
        assert len(ts) == len(vals) == 8
        assert vals[0] == pytest.approx(1.5)

    @pytest.mark.parametrize("points", [1, 7, 64, 1000])
    def test_grid_matches_direct_sum(self, points):
        # negative offsets, offsets beyond the grid size, and one far beyond
        # float precision: the phase n t_k is reduced mod 2 pi exactly
        f = FinSeq({-3: 1j, -2500: 0.5, 0: 2, 17: -1, 5 * points + 2: 0.25, 2**70: 3 - 1j})
        ts, vals = fourier_grid(f, points)
        for k in range(points):
            want = sum(v * cmath.exp(-2j * math.pi * ((n * k) % points) / points) for n, v in f)
            assert ts[k] == pytest.approx(2 * math.pi * k / points, abs=1e-15)
            assert abs(vals[k] - want) <= 1e-12 * f.abs_sum()


class TestOverflow:
    BIG = FinSeq({0: 1e308, 1: 1e308, 2: 1e308 + 1e308j})

    def test_fourier_grid_overflow_is_an_overflow_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning escapes either
            with pytest.raises(NumericOverflowError, match="overflows the float range"):
                fourier_grid(self.BIG, 8)
            with pytest.raises(NumericOverflowError):  # offsets 0 and 8 fold onto one point
                fourier_grid(FinSeq({0: 1e308, 8: 1e308}), 8)

    @pytest.mark.parametrize("f, g", [
        (FinSeq({0: 1e200, 1: 1e200}), FinSeq({0: 1e200, 1: 1e200})),  # dense
        (FinSeq({0: 1e200, 10 ** 6: 1e200}), FinSeq({0: 1e200, 7: 1j * 1e200})),  # sparse and wide
    ])
    def test_convolution_overflow_is_an_overflow_error(self, f, g):
        # the zero rule relative to an inf modulus pruned every entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError, match="overflows the float range"):
                convolve(f, g)

    def test_sum_past_the_float_range_is_an_overflow_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError, match="overflows the float range"):
                FinSeq({0: 1e308, 3: 1}) + FinSeq({0: 1e308})

    def test_vanishing_order_overflow_is_an_overflow_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError, match="order-0 derivative test overflows"):
                vanishing_order(self.BIG, 0.0)
            # order 0 reads zero; the order-1 bound 2e307 (1 + 500) overflows
            with pytest.raises(NumericOverflowError, match="order-1 derivative test overflows"):
                vanishing_order(FinSeq({0: 1e307, 1000: -1e307}), 0.0)


class TestVanishingOrder:
    def test_double_zero(self):
        assert vanishing_order(FinSeq({0: 1, 1: -2, 2: 1}), 0.0) == 2

    def test_simple_zero(self):
        assert vanishing_order(delta(0) - delta(1), 0.0) == 1

    def test_nonvanishing(self):
        assert vanishing_order(delta(0), 0.0) == 0

    def test_scale_invariant(self):
        f = FinSeq({0: 1, 1: -2, 2: 1})
        assert vanishing_order(1e-20 * f, 0.0) == 2
        assert vanishing_order(1e20 * f, 0.0) == 2

    def test_zero_sequence_rejected(self):
        with pytest.raises(ValueError):
            vanishing_order(FinSeq(), 0.0)

    @pytest.mark.parametrize("support, offset", [(100, 0), (100, 5000), (2000, 0), (2000, 2000)])
    def test_translation_invariant(self, support, offset):
        # a random factor with mass far from 0 times (delta_0 - delta_1)^3
        rng = np.random.default_rng(support)
        base = 1.0 + 0.5 * (rng.standard_normal(support - 3) + 1j * rng.standard_normal(support - 3))
        vals = np.convolve(base, [1, -3, 3, -1])
        f = FinSeq({offset + i: v for i, v in enumerate(vals.tolist())})
        assert vanishing_order(f, 0.0) == 3

    def test_one_test_for_many_angles_is_each_call(self):
        # (delta_0 - delta_1)^2 times a random factor, times a simple zero
        # at t = 1: the angles go deeper and shallower in turn, so later
        # ones reuse the scales the earlier ones built
        rng = np.random.default_rng(8)
        vals = np.convolve(rng.standard_normal(40) + 1j * rng.standard_normal(40), [1, -2, 1])
        vals = np.convolve(vals, [1, -np.exp(1j)])
        f = FinSeq({n - 20: v for n, v in enumerate(vals.tolist())})
        ts = [0.5, 1.0, 0.0, 1.0, 3.0, 0.0, 2 * math.pi]
        order = vanishing_order_test(f)
        assert [order(t) for t in ts] == [vanishing_order(f, t) for t in ts]
        assert [order(t) for t in ts[:3]] == [0, 1, 2]

    def test_one_test_keeps_raising_an_overflowing_order(self):
        order = vanishing_order_test(FinSeq({0: 1e307, 1000: -1e307}))
        assert order(1.0) == 0
        for _ in range(2):
            with pytest.raises(NumericOverflowError, match="order-1 derivative test overflows"):
                order(0.0)

    @given(nonzero_finseqs, st.integers(1, 3), st.integers(0, 2))
    def test_differences_raise_order(self, f, m, k):
        g = difference_seq(f, m, k + 1)
        if g:
            assert vanishing_order(g, 0.0) >= k + 1


class TestDifferenceSeq:
    def test_single_difference_of_delta(self):
        assert difference_seq(delta(0), 1, 1) == FinSeq({-1: 1, 0: -1})

    def test_squared_step_two(self):
        assert difference_seq(delta(0), 2, 2) == FinSeq({-4: 1, -2: -2, 0: 1})

    def test_transform_factor(self):
        f = FinSeq({0: 1, 2: 1j})
        g = difference_seq(f, 3, 2)
        for t in (0.4, 1.7):
            factor = (cmath.exp(1j * t * 3) - 1) ** 2
            assert fourier_eval(g, t) == pytest.approx(factor * fourier_eval(f, t))


class TestCirclePoint:
    def test_canonical_range(self):
        assert CirclePoint(2 * math.pi + 0.5).t == pytest.approx(0.5)
        assert CirclePoint(-0.5).t == pytest.approx(2 * math.pi - 0.5)

    def test_wraparound_to_zero(self):
        assert CirclePoint(2 * math.pi - 1e-12).t == 0.0

    def test_distance_wraps(self):
        assert circle_distance(0.1, 2 * math.pi - 0.1) == pytest.approx(0.2)

    def test_angles_within(self):
        assert angles_within([], [1.0]) and angles_within([], [])
        assert not angles_within([1.0], [])
        # wrap-around at 0 = 2 pi, in both directions
        assert angles_within([2 * math.pi - 1e-10], [0.0]) and angles_within([0.0], [2 * math.pi - 1e-10])
        assert angles_within([0.5, 1.0], [1.0 + 1e-10, 0.5, 3.0])
        assert not angles_within([0.5, 1.0], [0.5])
        assert angles_within([0.1], [0.1 + 5e-7], 1e-6) and not angles_within([0.1], [0.1 + 5e-7])

    def test_close_to(self):
        assert CirclePoint(1.0).close_to(CirclePoint(1.0 + 1e-10))
        assert not CirclePoint(1.0).close_to(CirclePoint(1.1))
