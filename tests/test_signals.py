import cmath

import numpy as np
import pytest

from beurling.errors import WindowError
from beurling.seq_algebra import CirclePoint, FinSeq, convolve, delta, fourier_eval
from beurling.signals import (
    CumSum,
    ExpPoly,
    Geometric,
    TableSignal,
    add_signals,
    annihilate,
    constant_signal,
    difference_signal,
    eval_signal,
    eval_signal_range,
    modulate_signal,
    sample_signal,
    signal_is_zero,
    translate_signal,
    weighted_sup,
)
from beurling.weights import ExponentialWeight, PowerWeight


def linear():  # phi(n) = n
    return ExpPoly([(0.0, (0, 1))])


class TestConstruction:
    def test_trailing_zero_coeffs_trimmed(self):
        s = ExpPoly([(0.0, (1, 0, 0))])
        assert s.terms[0].coeffs == (1 + 0j,)

    def test_zero_terms_dropped(self):
        assert ExpPoly([(0.0, (0, 0))]).terms == ()

    def test_duplicate_frequencies_rejected(self):
        with pytest.raises(ValueError):
            ExpPoly([(0.5, (1,)), (0.5 + 1e-12, (2,))])

    def test_geometric_needs_positive_ratio(self):
        with pytest.raises(ValueError):
            Geometric(-1.0)

    def test_table_needs_samples(self):
        with pytest.raises(ValueError):
            TableSignal(0, [])


class TestEval:
    def test_geometric(self):
        assert eval_signal(Geometric(2), 3) == pytest.approx(8.0)

    @pytest.mark.parametrize("scale", [1.0, -2j, 1 - 1j])
    def test_geometric_overflow_is_signed_inf(self, scale):
        vals = eval_signal_range(Geometric(2, scale), -2000, 2000)
        assert not np.isnan(vals.real).any() and not np.isnan(vals.imag).any()
        top = vals[-1]
        assert (np.sign(top.real), np.sign(top.imag)) == (np.sign(scale.real), np.sign(scale.imag))
        assert np.isinf(abs(top)) and vals[2000] == scale

    def test_exppoly_linear(self):
        assert eval_signal(linear(), 5) == pytest.approx(5.0)

    def test_cumsum_counts(self):
        table = TableSignal(0, [1.0] * 6)
        assert eval_signal(CumSum(table), 3) == pytest.approx(3.0)

    def test_cumsum_conventions(self):
        s = CumSum(linear())  # P phi(n) = sum_{0<j<=n} j
        assert eval_signal(s, 0) == 0
        assert eval_signal(s, 4) == pytest.approx(10.0)
        # negative side: -sum_{n<j<=0} phi(j)
        assert eval_signal(s, -3) == pytest.approx(-(-2 + -1 + 0))

    def test_cumsum_fundamental_theorem(self):
        s = ExpPoly([(0.7, (1.0, 0.5j))])
        P = CumSum(s)
        for n in (-5, -1, 0, 3, 9):
            lhs = eval_signal(P, n + 1) - eval_signal(P, n)
            assert lhs == pytest.approx(eval_signal(s, n + 1))

    def test_table_window_enforced(self):
        t = TableSignal(-2, [1, 2, 3])
        with pytest.raises(WindowError):
            eval_signal(t, 1)

    def test_range_matches_pointwise(self):
        s = ExpPoly([(1.2, (1, 2)), (0.3, (1j,))])
        vals = eval_signal_range(s, -4, 4)
        for i, n in enumerate(range(-4, 5)):
            assert vals[i] == pytest.approx(eval_signal(s, n))

    @pytest.mark.parametrize("lo, hi", [(-7, 5), (-1, 12), (-20, 0), (0, 3), (-9, -2), (4, 11)])
    def test_cumsum_range_matches_definition(self, lo, hi):
        # P phi(n) = sum_{0<j<=n} phi(j), and -sum_{n<j<=0} phi(j) for n < 0
        inner = ExpPoly([(0.7, (1.0, 0.5j)), (2.1, (-2j,))])
        vals = eval_signal_range(CumSum(inner), lo, hi)
        for i, n in enumerate(range(lo, hi + 1)):
            if n >= 0:
                want = sum(eval_signal(inner, j) for j in range(1, n + 1))
            else:
                want = -sum(eval_signal(inner, j) for j in range(n + 1, 1))
            assert abs(vals[i] - want) <= 1e-12 * (1 + abs(want))


class TestDifference:
    def test_square_drops_to_linear(self):
        s = ExpPoly([(0.0, (0, 0, 1))])  # n^2
        d = difference_signal(s, 1)
        assert d.terms[0].coeffs == pytest.approx((1 + 0j, 2 + 0j))  # 2n + 1

    def test_geometric_closed_form(self):
        d = difference_signal(Geometric(2), 1)
        assert isinstance(d, Geometric)
        assert d.scale == pytest.approx(1.0)  # 2^{n+1} - 2^n = 2^n

    def test_character_factor(self):
        s = ExpPoly([(1.0, (1,))])  # e^{in}
        d = difference_signal(s, 1)
        assert d.terms[0].coeffs[0] == pytest.approx(cmath.exp(1j) - 1)

    def test_pointwise_consistency(self):
        s = ExpPoly([(0.9, (2, 1j, 0.25))])
        d = difference_signal(s, 3)
        for n in (-3, 0, 7):
            assert eval_signal(d, n) == pytest.approx(
                eval_signal(s, n + 3) - eval_signal(s, n)
            )

    def test_table_unsupported(self):
        with pytest.raises(TypeError):
            difference_signal(TableSignal(0, [1, 2]), 1)


class TestWeightedSup:
    def test_geometric_under_exponential_weight(self):
        assert weighted_sup(Geometric(2), ExponentialWeight(2), 100) <= 1.0

    def test_linear_under_power_weight(self):
        val = weighted_sup(linear(), PowerWeight(1), 100)
        assert val == pytest.approx(100 / 101)

    def test_constant(self):
        assert weighted_sup(constant_signal(3 + 4j), PowerWeight(0), 10) == pytest.approx(5.0)


class TestAnnihilate:
    def test_geometric_two_term(self):
        f = FinSeq({-1: 2, 1: -0.5})
        res = annihilate(f, Geometric(2))
        assert res.is_zero and res.residual == 0.0

    def test_identity(self):
        s = ExpPoly([(0.4, (1, 2))])
        res = annihilate(delta(0), s)
        assert not res.is_zero
        for n in (-2, 0, 5):
            assert eval_signal(res.signal, n) == pytest.approx(eval_signal(s, n))

    def test_difference_of_linear_is_constant(self):
        res = annihilate(FinSeq({-1: 1, 0: -1}), linear())
        assert not res.is_zero
        term = res.signal.terms[0]
        assert term.freq.t == 0.0 and len(term.coeffs) == 1

    def test_exppoly_killed_by_matched_order(self):
        # transform derivative vanishing at the term frequency up to its
        # degree forces symbolic annihilation
        s = ExpPoly([(0.0, (3, 1, 2))])  # degree 2 at frequency 0
        f = FinSeq({-1: 1, 0: -1})
        f3 = convolve(convolve(f, f), f)  # third difference pattern
        assert all(abs(fourier_eval(f3, 0.0, j)) < 1e-12 for j in range(3))
        assert annihilate(f3, s).is_zero

    def test_table_sliding_window(self):
        f = FinSeq({-1: 2, 1: -0.5})
        table = sample_signal(Geometric(2), -20, 20)
        res = annihilate(f, table)
        assert res.is_zero
        assert res.signal.start == -19 and res.signal.end == 19

    def test_table_window_underflow(self):
        with pytest.raises(WindowError):
            annihilate(FinSeq({-5: 1, 5: 1}), TableSignal(0, [1, 2, 3]))

    def test_composition(self):
        s = ExpPoly([(0.6, (1, 1j)), (2.0, (2,))])
        f = FinSeq({0: 1, 1: -0.5j})
        g = FinSeq({-2: 1, 0: 2})
        once = annihilate(convolve(f, g), s).signal
        twice = annihilate(f, annihilate(g, s).signal).signal
        for n in (-3, 0, 4):
            assert eval_signal(once, n) == pytest.approx(eval_signal(twice, n))

    def test_composition_on_tables(self):
        s = sample_signal(ExpPoly([(0.6, (1, 1j))]), -30, 30)
        f = FinSeq({0: 1, 1: -0.5j})
        g = FinSeq({-2: 1, 0: 2})
        once = annihilate(convolve(f, g), s).signal
        twice = annihilate(f, annihilate(g, s).signal).signal
        lo, hi = once.start, once.end
        a = eval_signal_range(once, lo, hi)
        b = eval_signal_range(twice, lo, hi)
        assert float(np.max(np.abs(a - b))) <= 1e-8

    def test_difference_commutes_with_annihilation(self):
        s = ExpPoly([(0.8, (1, 2, 0.5))])
        f = FinSeq({0: 1, 2: -1j})
        y = 2
        lhs = difference_signal(annihilate(f, s).signal, y)
        rhs = annihilate(f, difference_signal(s, y)).signal
        for n in (-4, 1, 6):
            assert eval_signal(lhs, n) == pytest.approx(eval_signal(rhs, n))


class TestStructuralOps:
    def test_translate_exppoly(self):
        s = ExpPoly([(0.5, (1, 1))])
        t = translate_signal(s, 2)
        for n in (-1, 0, 3):
            assert eval_signal(t, n) == pytest.approx(eval_signal(s, n + 2))

    def test_translate_geometric(self):
        t = translate_signal(Geometric(3, 2), 2)
        assert t.scale == pytest.approx(18.0)

    def test_modulate_shifts_frequencies(self):
        s = ExpPoly([(0.5, (1,))])
        m = modulate_signal(s, CirclePoint(0.7))
        assert m.terms[0].freq.t == pytest.approx(1.2)

    def test_add_merges_matching_frequencies(self):
        a = ExpPoly([(0.5, (1,)), (1.0, (2,))])
        b = ExpPoly([(0.5, (0, 1))])
        total = add_signals(a, b)
        assert len(total.terms) == 2
        for n in (0, 1, 5):
            assert eval_signal(total, n) == pytest.approx(
                eval_signal(a, n) + eval_signal(b, n)
            )

    def test_add_cancels_to_zero(self):
        a = ExpPoly([(0.5, (1,))])
        b = ExpPoly([(0.5, (-1,))])
        assert signal_is_zero(add_signals(a, b))

    def test_sample_round_trip(self):
        s = ExpPoly([(0.3, (1, 1j))])
        table = sample_signal(s, -5, 5)
        assert table.start == -5 and len(table.values) == 11
        assert table.values[5] == pytest.approx(eval_signal(s, 0))
