import numpy as np
import pytest

from beurling.errors import UnboundedSupportError
from beurling.integration import boundedness_probe, cumulative_P, k_transform
from beurling.seq_algebra import FinSeq, delta, fourier_eval
from beurling.signals import (
    CumSum,
    ExpPoly,
    Geometric,
    constant_signal,
    eval_signal,
    sample_signal,
)
from beurling.spectra import angles_of, decompose_finite_spectrum, spectrum_exppoly
from beurling.verify import random_exppoly
from beurling.seq_algebra import circle_distance


class TestCumulativeP:
    def test_wraps_in_cumsum(self):
        s = constant_signal(1.0)
        P = cumulative_P(s)
        assert isinstance(P, CumSum)
        assert eval_signal(P, 5) == pytest.approx(5.0)

    def test_linear_and_shift_predictable(self):
        s = ExpPoly([(0.9, (1, 1j))])
        P1 = cumulative_P(s)
        for n in (-4, 0, 7):
            step = eval_signal(P1, n + 1) - eval_signal(P1, n)
            assert step == pytest.approx(eval_signal(s, n + 1))

    def test_character_partial_sums_bounded_by_closed_form(self):
        P = cumulative_P(ExpPoly([(1.0, (1,))]))
        bound = 2.0 / abs(np.exp(1j) - 1.0)
        vals = [abs(eval_signal(P, n)) for n in range(-500, 501)]
        assert max(vals) <= bound + 1e-12


class TestKTransform:
    def test_difference_integrates_to_delta(self):
        assert k_transform(delta(0) - delta(1), 1) == delta(0)

    def test_unit_mass_fails_at_stage_one(self):
        with pytest.raises(UnboundedSupportError) as err:
            k_transform(delta(0), 1)
        assert err.value.stage == 1

    def test_double_zero_supports_two_iterations(self):
        f = FinSeq({0: 1, 1: -2, 2: 1})
        out = k_transform(f, 2)
        assert out == delta(0)
        assert abs(fourier_eval(out, 0.0)) > 0.5

    def test_failure_stage_reported(self):
        f = delta(0) - delta(1)  # single zero: second iteration must fail
        with pytest.raises(UnboundedSupportError) as err:
            k_transform(f, 2)
        assert err.value.stage == 2

    def test_matches_difference_inverse(self):
        # K f(n) = sum_{m<=n} (g(m-1) - g(m)) telescopes to -g(n)
        rng = np.random.default_rng(3)
        g = FinSeq({int(n): complex(v) for n, v in
                    zip(rng.integers(-5, 6, 4), rng.standard_normal(4))})
        f = g.shift(1) - g
        assert k_transform(f, 1) == -1 * g


class TestBoundednessProbe:
    def test_character_cumsum_bounded(self):
        probe = boundedness_probe(CumSum(ExpPoly([(1.0, (1,))])), [100, 1000, 10000])
        assert probe.verdict == "bounded"
        closed = 2.0 / abs(np.exp(1j) - 1.0)
        assert probe.sup_trace[-1][1] == pytest.approx(closed, rel=1e-6)

    def test_polynomial_character_unbounded(self):
        probe = boundedness_probe(ExpPoly([(1.0, (0, 1))]), [10, 100, 1000])
        assert probe.verdict == "unboundedTrend"

    def test_zero_signal(self):
        probe = boundedness_probe(ExpPoly(), [10, 100])
        assert probe.verdict == "bounded"
        assert probe.sup_trace[-1][1] == 0.0

    def test_constant_integrand_unbounded(self):
        probe = boundedness_probe(CumSum(constant_signal(1.0)), [100, 1000, 10000])
        assert probe.verdict == "unboundedTrend"

    def test_trace_nondecreasing(self):
        probe = boundedness_probe(CumSum(ExpPoly([(0.4, (1,)), (2.0, (1j,))])),
                                  [10, 100, 1000])
        sups = [s for _, s in probe.sup_trace]
        assert sups == sorted(sups)

    def test_non_finite_sup_raises(self):
        # 2^n overflows to inf inside the last window: no verdict from that
        with pytest.raises(ValueError, match="window 10000"):
            with np.errstate(all="ignore"):
                boundedness_probe(Geometric(2), [100, 1000, 10000])

    def test_window_validation(self):
        with pytest.raises(ValueError):
            boundedness_probe(ExpPoly(), [100])
        with pytest.raises(ValueError):
            boundedness_probe(ExpPoly(), [100, 100])


class TestSpectrumOfIntegral:
    def test_integral_adds_at_most_the_unit_character(self):
        # recovered frequencies of P phi sit inside freq(phi) + {0}
        rng = np.random.default_rng(21)
        for _ in range(10):
            s = random_exppoly(rng, max_freqs=2, max_degree=0, min_separation=0.1)
            if any(circle_distance(t.freq.t, 0.0) < 0.1 for t in s.terms):
                continue
            P = CumSum(s)
            rec = decompose_finite_spectrum(sample_signal(P, -50, 50), 3, 1)
            targets = list(angles_of(spectrum_exppoly(s))) + [0.0]
            for t in angles_of(spectrum_exppoly(rec)):
                assert any(circle_distance(t, u) <= 1e-7 for u in targets)

    def test_cor_54_surrogate(self):
        rng = np.random.default_rng(22)
        checked = 0
        for _ in range(15):
            s = random_exppoly(rng, max_freqs=3, max_degree=0, min_separation=0.1)
            if any(circle_distance(t.freq.t, 0.0) < 0.1 for t in s.terms):
                continue
            probe = boundedness_probe(CumSum(s), [100, 1000, 10000])
            assert probe.verdict == "bounded"
            checked += 1
        assert checked >= 5
