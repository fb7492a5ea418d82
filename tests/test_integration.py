import math
import tracemalloc

import numpy as np
import pytest

from beurling import integration
from beurling.errors import UnboundedSupportError, WindowError
from beurling.integration import (
    MAX_PROBE_WINDOW,
    BoundednessVerdict,
    boundedness_probe,
    cumulative_P,
    k_transform,
)
from beurling.seq_algebra import FinSeq, delta, fourier_eval
from beurling.signals import (
    CHUNK,
    CumSum,
    ExpPoly,
    Geometric,
    TableSignal,
    constant_signal,
    eval_signal_range,
    sample_signal,
)
from beurling.spectra import angles_of, decompose_finite_spectrum, spectrum_exppoly
from beurling.verify import random_exppoly
from beurling.seq_algebra import circle_distance


def eval_signal(s, n):  # one sample
    return complex(eval_signal_range(s, n, n)[0])


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
        assert k_transform(delta(0) - delta(1)) == delta(0)

    def test_unit_mass_fails_at_stage_one(self):
        with pytest.raises(UnboundedSupportError):
            k_transform(delta(0))

    def test_double_zero_supports_two_iterations(self):
        f = FinSeq({0: 1, 1: -2, 2: 1})
        out = k_transform(k_transform(f))
        assert out == delta(0)
        assert abs(fourier_eval(out, 0.0)) > 0.5

    def test_failure_stage_reported(self):
        f = delta(0) - delta(1)  # single zero: the second application raises
        once = k_transform(f)
        with pytest.raises(UnboundedSupportError):
            k_transform(once)

    def test_matches_difference_inverse(self):
        # K f(n) = sum_{m<=n} (g(m-1) - g(m)) telescopes to -g(n)
        rng = np.random.default_rng(3)
        g = FinSeq({int(n): complex(v) for n, v in
                    zip(rng.integers(-5, 6, 4), rng.standard_normal(4))})
        f = g.shift(1) - g
        assert k_transform(f) == -1 * g


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


def whole_window_range(s, lo, hi):
    """Reference evaluation on [lo, hi] in one piece: direct exps per point,
    and a running sum as one prefix array over the whole span."""
    ns = np.arange(lo, hi + 1)
    if isinstance(s, ExpPoly):
        out = np.zeros(len(ns), dtype=complex)
        for term in s.terms:
            poly = np.zeros(len(ns), dtype=complex)
            for j in range(len(term.coeffs) - 1, -1, -1):
                poly = poly * ns + term.coeffs[j]
            out += np.exp(1j * term.freq.t * ns) * poly
        return out
    if isinstance(s, CumSum):
        span_lo, span_hi = min(lo, 0) + 1, max(hi, 0)
        if span_hi < span_lo:
            return np.zeros(len(ns), dtype=complex)
        prefix = np.concatenate(([0j], np.cumsum(whole_window_range(s.inner, span_lo, span_hi))))
        return prefix[ns - span_lo + 1] - prefix[1 - span_lo]
    if isinstance(s, TableSignal):
        if lo < s.start or hi > s.end:
            raise WindowError(f"range [{lo}, {hi}] outside table window [{s.start}, {s.end}]")
        return np.asarray(s.values[lo - s.start: hi - s.start + 1], dtype=complex)
    out = np.empty(len(ns), dtype=complex)  # Geometric
    with np.errstate(over="ignore"):
        mag = np.power(float(s.ratio), ns.astype(float))
        out.real, out.imag = (c * mag if c else 0.0 for c in (s.scale.real, s.scale.imag))
    return out


def whole_window_probe(s, windows):
    """Reference probe: |phi| over the whole top window at once, then the
    same decision rules as boundedness_probe."""
    top = windows[-1]
    vals = np.abs(whole_window_range(s, -top, top))
    sups = [float(np.max(vals[top - w:top + w + 1])) for w in windows]
    for w, sup in zip(windows, sups):
        if not math.isfinite(sup):
            raise ValueError(f"sup of |phi| over window {w} is {sup}")
    trace = tuple(zip(windows, sups))
    last, prev = sups[-1], sups[-2]
    if abs(last - prev) <= integration.STABILIZE_REL * max(last, 1e-12):
        return BoundednessVerdict("bounded", trace)
    increments = [b - a for a, b in zip(sups, sups[1:])]
    ratio = None
    if len(increments) >= 2 and increments[-2] > 0:
        ratio = increments[-1] / increments[-2]
        if ratio <= integration.INCREMENT_DECAY:
            return BoundednessVerdict("bounded", trace)
    decades = math.log10(windows[-1] / windows[-2])
    if prev > 0 and last <= prev * (1.0 + integration.SLOW_GROWTH_PER_DECADE * decades):
        return BoundednessVerdict("bounded", trace)
    if (ratio is not None and ratio >= integration.SUPERLINEAR_RATIO
            and last >= 1.1 * prev):
        return BoundednessVerdict("unboundedTrend", trace)
    return BoundednessVerdict("inconclusive", trace)


def _outcome(probe, s, windows):
    """The verdict and trace, or the error class and the window it names."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return probe(s, windows)
    except WindowError:
        return "WindowError"
    except ValueError as exc:
        return ("ValueError", str(exc).split(" is ")[0])


#: Windows at chunk edges: the streamed probe cuts its chunks there.
EDGES = [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1]
SAMPLED = ExpPoly([(0.4, (1,)), (2.2, (-0.5j,))])


def _signals(top):
    """Each signal class, with tables covering exactly the samples a probe
    to ``top`` reads: [-top, top], and [-top+1, top] under a running sum."""
    return {
        "expPoly": ExpPoly([(0.9, (1,)), (2.3, (0.5j, 1e-4))]),
        "cumsum": CumSum(ExpPoly([(0.5, (1,)), (1.7, (0.3j,)), (2.9, (-0.4,))])),
        "cumsum2": CumSum(CumSum(ExpPoly([(0.5, (1,)), (2.0, (0.2j,))]))),
        "geometric": Geometric(1.0005, 1 - 2j),
        "table": sample_signal(SAMPLED, -top, top),
        "cumsumTable": CumSum(sample_signal(SAMPLED, -top + 1, top)),
    }


class TestProbeParity:
    @pytest.mark.parametrize("top", EDGES)
    @pytest.mark.parametrize("kind", list(_signals(1)))
    def test_same_verdict_and_sups_as_the_whole_window(self, top, kind):
        s = _signals(top)[kind]
        windows = [7] + [w for w in EDGES if w < top] + [top]
        new, ref = boundedness_probe(s, windows), whole_window_probe(s, windows)
        assert new.verdict == ref.verdict
        assert [w for w, _ in new.sup_trace] == windows
        for (_, a), (_, b) in zip(new.sup_trace, ref.sup_trace):
            assert abs(a - b) <= 1e-12 * b

    @pytest.mark.parametrize("top", [CHUNK, 2 * CHUNK + 1])
    def test_same_window_errors(self, top):
        windows = [10, top]
        short = [TableSignal(-top + 1, np.ones(2 * top)),      # misses -top
                 TableSignal(-top, np.ones(2 * top)),          # misses top
                 CumSum(TableSignal(-top + 2, np.ones(2 * top - 1))),
                 CumSum(TableSignal(-top + 1, np.ones(2 * top - 1)))]
        for s in short:
            assert _outcome(boundedness_probe, s, windows) == "WindowError"
            assert _outcome(whole_window_probe, s, windows) == "WindowError"

    @pytest.mark.parametrize("s, window", [
        (Geometric(2), 1025),
        (Geometric(0.5, -1j), 1025),
        (CumSum(Geometric(2)), 1023),  # 2^1024 - 2 rounds up to inf at n = 1023
        # P phi(-m) = -(2^m - 1)(1 + i) stays finite below m = 1024; the whole-window
        # reference subtracts two infinite prefixes there and reads nan from window 100
        (CumSum(Geometric(0.5, 1 + 1j)), 1025),
        (TableSignal(-CHUNK - 1, np.where(np.arange(-CHUNK - 1, CHUNK + 2) == -500, np.inf, 1.0)), 600),
        (CumSum(TableSignal(-CHUNK, np.where(np.arange(-CHUNK, CHUNK + 2) == 700, np.nan, 1.0))), 1023),
    ])
    def test_same_non_finite_errors(self, s, window):
        windows = [100, 600, 1023, 1025, 2000, CHUNK + 1]
        assert _outcome(boundedness_probe, s, windows) == ("ValueError", f"sup of |phi| over window {window}")
        assert _outcome(whole_window_probe, s, windows)[0] == "ValueError"


class TestProbeSups:
    SIGNALS = [
        ExpPoly([(1.1, (0.7 - 0.2j,))]),
        ExpPoly([(0.4, (1, 0.3j)), (2.6, (-0.5j,))]),
        ExpPoly([(0.3, (1, 0.01j, 1e-5)), (1.9, (0.5j, -1e-3)), (-2.7, (0.25,))]),
        CumSum(ExpPoly([(0.5, (1,)), (1.7, (0.3j,)), (2.9, (-0.4,))])),
        CumSum(ExpPoly([(0.9, (1, 1e-3j)), (-1.3, (0.5,))])),
        CumSum(CumSum(ExpPoly([(0.5, (1,)), (2.0, (0.2j,))]))),
    ]

    @pytest.mark.parametrize("s", SIGNALS)
    def test_each_sup_is_the_largest_evaluated_modulus(self, s):
        # bit for bit: every chunk is summarised on contiguous memory, as a range is
        windows = [3, 100, 1000, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK]
        for w, sup in boundedness_probe(s, windows).sup_trace:
            assert sup == float(np.max(np.abs(eval_signal_range(s, -w, w)))), w


def test_modulus_past_the_float_range_reads_inf():
    # both parts of phi(-936) are finite, and its modulus is not
    s = Geometric(0.46957801080258676, 1 + 9.375j)
    with pytest.raises(ValueError, match=r"sup of \|phi\| over window 936 is inf"):
        boundedness_probe(s, [1, 936])


def test_running_sum_near_zero_is_exact_on_a_growing_table():
    # The whole-window reference differences two prefix sums of size ~1e5
    # and loses about 6e-12 near 0; summing outward from 0 does not.
    top = 2 * CHUNK
    table = sample_signal(ExpPoly([(0.4, (1, 0.3j))]), -top + 1, top)
    sups = dict(boundedness_probe(CumSum(table), [3, 7, top]).sup_trace)
    inner = np.array(table.values)
    for w in (3, 7):
        exact = max(abs(complex(math.fsum(side.real), math.fsum(side.imag)))
                    for m in range(1, w + 1)
                    for side in (inner[top: top + m], -inner[top - m: top]))
        assert abs(sups[w] - exact) <= 4 * np.finfo(float).eps * exact


class TestProbeRadius:
    @pytest.mark.parametrize("top", [2 ** 70, MAX_PROBE_WINDOW + 1])
    def test_refused_before_evaluating(self, top):
        # evaluating this one-sample table anywhere but 0 would raise WindowError
        with pytest.raises(ValueError, match="MAX_PROBE_WINDOW") as err:
            boundedness_probe(TableSignal(0, [1.0]), [1, top])
        assert not isinstance(err.value, WindowError)

    def test_admits_the_streaming_target(self):
        assert MAX_PROBE_WINDOW >= 10 ** 8

    def test_memory_is_o_chunk(self):
        s = CumSum(ExpPoly([(0.5, (1,))]))
        tracemalloc.start()
        try:
            probe = boundedness_probe(s, [10, 10 ** 7])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert probe.verdict == "bounded"
        assert peak < 16 * 2 ** 20


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
