import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beurling import weights
from beurling.errors import WindowError
from beurling.signals import ExpPoly, Geometric, eval_signal_range, sample_signal
from beurling.weights import (
    SUBMULT_TOL,
    ExponentialWeight,
    PowerWeight,
    ProductWeight,
    SignalDerivedWeight,
    TableWeight,
    analyze_weight,
    check_beurling_domar,
    check_weight_axioms,
    classify_growth,
    eval_weight,
)


def log_eval_weight(w, n):  # log w(n) as the probes read it; eval_weight checks the window
    eval_weight(w, n)
    return weights._evaluate(w, n)[1].reshape(np.shape(n))[()]


def linear_signal():
    return ExpPoly([(0.0, (0, 1))])


# ---------------------------------------------------------------------------
# Scalar reference: one point at a time, exactly as each descriptor defines
# itself, with the axioms checked by the plain double loop over pairs and the
# probes fed term by term.


def ref_eval(w, n):
    if isinstance(w, PowerWeight):
        return (1.0 + abs(n)) ** w.exponent
    if isinstance(w, ExponentialWeight):
        return w.base ** n + w.base ** (-n)
    if isinstance(w, TableWeight):
        if abs(n) > w.half_window:
            raise WindowError(f"|{n}| exceeds table half window {w.half_window}")
        return w.values[abs(n)]
    if isinstance(w, ProductWeight):
        return ref_eval(w.left, n) * ref_eval(w.right, n)
    assert isinstance(w, SignalDerivedWeight)
    return 1.0 + 0.5 * (_ref_difference_sup(w, n) + _ref_difference_sup(w, -n))


def _ref_difference_sup(w, y):
    lo, hi = -w.sup_window, w.sup_window
    base = eval_signal_range(w.signal, lo, hi)
    shifted = eval_signal_range(w.signal, lo + y, hi + y)
    return float(np.max(np.abs(shifted - base)))


def ref_log_eval(w, n):
    if isinstance(w, PowerWeight):
        return w.exponent * math.log1p(abs(n))
    if isinstance(w, ExponentialWeight):
        k = abs(n)
        return k * math.log(w.base) + math.log1p(w.base ** (-2 * k))
    if isinstance(w, ProductWeight):
        return ref_log_eval(w.left, n) + ref_log_eval(w.right, n)
    value = ref_eval(w, n)
    if value <= 0:
        return float("-inf")
    if math.isinf(value):
        return float("inf")
    return math.log(value)


def ref_axioms(w, window):
    table = {}
    violations = []
    for n in range(-window, window + 1):
        try:
            table[n] = ref_eval(w, n)
        except WindowError:
            continue
    for n, v in sorted(table.items()):
        if not v >= 1.0:
            violations.append((n, 0, f"w({n}) = {v} < 1"))
    for n in range(-window, window + 1):
        if n not in table:
            continue
        for m in range(n, window + 1):
            if m not in table or not -window <= n + m <= window or (n + m) not in table:
                continue
            lhs, rhs = table[n + m], table[n] * table[m]
            if lhs > rhs * (1.0 + SUBMULT_TOL):
                violations.append((n, m, f"w({n}+{m}) = {lhs} > w({n})w({m}) = {rhs}"))
    return violations


def _checkpoints(M):
    if M < 1:
        return []
    return sorted({min(M, 2 ** k) for k in range(int(math.log2(M)) + 2)} | {1, M})


def _ref_logs(w, ns):
    logs = []
    for n in ns:
        try:
            logs.append(ref_log_eval(w, n))
        except WindowError:
            break
    return logs


def ref_beurling_domar(w, x, M):
    terms = [lw / (m * m) for m, lw in enumerate(_ref_logs(w, [m * x for m in range(1, M + 1)]), 1)]
    sums = np.cumsum(terms) if terms else np.array([])
    trace = [(m, float(sums[m - 1])) for m in _checkpoints(len(terms))]
    if len(terms) < 10:
        return "inconclusive", trace
    if any(math.isinf(t) or math.isnan(t) for t in terms):
        return "fails", trace
    peak = max(terms)
    if peak <= 1e-15:
        return "holds", trace
    top = len(terms)
    tail_terms = [(m, terms[m - 1]) for m in range(max(1, top // 10), top + 1)]
    b = [m * t for m, t in tail_terms]
    if min(b) >= 1e-3 and b[0] > 0 and (b[0] - b[-1]) / b[0] < 0.10:
        return "fails", trace
    positive = [(m, t) for m, t in tail_terms if t > 0]
    if len(positive) >= 3:
        slope = np.polyfit([math.log(m) for m, _ in positive],
                           [math.log(t) for _, t in positive], 1)[0]
        if slope <= -1.1 and terms[-1] <= 1e-3 * peak:
            return "holds", trace
    return "inconclusive", trace


def ref_growth(w, n_max, window):
    logs = dict(enumerate(_ref_logs(w, range(window + 1))))
    top = max(logs)
    if top < 10:
        return None
    tail = [m for m in range(max(1, top // 10), top + 1) if math.isfinite(logs[m])]
    if len(tail) < 3:
        return None
    log_m = [math.log(m) for m in tail]
    full = [m for m in logs if math.isfinite(logs[m])]
    for N in range(n_max, -1, -1):
        lower = [logs[m] - math.log1p(m ** N) for m in tail]
        if not all(map(math.isfinite, lower)) or np.polyfit(log_m, lower, 1)[0] < -0.1:
            continue
        for alpha in [0.5] + [a / 10 for a in range(1, 10) if a != 5]:
            upper = [logs[m] - math.log1p(m ** (N + alpha)) for m in tail]
            if np.polyfit(log_m, upper, 1)[0] > 0.1:
                continue
            c1 = math.exp(min(logs[m] - math.log1p(m ** N) for m in full))
            c2 = math.exp(max(logs[m] - math.log1p(m ** (N + alpha)) for m in full))
            return N, alpha, c1, c2
    return None


def close(a, b, rel=1e-12):
    """Equal within rel, with nan matching nan and infinities matching exactly."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b))


NAN = float("nan")
WAVE = ExpPoly([(0.7, (1, 0.5)), (2.0, (0.3j,))])
CORPUS = {
    "power-0": PowerWeight(0),
    "power-0.5": PowerWeight(0.5),
    "power-2.1": PowerWeight(2.1),
    "exp-1.5": ExponentialWeight(1.5),
    "exp-3": ExponentialWeight(3),
    "table-below-1": TableWeight(12, [1.0, 0.5, 2.0, 1.5, 3.0, 0.9, 4.0,
                                      4.0, 5.0, 6.0, 2.0, 8.0, 9.0]),
    "table-zero": TableWeight(3, [1.0, 0.0, 3.0, 1.0]),
    "table-negative": TableWeight(4, [1.0, -1.0, 2.0, -0.5, 1.0]),
    "table-nan": TableWeight(14, [1.0, 2.0, NAN] + [4.0] * 12),
    "product-nested": ProductWeight(ProductWeight(PowerWeight(1), ExponentialWeight(1.5)),
                                    PowerWeight(0.5)),
    "table-x-exp": ProductWeight(TableWeight(11, [1.0, 0.0, -2.0] + [3.0] * 9),
                                 ExponentialWeight(3)),
    "signal-exppoly": SignalDerivedWeight(WAVE, 15),
    "signal-table": SignalDerivedWeight(sample_signal(WAVE, -40, 40), 12),
}


class TestParityWithScalarReference:
    """The array evaluation and the probes built on it against the scalar
    reference: identical violations and verdicts, numbers within 1e-12."""

    WINDOW = 30

    @pytest.mark.parametrize("name", CORPUS)
    def test_values_and_window(self, name):
        w = CORPUS[name]
        ns = np.arange(-self.WINDOW, self.WINDOW + 1)
        want = {}
        for n in ns.tolist():
            try:
                want[n] = (ref_eval(w, n), ref_log_eval(w, n))
            except WindowError:
                with pytest.raises(WindowError):
                    eval_weight(w, n)
                with pytest.raises(WindowError):
                    log_eval_weight(w, n)
                continue
            assert close(eval_weight(w, n), want[n][0]) and close(log_eval_weight(w, n), want[n][1])
        inside = np.array(sorted(want))
        for got, ref in ((eval_weight(w, inside), 0), (log_eval_weight(w, inside), 1)):
            assert got.shape == inside.shape
            assert all(close(g, want[n][ref]) for n, g in zip(inside.tolist(), got.tolist()))
        if len(inside) < len(ns):
            with pytest.raises(WindowError):
                eval_weight(w, ns)

    @pytest.mark.parametrize("name", CORPUS)
    @pytest.mark.parametrize("window", [4, 12, WINDOW])  # 12 ends at a table's edge
    def test_axiom_violations(self, name, window):
        w = CORPUS[name]
        report = check_weight_axioms(w, window)
        assert list(report.violations) == ref_axioms(w, window)
        assert report.axioms_ok == (not report.violations)

    @pytest.mark.parametrize("name", ["power-2.1", "exp-3", "table-below-1", "table-nan", "table-x-exp"])
    @pytest.mark.parametrize("block", [1, 200, 1000])  # one row per block, 3 rows, 16 rows
    def test_axiom_blocks_split_anywhere(self, monkeypatch, name, block):
        monkeypatch.setattr(weights, "AXIOM_BLOCK", block)
        w = CORPUS[name]
        assert list(check_weight_axioms(w, self.WINDOW).violations) == ref_axioms(w, self.WINDOW)

    @pytest.mark.parametrize("window", [1, 2, 3, 40, 150, 300])
    def test_axiom_violations_on_wide_windows(self, window):
        table = TableWeight(300, np.random.default_rng(4).uniform(0.8, 3.0, 301))
        found = []
        for w in (table, ProductWeight(PowerWeight(0.5), table), PowerWeight(1.7), ExponentialWeight(1.2)):
            report = check_weight_axioms(w, window)
            assert list(report.violations) == ref_axioms(w, window)
            found.append(len(report.violations) > 0)
        assert found == [window >= 3, window >= 40, False, False]

    @pytest.mark.parametrize("name", CORPUS)
    @pytest.mark.parametrize("x", [1, -2])
    def test_probes(self, name, x):
        w = CORPUS[name]
        got, (verdict, trace) = check_beurling_domar(w, x, 300), ref_beurling_domar(w, x, 300)
        assert got.verdict == verdict
        assert [m for m, _ in got.trace] == [m for m, _ in trace]
        assert all(close(a, b) for (_, a), (_, b) in zip(got.trace, trace))

    @pytest.mark.parametrize("name", CORPUS)
    def test_growth(self, name):
        w = CORPUS[name]
        got, want = classify_growth(w, 3, 300), ref_growth(w, 3, 300)
        if want is None:
            assert got is None
        else:
            assert (got.N, got.alpha) == want[:2]
            assert close(got.c1, want[2]) and close(got.c2, want[3])

    def test_orbit_past_int64(self):
        x = 3 ** 40  # m x leaves the int64 range
        w = PowerWeight(2.1)
        got, (verdict, trace) = check_beurling_domar(w, x, 20), ref_beurling_domar(w, x, 20)
        assert got.verdict == verdict and [m for m, _ in got.trace] == [m for m, _ in trace]
        assert all(close(a, b) for (_, a), (_, b) in zip(got.trace, trace))

    def test_nan_inside_the_window_is_a_violation(self):
        w = CORPUS["table-nan"]
        assert (2, 0, "w(2) = nan < 1") in check_weight_axioms(w, 5).violations
        assert check_beurling_domar(w, 1, 100).verdict == "fails"

    def test_corpus_covers_every_outcome(self):
        # guard against a corpus that agrees only because nothing happens
        verdicts = {check_beurling_domar(w, 1, 300).verdict for w in CORPUS.values()}
        assert verdicts == {"holds", "fails", "inconclusive"}
        oks = {check_weight_axioms(w, self.WINDOW).axioms_ok for w in CORPUS.values()}
        assert oks == {True, False}
        assert any(classify_growth(w, 3, 300) for w in CORPUS.values())
        with pytest.raises(WindowError):
            eval_weight(CORPUS["signal-table"], self.WINDOW)


class TestEval:
    def test_exponential_worked_example(self):
        assert eval_weight(ExponentialWeight(2), 1) == pytest.approx(2.5)

    def test_power_identity(self):
        assert eval_weight(PowerWeight(1), 0) == pytest.approx(1.0)

    def test_signal_derived_linear(self):
        w = SignalDerivedWeight(linear_signal(), 100)
        assert eval_weight(w, 3) == pytest.approx(4.0)

    def test_symmetry(self):
        for w in (PowerWeight(1.5), ExponentialWeight(3),
                  SignalDerivedWeight(linear_signal(), 50)):
            for n in (1, 4, 9):
                assert eval_weight(w, n) == pytest.approx(eval_weight(w, -n))

    def test_table_window(self):
        w = TableWeight(2, [1.0, 2.0, 4.0])
        assert eval_weight(w, -2) == 4.0
        with pytest.raises(WindowError):
            eval_weight(w, 3)

    def test_product(self):
        w = ProductWeight(PowerWeight(1), ExponentialWeight(2))
        assert eval_weight(w, 1) == pytest.approx(2 * 2.5)

    def test_log_eval_avoids_overflow(self):
        lw = log_eval_weight(ExponentialWeight(2), 10_000)
        assert lw == pytest.approx(10_000 * math.log(2), rel=1e-12)

    def test_overflow_is_inf(self):
        vals = eval_weight(ExponentialWeight(2), np.array([10, 2000, -2000]))
        assert vals[0] == pytest.approx(1024 + 2.0 ** -10) and np.isinf(vals[1:]).all()

    def test_offsets_past_int64_stay_exact(self):
        assert eval_weight(PowerWeight(1), 2 ** 70) == float(2 ** 70 + 1)
        assert eval_weight(ExponentialWeight(2), [2 ** 70, 1])[1] == 2.5

    @pytest.mark.parametrize("base", [1.01, 2.0, 1e10])
    def test_exponential_is_the_power_expression_bit_for_bit(self, base):
        # every |n| up to 10^5, so every edge where b^k overflows, b^-k or
        # b^-2k underflows, and |k| log2 b passes 1100, from both signs
        k = np.arange(10 ** 5 + 1)
        kf = k.astype(float)
        with np.errstate(over="ignore"):
            want_vals = np.power(base, kf) + np.power(base, -kf)
            want_logs = kf * math.log(base) + np.log1p(np.power(base, -2.0 * kf))
        for n in (k, -k[::-1]):
            vals, logs, _ = weights._evaluate(ExponentialWeight(base), n)
            if n[0] < 0:
                vals, logs = vals[::-1], logs[::-1]
            assert vals.tobytes() == want_vals.tobytes()
            assert logs.tobytes() == want_logs.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerWeight(-1)
        with pytest.raises(ValueError):
            ExponentialWeight(1.0)
        with pytest.raises(ValueError):
            TableWeight(1, [1.0])


class TestAxioms:
    def test_power_passes(self):
        assert check_weight_axioms(PowerWeight(2), 50).axioms_ok

    def test_exponential_passes(self):
        assert check_weight_axioms(ExponentialWeight(2), 50).axioms_ok

    def test_bad_table_fails_with_violations(self):
        report = check_weight_axioms(TableWeight(1, [1.0, 0.5]), 1)
        assert not report.axioms_ok
        assert any(n == 1 and m == 0 for n, m, _ in report.violations)

    def test_signal_derived_passes(self):
        w = SignalDerivedWeight(ExpPoly([(1.0, (0, 1))]), 30)
        assert check_weight_axioms(w, 10).axioms_ok

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.1, 3), st.floats(1.1, 3))
    def test_product_of_passing_weights_passes(self, a, base):
        w = ProductWeight(PowerWeight(a), ExponentialWeight(base))
        assert check_weight_axioms(w, 20).axioms_ok

    def test_signal_derived_triangle_property(self):
        # alpha(y) = w_phi(y) - 1 is subadditive and even
        w = SignalDerivedWeight(ExpPoly([(0.7, (1, 0.5))]), 40)
        alpha = {y: eval_weight(w, y) - 1.0 for y in range(-12, 13)}
        for y in range(0, 13):
            assert alpha[y] == pytest.approx(alpha[-y])
        for y1 in range(-6, 7):
            for y2 in range(-6, 7):
                assert alpha[y1 + y2] <= alpha[y1] + alpha[y2] + 1e-9


    def test_overflowing_window_passes_in_log_space(self):
        # 2^n overflows a float from n = 1024 on
        assert check_weight_axioms(ExponentialWeight(2), 1100).axioms_ok

    def test_rows_stay_linear_in_memory(self):
        window = 1000
        tracemalloc.start()
        try:
            check_weight_axioms(PowerWeight(2.1), window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2 * window + 1) ** 2  # a full pair matrix of bools would take this

    def test_needs_a_defined_point(self):
        # the sampled window cannot hold the sup window [-10, 10]
        w = SignalDerivedWeight(sample_signal(linear_signal(), 0, 30), 10)
        with pytest.raises(WindowError, match="defined nowhere"):
            check_weight_axioms(w, 5)


class TestBeurlingDomar:
    def test_quadratic_power_holds(self):
        assert check_beurling_domar(PowerWeight(2), 1, 10_000).verdict == "holds"

    def test_exponential_fails(self):
        assert check_beurling_domar(ExponentialWeight(2), 1, 10_000).verdict == "fails"

    def test_trivial_weight_holds_quickly(self):
        assert check_beurling_domar(PowerWeight(0), 1, 10).verdict == "holds"

    def test_trace_is_partial_sums(self):
        res = check_beurling_domar(PowerWeight(2), 1, 1000)
        ms = [m for m, _ in res.trace]
        sums = [s for _, s in res.trace]
        assert ms == sorted(ms) and ms[-1] == 1000
        assert all(b >= a for a, b in zip(sums, sums[1:]))  # terms positive

    def test_short_evidence_is_inconclusive(self):
        # at M = 10 the exponential's tail still decreases noticeably, so
        # an honest probe refuses to decide
        assert check_beurling_domar(ExponentialWeight(2), 1, 10).verdict == "inconclusive"

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            check_beurling_domar(PowerWeight(1), 0, 100)
        with pytest.raises(ValueError):
            check_beurling_domar(PowerWeight(1), 1, 5)


class TestGrowthClass:
    def test_linear_power(self):
        g = classify_growth(PowerWeight(1), 3, 1000)
        assert g is not None and g.N == 1 and g.alpha == pytest.approx(0.5)

    def test_bounded_weight(self):
        g = classify_growth(PowerWeight(0), 3, 1000)
        assert g is not None and g.N == 0

    def test_exponential_has_no_class(self):
        assert classify_growth(ExponentialWeight(2), 3, 1000) is None

    def test_quadratic(self):
        g = classify_growth(PowerWeight(2), 3, 1000)
        assert g is not None and g.N == 2

    def test_weight_undefined_at_zero_is_an_input_error(self):
        # the sampled window cannot hold the sup window itself
        w = SignalDerivedWeight(sample_signal(linear_signal(), 0, 30), 10)
        with pytest.raises(WindowError, match="not defined at 0"):
            classify_growth(w, 3, 100)

    def test_constants_bracket_the_weight(self):
        g = classify_growth(PowerWeight(1.3), 3, 500)
        assert g is not None
        for m in range(0, 501, 50):
            w = eval_weight(PowerWeight(1.3), m)
            assert g.c1 * (1 + m ** g.N) <= w * (1 + 1e-9)
            assert w <= g.c2 * (1 + m ** (g.N + g.alpha)) * (1 + 1e-9)


class TestAnalyze:
    def test_full_report(self):
        report = analyze_weight(ExponentialWeight(2), window=20, terms=1000)
        assert report.axioms_ok
        assert report.beurling_domar.verdict == "fails"
        assert report.growth is None

    def test_geometric_signal_weight_matches_closed_form(self):
        # differences of 2^n grow like the signal itself
        w = SignalDerivedWeight(Geometric(2), 20)
        val = eval_weight(w, 1)
        # sup |2^{x+1} - 2^x| over |x| <= 20 is 2^20; both orientations add
        expected = 1 + 0.5 * (2.0 ** 20 + 2.0 ** 19)
        assert val == pytest.approx(expected)
