import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beurling.errors import WindowError
from beurling.seq_algebra import PRUNE_REL, CirclePoint, FinSeq, convolve, delta, vanishing_order
from beurling.signals import (
    CHUNK,
    PHASE_BLOCK,
    CumSum,
    ExpPoly,
    Geometric,
    TableSignal,
    add_signals,
    annihilate,
    constant_signal,
    difference_signal,
    eval_signal_range,
    modulate_signal,
    outward_chunks,
    sample_signal,
    scale_signal,
    signal_is_zero,
    translate_signal,
)


def eval_signal(s, n):  # one sample
    return complex(eval_signal_range(s, n, n)[0])


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
        for ratio, scale in [(-1.0, 1.0), (math.inf, 1.0), (math.nan, 1.0),
                             (2.0, complex(math.inf, 0)), (2.0, complex(0, math.nan))]:
            with pytest.raises(ValueError):
                Geometric(ratio, scale)

    def test_table_needs_samples(self):
        with pytest.raises(ValueError):
            TableSignal(0, [])

    def test_table_holds_a_read_only_copy(self):
        given = np.array([1.0, 2j, -3.0])
        t = TableSignal(-2, given)
        given[0] = 99
        assert t.values.dtype == complex and not t.values.flags.writeable
        assert np.array_equal(t.values, [1, 2j, -3])
        with pytest.raises(ValueError):
            t.values[0] = 5
        with pytest.raises(ValueError):
            TableSignal(0, np.ones((2, 2)))

    def test_table_value_equality_and_hash(self):
        a, b = TableSignal(-2, [1, 2j, -3]), TableSignal(-2, (1.0, 2j, -3 + 0j))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != TableSignal(-1, [1, 2j, -3]) and a != TableSignal(-2, [1, 2j, -3, 0])
        assert TableSignal(0, [0.0]) == TableSignal(0, [-0.0])
        assert hash(TableSignal(0, [0.0])) == hash(TableSignal(0, [-0.0]))
        assert CumSum(a) == CumSum(b)

    def test_table_operations_return_fresh_arrays(self):
        t = TableSignal(0, [1.0, 2.0, 3.0, 4.0])
        vals = eval_signal_range(t, 1, 2)
        vals[0] = 7  # a fresh array, not a view of the table
        assert np.array_equal(t.values, [1, 2, 3, 4])
        assert np.array_equal(scale_signal(t, 2j).values, [2j, 4j, 6j, 8j])
        assert signal_is_zero(scale_signal(t, 0)) and not signal_is_zero(t)


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


def direct_exppoly_range(s, lo, hi):
    """Reference: one exp per point and term, Horner on fresh arrays."""
    ns = np.arange(lo, hi + 1)
    out = np.zeros(len(ns), dtype=complex)
    for term in s.terms:
        poly = np.zeros(len(ns), dtype=complex)
        for j in range(len(term.coeffs) - 1, -1, -1):
            poly = poly * ns + term.coeffs[j]
        out += np.exp(1j * term.freq.t * ns) * poly
    return out


class TestPhaseTable:
    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("degree", [0, 1, 2])
    @pytest.mark.parametrize("length", [1, PHASE_BLOCK - 1, PHASE_BLOCK, PHASE_BLOCK + 1])
    @pytest.mark.parametrize("offset", [-10**9, -10**5, -5, 10**5, 10**9])
    def test_within_rounding_of_the_direct_formula(self, degree, length, offset):
        # |new - direct| <= 4 eps (1 + |t n|) sum_j |c_j| |n|^j at every point
        rng = np.random.default_rng(abs(offset) % 97 + 10 * degree + length)
        for _ in range(4):
            coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            s = ExpPoly([(rng.uniform(-np.pi, np.pi), coeffs)])
            for lo in (offset, offset - length + 1, offset - int(rng.integers(PHASE_BLOCK))):
                hi = lo + length - 1
                ns = np.abs(np.arange(lo, hi + 1, dtype=float))
                scale = sum(abs(c) * ns ** j for j, c in enumerate(coeffs))
                bound = 4 * self.EPS * (1 + s.terms[0].freq.t * ns) * scale
                err = np.abs(eval_signal_range(s, lo, hi) - direct_exppoly_range(s, lo, hi))
                assert np.all(err <= bound), (lo, hi, float(np.max(err / bound)))

    def test_range_across_zero_matches_pointwise(self):
        s = ExpPoly([(0.9, (1, -2j, 0.5)), (2.3, (1j,))])
        lo, hi = -3 * PHASE_BLOCK - 7, 2 * PHASE_BLOCK + 5
        vals = eval_signal_range(s, lo, hi)
        for n in (lo, -PHASE_BLOCK - 1, -PHASE_BLOCK, -1, 0, 1, PHASE_BLOCK, hi):
            assert vals[n - lo] == pytest.approx(eval_signal(s, n), rel=1e-12)


class TestOutwardChunks:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("start, stop", [(0, 1), (0, CHUNK + 2), (1, 2 * CHUNK + 1),
                                             (CHUNK - 1, CHUNK + 1), (5, 9)])
    def test_nested_cumsum_streams_the_whole_range(self, sign, start, stop):
        s = CumSum(CumSum(ExpPoly([(0.5, (1,)), (2.0, (0.2j, 0.01))])))
        chunks = [c.copy() for c in outward_chunks(s, sign, start, stop)]  # each is valid until the next
        assert all(len(c) <= CHUNK for c in chunks)
        got = np.concatenate(chunks)
        lo, hi = sorted((sign * start, sign * (stop - 1)))
        want = eval_signal_range(s, lo, hi)
        assert np.array_equal(got, want if sign > 0 else want[::-1])

    def test_running_sum_matches_a_whole_cumsum(self):
        inner = ExpPoly([(0.7, (1.0, 0.5j))])
        got = np.concatenate([c.copy() for c in outward_chunks(CumSum(inner), 1, 0, 3 * CHUNK)])
        want = np.concatenate(([0j], np.cumsum(eval_signal_range(inner, 1, 3 * CHUNK - 1))))
        assert np.array_equal(got, want)  # the carry keeps the sum sequential

    KINDS = {  # every signal kind; the table reaches three chunks each way
        "expPoly": ExpPoly([(0.5, (1, 0.3j)), (2.0, (0.2j,))]),
        "geometric": Geometric(1.0001, 1 - 1j),
        "table": TableSignal(-3 * CHUNK, np.arange(6 * CHUNK + 1) * (1 + 0.5j)),
        "cumsum": CumSum(ExpPoly([(0.5, (1,))])),
        "cumsum2": CumSum(CumSum(TableSignal(-3 * CHUNK, np.ones(6 * CHUNK + 1)))),
    }

    @pytest.mark.parametrize("start", [0, 1, CHUNK - 1])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("kind", KINDS)
    def test_chunks_are_contiguous_views_of_one_buffer(self, kind, sign, start):
        chunks = outward_chunks(self.KINDS[kind], sign, start, 2 * CHUNK + 3)
        prev = next(chunks)
        assert prev.flags.c_contiguous
        count = 1
        for chunk in chunks:
            assert chunk.flags.c_contiguous
            assert np.shares_memory(chunk, prev)  # a fresh array per chunk fails here
            prev, count = chunk, count + 1
        assert count >= 3

    def test_cumsum_ranges_are_independent_arrays(self):
        s = CumSum(ExpPoly([(0.5, (1,)), (2.0, (0.2j,))]))
        a = eval_signal_range(s, -CHUNK - 2, CHUNK + 2)
        b = eval_signal_range(s, -CHUNK - 2, CHUNK + 2)
        assert not np.shares_memory(a, b)
        kept = a.copy()
        b[:] = 0
        assert np.array_equal(a, kept) and np.array_equal(eval_signal_range(s, -CHUNK - 2, CHUNK + 2), kept)

    @pytest.mark.parametrize("n", [-CHUNK - 1, -CHUNK, -2, -1, 1, 2, CHUNK, CHUNK + 1])
    def test_a_sample_does_not_depend_on_the_range(self, n):
        # one-sample ranges and chunks round as the samples of longer ones do
        inner = ExpPoly([(0.9, (1, -2j, 0.5)), (2.3, (1j, 0.25))])
        for s in (inner, CumSum(inner)):
            want = eval_signal_range(s, -2 * CHUNK, 2 * CHUNK)[n + 2 * CHUNK]
            for lo, hi in ((n, n), (n - 1, n), (n, n + 1), (min(n, 0), max(n, 0))):
                assert eval_signal_range(s, lo, hi)[n - lo] == want, (lo, hi)

    def test_table_read_only_on_the_running_sum_domain(self):
        # P phi on [-4, 6] reads phi on [-3, 6] and nowhere else
        table = TableSignal(-3, np.arange(1.0, 11.0))
        vals = eval_signal_range(CumSum(table), -4, 6)
        assert vals[4] == 0 and vals[-1] == pytest.approx(sum(range(5, 11)))
        with pytest.raises(WindowError):
            eval_signal_range(CumSum(table), -5, 6)
        with pytest.raises(WindowError):
            eval_signal_range(CumSum(table), -4, 7)


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
        assert vanishing_order(f3, 0.0) >= 3
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


# ---------------------------------------------------------------------------
# the correlation kernel against the per-entry closed forms it replaced

EPS = np.finfo(float).eps


def poly_shift(coeffs, y):
    """Reference: coefficients of p(n + y) given those of p(n), exact binomials."""
    out = [0j] * len(coeffs)
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        for l in range(j + 1):
            out[l] += c * math.comb(j, l) * y ** (j - l)
    return out


def reference_correlation(pairs, s):
    """Reference: per term, sum_m g(m) e^{itm} p(n + m) one offset at a time,
    unpruned, with each coefficient's a-priori bound
    sum_{j >= l} C(j, l) |c_j| sum_m |g(m)| |m|^{j-l}."""
    rows, bounds = [], []
    for term in s.terms:
        q = [0j] * len(term.coeffs)
        for m, gv in pairs:
            factor = gv * cmath.exp(1j * term.freq.t * m)
            for l, c in enumerate(poly_shift(term.coeffs, m)):
                q[l] += factor * c
        rows.append(q)
        bounds.append([sum(abs(gv) * sum(math.comb(j, l) * abs(c) * float(abs(m)) ** (j - l)
                                         for j, c in enumerate(term.coeffs) if j >= l)
                           for m, gv in pairs)
                       for l in range(len(term.coeffs))])
    return rows, bounds


def reference_table(f, s):
    """Reference: the per-entry loop over the valid sub-window."""
    m_lo, m_hi = f.support()
    lo, hi = s.start - m_lo, s.end - m_hi
    out = np.zeros(hi - lo + 1, dtype=complex)
    for m, fv in f:
        out += fv.conjugate() * eval_signal_range(s, lo + m, hi + m)
    return lo, out


def assert_matches_reference(out, s, pairs):
    """Each coefficient within PRUNE_REL of its own bound of the reference,
    plus rounding: of the M-entry sums, and of the phases, whose angles
    t m (reference) and t m_0, t (m - m_0) (kernel) each round by up to
    eps/2 of |t| < 6 times at most twice the reach max|m|."""
    rows, bounds = reference_correlation(pairs, s)
    got = {term.freq: term.coeffs for term in out.terms}
    reach = max(abs(m) for m, _ in pairs)
    slack = PRUNE_REL + (8 * (len(pairs) + 8) + 12 * reach) * EPS
    for term, row, bound in zip(s.terms, rows, bounds):
        coeffs = got.get(term.freq, ())
        assert len(coeffs) <= len(row)
        for l, want in enumerate(row):
            have = coeffs[l] if l < len(coeffs) else 0
            assert abs(have - want) <= slack * bound[l], (l, have, want, bound[l])


@st.composite
def exppolys(draw, max_degree=3):
    """1-3 terms of degree 0..max_degree at distinct frequencies, each with
    its own coefficient scale 1e-13 .. 1e3."""
    ks = draw(st.lists(st.integers(0, 16), min_size=1, max_size=3, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    terms = []
    for k in ks:
        degree, scale = draw(st.integers(0, max_degree)), 10.0 ** draw(st.integers(-13, 3))
        coeffs = scale * (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
        terms.append((2 * math.pi * k / 17, coeffs))
    return ExpPoly(terms)


@st.composite
def annihilators(draw):
    """Up to 10^3 complex entries: dense on a run of offsets, or sparse and
    wide (one offset in 20)."""
    size, wide = draw(st.integers(1, 1000)), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    offsets = np.sort(rng.choice(20 * size, size, replace=False)) if wide else np.arange(size)
    offsets += draw(st.integers(-100, 100))
    values = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return FinSeq(zip(offsets.tolist(), values.tolist()))


class TestCorrelationKernel:
    @settings(max_examples=40, deadline=None)
    @given(s=exppolys(), f=annihilators())
    def test_annihilate_matches_the_per_entry_closed_form(self, s, f):
        res = annihilate(f, s)
        assert_matches_reference(res.signal, s, [(m, v.conjugate()) for m, v in f])
        assert res.is_zero == (not res.signal.terms)

    @settings(max_examples=60, deadline=None)
    @given(s=exppolys(max_degree=6), y=st.integers(-10 ** 4, 10 ** 4))
    def test_translate_and_difference_match_the_closed_form(self, s, y):
        assert_matches_reference(translate_signal(s, y), s, [(y, 1)])
        assert_matches_reference(difference_signal(s, y), s, [(y, 1), (0, -1)])

    @settings(max_examples=40, deadline=None)
    @given(s=exppolys(), f=annihilators())
    def test_pointwise_against_the_defining_sum(self, s, f):
        out = annihilate(f, s).signal
        (m_lo, m_hi), (_, dense) = f.support(), f._dense()
        reach = max(abs(m_lo), abs(m_hi))
        for n in (-3, 0, 5):
            want = np.sum(np.conj(dense) * eval_signal_range(s, n + m_lo, n + m_hi))
            # pruning moves each coefficient by PRUNE_REL of its own bound;
            # phases of t(n + m) round by eps |t (n + m)| on either side
            _, bounds = reference_correlation([(m, abs(v)) for m, v in f], s)
            scale = sum(b * abs(n) ** l for row in bounds for l, b in enumerate(row))
            slack = PRUNE_REL + 8 * (len(f) + 4) * (1 + 7 * (abs(n) + reach)) * EPS
            assert abs(eval_signal(out, n) - want) <= slack * scale

    @settings(max_examples=40, deadline=None)
    @given(f=annihilators(), extra=st.integers(0, 200), start=st.integers(-300, 300),
           power=st.integers(-13, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_complex_table_matches_the_per_entry_loop(self, f, extra, start, power, seed):
        m_lo, m_hi = f.support()
        rng = np.random.default_rng(seed)
        length = m_hi - m_lo + 1 + extra
        table = TableSignal(start, 10.0 ** power * (rng.standard_normal(length)
                                                    + 1j * rng.standard_normal(length)))
        res = annihilate(f, table)
        lo, want = reference_table(f, table)
        got = np.asarray(res.signal.values)
        peak = max(abs(v) for v in table.values)
        assert res.signal.start == lo and len(got) == len(want)
        assert np.max(np.abs(got - want)) <= 4 * len(f) * EPS * f.abs_sum() * peak
        assert res.residual == float(np.max(np.abs(got)))
        assert res.is_zero == (res.residual <= 1e-8 * f.abs_sum() * peak)

    def test_geometric_factor(self):
        f = FinSeq({-2: 1 + 1j, 0: 3, 5: -0.25j})
        res = annihilate(f, Geometric(1.5, 2 - 1j))
        want = (2 - 1j) * sum(v.conjugate() * 1.5 ** m for m, v in f)
        assert res.signal.scale == pytest.approx(want, rel=1e-14) and not res.is_zero

    @settings(max_examples=60, deadline=None)
    @given(s=exppolys(), y=st.integers(-50, 50).filter(bool))
    def test_difference_is_annihilation_by_a_step(self, s, y):
        assert difference_signal(s, y) == annihilate(delta(y) - delta(0), s).signal

    @pytest.mark.parametrize("s", [ExpPoly([(1.0, (1e-13,))]), Geometric(2, 1e-13),
                                   ExpPoly([(0.0, (1e-13, 2)), (2.5, (0, 1e-14j))])])
    def test_difference_and_annihilation_share_one_zero_rule(self, s):
        assert difference_signal(s, 1) == annihilate(FinSeq({1: 1, 0: -1}), s).signal
        assert not signal_is_zero(difference_signal(s, 1))

    @pytest.mark.parametrize("margin, pruned", [(0.98, True), (1.02, False)])
    def test_zero_rule_is_prune_rel_of_the_a_priori_bound(self, margin, pruned):
        # at offset 10, e^{i0x}(c0 + x) has constant coefficient c0 + 10 and
        # bound |c0| + 10 = 20 - tiny; a sum's bound is sum_j (|a_j| + |b_j|) = 2
        tiny = margin * PRUNE_REL * 20
        s = ExpPoly([(0.0, (-10 + tiny, 1))])
        for out in (translate_signal(s, 10), annihilate(delta(10), s).signal):
            assert (out.terms[0].coeffs[0] == 0) == pruned
        total = add_signals(constant_signal(1), constant_signal(-1 + margin * PRUNE_REL * 2))
        assert signal_is_zero(total) == pruned

    @pytest.mark.parametrize("coeffs, y", [((0,) * 6 + (1,), 100), ((1, 0, 0, 1), 10 ** 4),
                                           ((0,) * 6 + (1,), -10 ** 4)])
    def test_translate_keeps_the_leading_term(self, coeffs, y):
        # each coefficient has its own bound: the leading one is |c_deg|, not
        # the whole term's sum_j |c_j| (1 + |y|)^j, which is larger by |y|^deg
        out = translate_signal(ExpPoly([(0.0, coeffs)]), y)
        assert out.terms[0].degree() == len(coeffs) - 1
        for n in (-3, 0, 10):
            want = sum(c * (n + y) ** j for j, c in enumerate(coeffs))
            assert eval_signal(out, n) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("k", range(17))
    def test_annihilator_far_from_zero_still_annihilates(self, k):
        # phases taken from the first offset: only the support's width enters
        t = 2 * math.pi * k / 17
        f = convolve(delta(10 ** 4), FinSeq({0: 1, 1: -cmath.exp(1j * t)}))
        assert annihilate(f, ExpPoly([(t, (1,))])).is_zero
        f2 = convolve(f, FinSeq({0: 1, 1: -cmath.exp(1j * t)}))
        assert annihilate(f2, ExpPoly([(t, (2, -1j))])).is_zero

    def test_non_finite_table_is_refused(self):
        f = FinSeq({0: 1, 3: -1})
        for bad in (math.inf, math.nan, complex(1, -math.inf)):
            table = TableSignal(0, [1, 2, bad, 4, 5, 6, 7, 8])
            with pytest.raises(ValueError):
                annihilate(f, table)
        with pytest.raises(ValueError):  # finite samples, overflowing correlation
            annihilate(FinSeq({0: 1e300, 1: 1e300}), TableSignal(0, [1e300, 1e300]))
