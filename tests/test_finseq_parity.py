"""Array-backed FinSeq against the dict-backed reference it replaced.

The reference below keeps the dict storage, the sparse double loop and the
per-entry transforms as they stood before FinSeq moved to arrays.  Sums
and differences, shifts, the involution, the grid transform, vanishing
orders and running sums must match it bit for bit; so must convolution on
integer values, on both of its paths.  Elsewhere numpy's complex multiply
and pairwise sums may differ from Python's in the last bits, so values
agree within 1e-12 of their scale.  Offsets are drawn on both sides of
the int64 storage bound (+-2^62) and far past it (+-2^70).
"""

import cmath
import math
import tracemalloc
from typing import Mapping
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beurling import seq_algebra
from beurling.errors import UnboundedSupportError
from beurling.integration import k_transform
from beurling.seq_algebra import (
    DENSE_SPAN_RATIO,
    PRUNE_REL,
    FinSeq,
    convolve,
    fourier_eval,
    fourier_grid,
    involution,
    vanishing_order,
    vanishing_order_test,
    weighted_norm,
)
from beurling.weights import ExponentialWeight, PowerWeight, eval_weight

BOUND = 2 ** 62


# -- the dict-backed reference --------------------------------------------------


class RefSeq:
    def __init__(self, entries=()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        store = {}
        for n, v in items:
            v = complex(v)
            if v != 0:
                store[int(n)] = store.get(int(n), 0) + v
        self.entries = {n: v for n, v in store.items() if v != 0}

    def sorted(self):
        return sorted(self.entries.items())

    def pruned(self):
        if not self.entries:
            return self
        cap = PRUNE_REL * max(abs(v) for v in self.entries.values())
        out = RefSeq()
        out.entries = {n: v for n, v in self.entries.items() if abs(v) > cap}
        return out

    def __add__(self, other):
        merged = dict(self.entries)
        for n, v in other.entries.items():
            merged[n] = merged.get(n, 0) + v
        return RefSeq(merged).pruned()

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, k):
        k = complex(k)
        return RefSeq({n: k * v for n, v in self.entries.items()})

    def shift(self, m):
        return RefSeq({n + m: v for n, v in self.entries.items()})

    def dense(self):
        ns = sorted(self.entries)
        a = np.zeros(ns[-1] - ns[0] + 1, dtype=complex)
        a[[n - ns[0] for n in ns]] = [self.entries[n] for n in ns]
        return ns[0], a

    @staticmethod
    def from_dense(lo, a):
        mags = np.abs(a)
        keep = np.flatnonzero(mags > PRUNE_REL * mags.max(initial=0.0))
        out = RefSeq()
        out.entries = dict(zip([lo + i for i in keep.tolist()], a[keep].tolist()))
        return out


def ref_convolve(f, g):
    if f.entries and g.entries:
        (f_lo, f_hi), (g_lo, g_hi) = (min(f.entries), max(f.entries)), (min(g.entries), max(g.entries))
        if (f_hi - f_lo + 1) * (g_hi - g_lo + 1) <= DENSE_SPAN_RATIO * len(f.entries) * len(g.entries):
            return RefSeq.from_dense(f_lo + g_lo, np.convolve(f.dense()[1], g.dense()[1]))
    out = {}
    for m, fv in f.entries.items():
        for k, gv in g.entries.items():
            out[m + k] = out.get(m + k, 0) + fv * gv
    return RefSeq(out).pruned()


def ref_involution(f):
    return RefSeq({-n: v.conjugate() for n, v in f.entries.items()})


def ref_fourier_eval(f, t):
    acc = 0j
    for n, v in f.entries.items():
        acc += v * cmath.exp(-1j * n * t)
    return acc


def ref_fourier_grid(f, points):
    ns = sorted(f.entries)
    folded = np.zeros(points, dtype=complex)
    np.add.at(folded, np.array([n % points for n in ns], dtype=np.intp),
              np.array([f.entries[n] for n in ns], dtype=complex))
    return 2.0 * math.pi * np.arange(points) / points, np.fft.fft(folded)


def ref_vanishing_order(f, t, tol=1e-9):
    ns = sorted(f.entries)
    vals = np.array([f.entries[n] for n in ns], dtype=complex)
    rel = np.array([n - ns[0] for n in ns], dtype=float)
    dist = rel - rel[-1] / 2
    terms = vals * np.exp(-1j * rel * t)
    weights = np.abs(vals)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(ns[-1] - ns[0] + 1):
            scale = float(np.sum(weights))
            if not math.isfinite(scale):
                break
            if abs(np.sum(terms)) > tol * scale:
                return j
            terms = terms * dist
            weights = weights * (1 + np.abs(dist))
    raise ValueError("transform vanishes to every testable order")


def ref_weighted_norm(f, w):
    ns = sorted(f.entries)
    vals = np.array([f.entries[n] for n in ns], dtype=complex)
    with np.errstate(over="ignore"):
        return float(np.sum(np.abs(vals) * eval_weight(w, ns)))


def ref_k_transform(f, tol=1e-12):
    if not f.entries:
        return f
    lo, dense = f.dense()
    mass = complex(dense.sum())
    if abs(mass) > tol * np.abs(dense).sum():
        raise UnboundedSupportError("unbounded")
    return RefSeq.from_dense(lo, np.cumsum(dense))


# -- draws ----------------------------------------------------------------------


#: Where offsets sit: a dense block, a dense block across one end of the
#: int64 storage bound, a sparse and wide scatter, both sides of both ends
#: of that bound, and far past it.
REGIMES = ("dense", "edge", "wide", "bound", "far")


def _offsets(rng, size, regime):
    if regime in ("dense", "edge"):
        lo = int(rng.integers(-size, size + 1))
        if regime == "edge":
            lo += int(rng.choice([-BOUND, BOUND]))
        return [lo + int(d) for d in np.sort(rng.choice(2 * size + 1, size, replace=False))]
    if regime == "wide":
        return (np.sort(rng.choice(2000 * size, size, replace=False)) - 1000 * size).tolist()
    near = [BOUND - 1, BOUND, BOUND + 1, -BOUND - 1, -BOUND, -BOUND + 1] if regime == "bound" \
        else [2 ** 70, -2 ** 70, 2 ** 70 + 1]
    picks = rng.choice(len(near), size) if size else []
    return [near[int(p)] + int(d) for p, d in zip(picks, rng.integers(-3, 4, size))]


def _values(rng, size, integer):
    if integer:
        return rng.integers(-9, 10, size) + 1j * rng.integers(-9, 10, size)
    return rng.normal(size=size) + 1j * rng.normal(size=size)


@st.composite
def pairs(draw, max_size=1000, regimes=REGIMES, integer=None):
    """(offset, value) pairs with repeats, zeros and exact cancellations."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    size = draw(st.integers(0, max_size))
    regime = draw(st.sampled_from(regimes))
    integer = draw(st.booleans()) if integer is None else integer
    rng = np.random.default_rng(seed)
    ns = [int(n) for n in _offsets(rng, size, regime)]
    vs = _values(rng, size, integer).tolist()
    if size and draw(st.booleans()):
        # repeat some offsets, with zeros and with values that cancel
        k = int(rng.integers(1, size + 1))
        ns += ns[:k] * 2
        vs += [0j] * k + [-v for v in vs[:k]]
    return list(zip(ns, vs))


def both(ps):
    return FinSeq(ps), RefSeq(ps)


def bits(seq):
    """Offsets and the exact bits of every value, signed zeros included."""
    items = seq.sorted() if isinstance(seq, RefSeq) else list(seq)
    return [(n, v.real.hex(), v.imag.hex()) for n, v in items]


def storage_ok(f):
    """int64 offsets exactly while every offset is strictly inside +-2^62."""
    inside = all(-BOUND < n < BOUND for n, _ in f)
    return f._n.dtype == (np.int64 if inside else object) and not f._n.flags.writeable \
        and not f._v.flags.writeable


def assert_close(got, ref, scale):
    want = dict(ref.entries)
    have = dict(got)
    for n in set(have) | set(want):
        assert abs(have.get(n, 0) - want.get(n, 0)) <= 1e-12 * scale, n


# -- parity -----------------------------------------------------------------------


class TestProtocolParity:
    @settings(max_examples=60, deadline=None)
    @given(pairs())
    def test_construction_and_views(self, ps):
        f, ref = both(ps)
        assert bits(f) == bits(ref) and storage_ok(f)
        assert f.entries == ref.entries and len(f) == len(ref.entries)
        assert all(type(n) is int and type(v) is complex for n, v in f)
        if ref.entries:
            assert f.support() == (min(ref.entries), max(ref.entries))
            assert all(f[n] == v for n, v in ref.entries.items())
            assert f[max(ref.entries) + 1] == 0j and f[2 ** 80] == 0j
        assert FinSeq(dict(ref.entries)) == f and FinSeq(list(f)) == f
        assert hash(FinSeq(dict(ref.entries))) == hash(f)

    @settings(max_examples=60, deadline=None)
    @given(pairs(), pairs())
    def test_sum_difference_and_equality(self, ps, qs):
        (f, rf), (g, rg) = both(ps), both(qs)
        for got, ref in ((f + g, rf + rg), (f - g, rf - rg), (g - f, rg - rf)):
            assert bits(got) == bits(ref) and storage_ok(got)
        assert (f == g) == (rf.entries == rg.entries)
        if f == g:
            assert hash(f) == hash(g)
        assert not (f - f) and bits(f + FinSeq()) == bits(rf + RefSeq())

    @settings(max_examples=60, deadline=None)
    @given(pairs(), st.integers(-2 ** 71, 2 ** 71) | st.sampled_from([1, -1, BOUND, -BOUND, BOUND - 7]))
    def test_shift_and_involution(self, ps, m):
        f, ref = both(ps)
        for got, want in ((f.shift(m), ref.shift(m)), (involution(f), ref_involution(ref)),
                          (involution(f.shift(m)), ref_involution(ref.shift(m)))):
            assert bits(got) == bits(want) and storage_ok(got)

    @settings(max_examples=40, deadline=None)
    @given(pairs(), st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False))
    def test_scalar_multiple(self, ps, k):
        f, ref = both(ps)
        got, want = k * f, ref.scaled(k)
        assert [n for n, _ in got] == sorted(want.entries) and storage_ok(got)
        assert all(abs(v - want.entries[n]) <= 1e-15 * abs(k) * abs(f[n]) for n, v in got)

    def test_cancelling_the_far_entries_returns_to_int64(self):
        f = FinSeq({3: 1, BOUND: 2j, -2 ** 70: 1})
        g = FinSeq({BOUND: 2j, -2 ** 70: 1})
        assert f._n.dtype == object
        assert (f - g) == FinSeq({3: 1}) and (f - g)._n.dtype == np.int64
        assert f.shift(-BOUND).support() == (-2 ** 70 - BOUND, 0)
        assert FinSeq({BOUND - 1: 1}).shift(1)._n.dtype == object
        assert FinSeq({BOUND: 1}).shift(-1)._n.dtype == np.int64

    def test_signed_zeros_compare_and_hash_alike(self):
        pos = FinSeq({0: 1, 5: 2})
        neg = FinSeq._from_dense(0, np.array([complex(1, -0.0)] + [0j] * 4 + [complex(2, -0.0)]))
        assert math.copysign(1.0, neg[0].imag) == -1.0  # the dense view keeps -0.0
        assert pos == neg and hash(pos) == hash(neg)
        assert hash(frozenset(pos.entries.items())) == hash(frozenset(neg.entries.items()))
        assert bits(involution(neg)) == bits(ref_involution(RefSeq(neg.entries)))
        assert bits(neg.shift(3)) == bits(RefSeq(neg.entries).shift(3))

    def test_unequal_offsets_or_values_differ(self):
        assert FinSeq({0: 1}) != FinSeq({1: 1}) and FinSeq({0: 1}) != FinSeq({0: 1j})
        assert FinSeq({2 ** 70: 1}) != FinSeq({2 ** 70 + 1: 1})
        assert FinSeq({2 ** 70: 1}) == FinSeq([(2 ** 70, 0.5), (2 ** 70, 0.5)])


class TestConvolveParity:
    @settings(max_examples=50, deadline=None)
    @given(pairs(max_size=1000), pairs(max_size=40))
    def test_matches_reference(self, ps, qs):
        (f, rf), (g, rg) = both(ps), both(qs)
        got, want = convolve(f, g), ref_convolve(rf, rg)
        assert storage_ok(got)
        integer = all(v == complex(round(v.real), round(v.imag)) for _, v in [*f, *g])
        if integer:
            assert bits(got) == bits(want)
        else:
            assert_close(got, want, f.abs_sum() * max((abs(v) for _, v in g), default=0.0))

    @settings(max_examples=40, deadline=None)
    @given(pairs(max_size=300, regimes=("wide", "bound", "far")),
           pairs(max_size=40, regimes=("wide", "bound", "far")), st.integers(1, 200))
    def test_blocks_of_products_sum_as_one(self, ps, qs, block):
        (f, rf), (g, rg) = both(ps), both(qs)
        with mock.patch.object(seq_algebra, "SPARSE_BLOCK", block):
            got = convolve(f, g)
        want = ref_convolve(rf, rg)
        assert storage_ok(got)
        if all(v == complex(round(v.real), round(v.imag)) for _, v in [*f, *g]):
            assert bits(got) == bits(want)
        else:
            assert_close(got, want, f.abs_sum() * max((abs(v) for _, v in g), default=0.0))

    @pytest.mark.parametrize("regime", ["dense", "wide"])
    @pytest.mark.parametrize("seed", range(4))
    def test_integer_values_bit_exact_on_both_paths(self, seed, regime):
        rng = np.random.default_rng(seed)
        ps = list(zip(_offsets(rng, 400, regime), _values(rng, 400, True).tolist()))
        qs = list(zip(_offsets(rng, 300, regime), _values(rng, 300, True).tolist()))
        (f, rf), (g, rg) = both(ps), both(qs)
        spans = (f.support()[1] - f.support()[0] + 1) * (g.support()[1] - g.support()[0] + 1)
        assert (spans <= DENSE_SPAN_RATIO * len(f) * len(g)) == (regime == "dense")
        assert bits(convolve(f, g)) == bits(ref_convolve(rf, rg))

    @pytest.mark.parametrize("f_at, g_at", [
        ([2 ** 61, 2 ** 61 + 1, 2 ** 61 + 5], [2 ** 61 - 2, 2 ** 61 + 3]),       # dense, crosses 2^62
        ([0, 2 ** 61 + 9], [-7, 2 ** 61 - 2, 2 ** 61 + 1]),                     # sparse, crosses 2^62
        ([-2 ** 61 - 4, -2 ** 61], [-2 ** 61 + 1, -2 ** 61 + 6]),               # dense, crosses -2^62
        ([BOUND - 1, -2 ** 70], [-BOUND + 1, 2 ** 70, 3]),                        # object in, int64 sums
    ])
    def test_near_bound_inputs(self, f_at, g_at):
        rng = np.random.default_rng(len(f_at) + len(g_at))
        for integer in (True, False):
            ps = list(zip(f_at, _values(rng, len(f_at), integer).tolist()))
            qs = list(zip(g_at, _values(rng, len(g_at), integer).tolist()))
            (f, rf), (g, rg) = both(ps), both(qs)
            got, want = convolve(f, g), ref_convolve(rf, rg)
            assert storage_ok(got)
            if integer:
                assert bits(got) == bits(want)
            else:
                assert_close(got, want, f.abs_sum() * max(abs(v) for _, v in g))


class TestTransformParity:
    @settings(max_examples=60, deadline=None)
    @given(pairs(), st.floats(0, 2 * math.pi))
    def test_fourier_eval(self, ps, t):
        f, ref = both(ps)
        got, want = fourier_eval(f, t), ref_fourier_eval(ref, t)
        assert abs(got - want) <= 1e-12 * f.abs_sum()

    @settings(max_examples=60, deadline=None)
    @given(pairs(), st.sampled_from([1, 7, 64, 1000, 4096]))
    def test_fourier_grid_bit_exact(self, ps, points):
        f, ref = both(ps)
        (ts, vals), (want_ts, want_vals) = fourier_grid(f, points), ref_fourier_grid(ref, points)
        assert np.array_equal(ts, want_ts) and np.array_equal(vals, want_vals)

    @settings(max_examples=60, deadline=None)
    @given(pairs(regimes=("dense", "edge")), st.floats(0, 2 * math.pi), st.integers(0, 3))
    def test_vanishing_order_same(self, ps, t, k):
        ref = RefSeq(ps)
        for _ in range(k):  # (delta_0 - e^{it} delta_1)^k plants a zero of order k at t
            ref = ref_convolve(ref, RefSeq({0: 1, 1: -cmath.exp(1j * t)}))
        if not ref.entries:
            return
        outcome = []
        for fn, seq in ((vanishing_order, FinSeq(ref.entries)), (ref_vanishing_order, ref)):
            try:
                outcome.append(fn(seq, t))
            except ValueError:
                outcome.append("ValueError")
        assert outcome[0] == outcome[1]

    @settings(max_examples=40, deadline=None)
    @given(pairs(regimes=("dense", "edge")), st.floats(0, 2 * math.pi), st.integers(0, 3),
           st.lists(st.floats(0, 2 * math.pi), max_size=3))
    def test_one_vanishing_order_test_across_angles(self, ps, t, k, others):
        # shallow angles, then the planted zero, then both again: each order's
        # scale is built by whichever angle tests it first
        ref = RefSeq(ps)
        for _ in range(k):
            ref = ref_convolve(ref, RefSeq({0: 1, 1: -cmath.exp(1j * t)}))
        if not ref.entries:
            return
        order = vanishing_order_test(FinSeq(ref.entries))
        for s in [*others, t, *others, t]:
            outcome = []
            for fn in (order, lambda s: ref_vanishing_order(ref, s)):
                try:
                    outcome.append(fn(s))
                except ValueError:
                    outcome.append("ValueError")
            assert outcome[0] == outcome[1]

    @settings(max_examples=60, deadline=None)
    @given(pairs(), st.sampled_from([PowerWeight(0.5), PowerWeight(2), ExponentialWeight(1.001)]))
    def test_weighted_norm(self, ps, w):
        f, ref = both(ps)
        got, want = weighted_norm(f, w), ref_weighted_norm(ref, w)
        assert got == want or abs(got - want) <= 1e-12 * want


class TestKTransformParity:
    @settings(max_examples=60, deadline=None)
    @given(pairs(regimes=("dense", "edge")), st.integers(1, 3), st.booleans())
    def test_matches_reference(self, ps, iterations, zero_mass):
        ref = RefSeq(ps)
        for _ in range(iterations if zero_mass else 0):
            ref = ref_convolve(ref, RefSeq({0: 1, 1: -1}))  # mass zero for one more running sum
        outcome = []
        for fn, seq in ((k_transform, FinSeq(ref.entries)), (ref_k_transform, ref)):
            try:
                for applied in range(iterations):  # nested applications
                    seq = fn(seq)
                outcome.append(seq)
            except UnboundedSupportError:
                outcome.append(applied + 1)  # the application that raised
        got, want = outcome
        if isinstance(want, int):
            assert got == want
        else:
            assert not isinstance(got, int) and storage_ok(got) and bits(got) == bits(want)

    def test_nonzero_mass_raises_before_any_dense_span(self):
        f = FinSeq({0: 1, 10 ** 6: 1})  # a dense span would take 16 MB
        tracemalloc.start()
        try:
            with pytest.raises(UnboundedSupportError):
                k_transform(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
