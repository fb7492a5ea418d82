"""Arithmetic for finitely supported sequences on the integers.

These sequences are the computational stand-in for compactly supported
elements of the weighted convolution algebra on the integer group: they
convolve, carry the involution f*(n) = conj(f(-n)), take weighted norms,
and their Fourier transforms

    F f(t) = sum_n f(n) e^{-int},   t in [0, 2pi)

are trigonometric polynomials whose derivatives and vanishing orders at a
point decide membership in the derivative-vanishing ideals.

A sequence is one pair of read-only arrays, sorted distinct offsets and
their non-zero values, and every operation here is a numpy expression on
that pair: no Python loop runs per entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Mapping

import numpy as np

from .errors import NumericOverflowError

#: Global angular tolerance for points on the circle (radians).  Shared by
#: the spectral root-matching pipeline.
ANGULAR_TOL = 1e-9

#: Entries smaller than this relative to the largest modulus are pruned
#: after arithmetic, keeping supports finite and canonical.
PRUNE_REL = 1e-12

#: ``convolve`` goes dense while the product of the support spans is at most
#: this multiple of the product of the entry counts.  On random complex
#: inputs of 40, 300 and 1000 entries, dense takes 0.83-0.97 times the time
#: of the sparse path at a ratio of 128, and 1.4-2.0 times at 256.
DENSE_SPAN_RATIO = 150

#: The sparse path of ``convolve`` forms about this many products at once,
#: which bounds its working memory apart from the result.
SPARSE_BLOCK = 2 ** 18

#: Offsets are stored as int64 strictly inside +-this bound (see FinSeq).
_INT64_OFFSETS = 2 ** 62

_NO_OFFSETS = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class CirclePoint:
    """A point e^{it} of the circle group, stored as t in [0, 2pi)."""

    t: float

    def __post_init__(self):
        t = float(self.t) % (2.0 * math.pi)
        # avoid the representative 2pi - epsilon folding away from 0
        if 2.0 * math.pi - t < ANGULAR_TOL:
            t = 0.0
        object.__setattr__(self, "t", t)

    def close_to(self, other: "CirclePoint") -> bool:
        return circle_distance(self.t, other.t) <= ANGULAR_TOL


def circle_distance(a: float, b: float) -> float:
    """Geodesic distance between angles a and b on the circle."""
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def angles_within(a: Iterable[float], b: Collection[float], tol: float = ANGULAR_TOL) -> bool:
    """Whether every angle of a lies within tol of some angle of b on the
    circle (true for an empty a, false for a non-empty a and an empty b)."""
    return all(any(circle_distance(t, u) <= tol for u in b) for t in a)


class FinSeq:
    """Finitely supported complex sequence on the integers.

    Immutable value type holding one pair of read-only arrays: the sorted,
    distinct offsets ``_n`` and their values ``_v``, none of them zero.
    Construct from a mapping ``offset -> value`` or from ``(offset, value)``
    pairs; values at a repeated offset are summed in input order.  Offsets
    are int64 while every one lies strictly inside +-2^62, so that the sum
    or difference of any two never wraps; beyond that they are an object
    array of Python ints, on which the same numpy expressions run exactly.
    All arithmetic returns new instances.
    """

    __slots__ = ("_n", "_v")

    def __init__(self, entries: Mapping[int, complex] | Iterable[tuple[int, complex]] = ()):
        if isinstance(entries, Mapping):
            ns, vs = list(entries.keys()), list(entries.values())
        else:
            pairs = list(entries)
            ns, vs = [n for n, _ in pairs], [v for _, v in pairs]
        n = np.array(ns)
        if n.dtype.kind != "i":  # past int64, or not ints: exact Python ints
            n = np.array([int(k) for k in ns], dtype=object)
        out = _coalesced(n, np.array(vs, dtype=complex))
        self._n, self._v = out._n, out._v

    @staticmethod
    def _of(n: np.ndarray, v: np.ndarray) -> "FinSeq":
        """The sequence with sorted distinct offsets n and non-zero values v,
        which it keeps, read-only, without a copy."""
        if not len(n):
            n = _NO_OFFSETS
        elif n.dtype != (dtype := _offset_dtype(int(n[0]), int(n[-1]))):
            n = n.astype(dtype)
        n.flags.writeable = v.flags.writeable = False
        out = FinSeq.__new__(FinSeq)
        out._n, out._v = n, v
        return out

    # -- basic protocol ----------------------------------------------------

    @property
    def entries(self) -> dict[int, complex]:
        return dict(zip(self._n.tolist(), self._v.tolist()))

    def __getitem__(self, n: int) -> complex:
        i = int(np.searchsorted(self._n, n))
        return complex(self._v[i]) if i < len(self._n) and self._n[i] == n else 0j

    def __iter__(self) -> Iterator[tuple[int, complex]]:
        return zip(self._n.tolist(), self._v.tolist())

    def __len__(self) -> int:
        return len(self._n)

    def __bool__(self) -> bool:
        return len(self._n) > 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinSeq):
            return NotImplemented
        return len(self) == len(other) and bool((self._n == other._n).all() and (self._v == other._v).all())

    def __hash__(self):
        offsets = tuple(self._n.tolist()) if self._n.dtype == object else self._n.tobytes()
        return hash((offsets, (self._v + 0.0).tobytes()))  # -0.0 and 0.0 alike

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}: {v}" for n, v in self)
        return f"FinSeq({{{inner}}})"

    def support(self) -> tuple[int, int]:
        """(min, max) of the support; raises on the empty sequence."""
        if not self:
            raise ValueError("zero sequence has empty support")
        return int(self._n[0]), int(self._n[-1])

    def abs_sum(self) -> float:
        return float(np.sum(np.abs(self._v)))

    # -- dense view (private) -----------------------------------------------

    def _dense(self) -> tuple[int, np.ndarray]:
        """(lo, a) with a[i] = f(lo + i) across the whole support span."""
        lo = self._n[0]
        a = np.zeros(int(self._n[-1] - lo) + 1, dtype=complex)
        a[(self._n - lo).astype(np.intp, copy=False)] = self._v
        return int(lo), a

    @staticmethod
    def _from_dense(lo: int, a: np.ndarray) -> "FinSeq":
        """The sequence n -> a[n - lo], pruned as arithmetic results are."""
        mags = np.abs(a)
        keep = np.flatnonzero(mags > PRUNE_REL * _finite_max(mags))
        if not len(keep):
            return FinSeq()
        return FinSeq._of(_offset_sum(keep, lo, lo + int(keep[0]), lo + int(keep[-1])), a[keep])

    # -- arithmetic ---------------------------------------------------------

    def _pruned(self) -> "FinSeq":
        mags = np.abs(self._v)
        keep = mags > PRUNE_REL * _finite_max(mags)
        return self if keep.all() else FinSeq._of(self._n[keep], self._v[keep])

    def __add__(self, other: "FinSeq") -> "FinSeq":
        return _coalesced(np.concatenate((self._n, other._n)),
                          np.concatenate((self._v, other._v)))._pruned()

    def __sub__(self, other: "FinSeq") -> "FinSeq":
        return self + FinSeq._of(other._n, -other._v)

    def __mul__(self, k: complex) -> "FinSeq":
        with np.errstate(over="ignore", invalid="ignore"):  # inf on overflow, as in Python
            return _coalesced(self._n, self._v * complex(k))

    __rmul__ = __mul__

    def shift(self, m: int) -> "FinSeq":
        """Translate: (shift_m f)(n) = f(n - m)."""
        if not self:
            return self
        m = int(m)
        lo, hi = self.support()
        return FinSeq._of(_offset_sum(self._n, m, lo + m, hi + m), self._v + 0.0)


def _offset_dtype(lo: int, hi: int):
    """Storage type of sorted offsets whose extremes are lo and hi."""
    return np.int64 if -_INT64_OFFSETS < lo and hi < _INT64_OFFSETS else object


def _finite_max(mags: np.ndarray) -> float:
    """The largest of the moduli (0 for none), which the zero rule scales
    by: NumericOverflowError when it is inf or nan, since a rule relative
    to it would prune every entry."""
    top = mags.max(initial=0.0)
    if not math.isfinite(top):
        raise NumericOverflowError("the result overflows the float range")
    return top


def _offset_sum(a: np.ndarray, b, lo: int, hi: int) -> np.ndarray:
    """a + b for offset arrays (b may be an int) whose sums span [lo, hi]:
    in int64 only when that span and both operands are int64, otherwise in
    Python ints, so that no sum wraps."""
    if _offset_dtype(lo, hi) is object or object in (a.dtype, np.asarray(b).dtype):
        return a.astype(object) + (b.astype(object) if isinstance(b, np.ndarray) else b)
    return a + b


def _bincount(at: np.ndarray, v: np.ndarray, size: int) -> np.ndarray:
    """out[k] = the sum of v[i] over at[i] == k, added in input order from 0."""
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(at, weights=v.real, minlength=size)
    out.imag = np.bincount(at, weights=v.imag, minlength=size)
    return out


def _coalesced(n: np.ndarray, v: np.ndarray) -> FinSeq:
    """The sequence summing v[i] at offset n[i], in input order from 0 as a
    dict would, with zero sums dropped.  Takes fresh or read-only arrays."""
    if len(n) > 1 and not (n[1:] > n[:-1]).all():
        order = np.argsort(n, kind="stable")  # keeps input order among equal offsets
        n = n[order]
        first = np.empty(len(n), dtype=bool)
        first[0] = True
        np.not_equal(n[1:], n[:-1], out=first[1:])
        n, v = n[first], _bincount(first.cumsum() - 1, v[order], int(first.sum()))
    else:
        v = v + 0.0  # a sum from 0 turns -0.0 into 0.0
    if np.count_nonzero(v) < len(v):
        keep = v != 0
        n, v = n[keep], v[keep]
    return FinSeq._of(n, v)


def delta(n: int = 0) -> FinSeq:
    """Kronecker sequence supported at ``n``."""
    return FinSeq({n: 1.0})


def convolve(f: FinSeq, g: FinSeq) -> FinSeq:
    """(f*g)(n) = sum_m f(m) g(n-m) over the finite supports: by
    ``np.convolve`` when dense.  When sparse and wide, the products
    f(m) g(k) are summed at m + k by a stable sort and ``np.bincount``, a
    block of about SPARSE_BLOCK products at a time."""
    if not (f and g):
        return FinSeq()
    (f_lo, f_hi), (g_lo, g_hi) = f.support(), g.support()
    if (f_hi - f_lo + 1) * (g_hi - g_lo + 1) <= DENSE_SPAN_RATIO * len(f) * len(g):
        return FinSeq._from_dense(f_lo + g_lo, np.convolve(f._dense()[1], g._dense()[1]))
    rows = max(1, SPARSE_BLOCK // len(g))
    blocks = []
    for i in range(0, len(f), rows):
        n, v = f._n[i:i + rows], f._v[i:i + rows]
        sums = _offset_sum(n[:, None], g._n[None, :], int(n[0]) + g_lo, int(n[-1]) + g_hi)
        with np.errstate(over="ignore", invalid="ignore"):  # inf on overflow, as in Python
            blocks.append(_coalesced(sums.ravel(), np.multiply.outer(v, g._v).ravel()))
    return _coalesced(np.concatenate([b._n for b in blocks]),
                      np.concatenate([b._v for b in blocks]))._pruned()


def involution(f: FinSeq) -> FinSeq:
    """f*(n) = conj(f(-n)); an involution compatible with convolution."""
    return FinSeq._of(-f._n[::-1], np.conj(f._v[::-1]) + 0.0)


def weighted_norm(f: FinSeq, w) -> float:
    """sum_n |f(n)| w(n) for a weight descriptor ``w``."""
    from .weights import eval_weight  # local import: weights depends on signals

    with np.errstate(over="ignore"):  # a norm past the float range is inf
        return float(np.sum(np.abs(f._v) * eval_weight(w, f._n)))


def fourier_eval(f: FinSeq, t: float | CirclePoint, j: int = 0) -> complex:
    """j-th derivative of the transform at t: sum_n f(n) (-in)^j e^{-int}."""
    if j < 0:
        raise ValueError("derivative order must be non-negative")
    tt = t.t if isinstance(t, CirclePoint) else float(t)
    n = f._n.astype(float)
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: inf or nan
        terms = f._v * np.exp(-1j * (n * tt)) * (n ** j * (1, -1j, -1, 1j)[j % 4])  # (-i)^j exactly
        return complex(np.sum(terms))


def fourier_grid(f: FinSeq, points: int = 4096) -> tuple[np.ndarray, np.ndarray]:
    """Transform sampled on the uniform grid t_k = 2 pi k / points: offsets
    are folded mod ``points`` in exact integers, then one FFT."""
    if points < 1:
        raise ValueError("the grid needs at least one point")
    t = 2.0 * math.pi * np.arange(points) / points
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        folded = _bincount((f._n % points).astype(np.intp, copy=False), f._v, points)
        vals = np.fft.fft(folded)
    if not np.isfinite(vals).all():
        raise NumericOverflowError(f"the transform overflows the float range on the {points}-point grid")
    return t, vals


def vanishing_order(f: FinSeq, t: float | CirclePoint, tol: float = 1e-9) -> int:
    """Smallest j whose transform derivative at t is non-negligible.

    Offsets are measured from the midpoint c of the support: derivative j
    of e^{ict} F f(t), sum_n f(n) (-i(n-c))^j e^{-int}, is compared against
    tol * sum_n |f(n)| (1+|n-c|)^j.  The factor e^{ict} has no zeros, so
    this is the vanishing order of F f, and the answer is invariant under
    translation and under f -> c f.  Membership in the order-k ideal at t=0
    is exactly ``vanishing_order > k``.
    """
    if not f:
        raise ValueError("vanishing order of the zero sequence is undefined")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    tt = t.t if isinstance(t, CirclePoint) else float(t)
    if not math.isfinite(tt):
        raise ValueError(f"the circle point must be a finite angle, got {tt}")
    tt = math.fmod(tt, 2 * math.pi)  # exact, and keeps rel * tt finite
    rel = (f._n - f._n[0]).astype(float)  # exact differences, then rounded
    dist = rel - rel[-1] / 2
    weights = np.abs(f._v)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing scale ends the test
        terms = f._v * np.exp(-1j * rel * tt)  # |e^{-i lo t}| = 1 drops out
        for j in range(int(f._n[-1] - f._n[0]) + 1):
            scale = float(np.sum(weights))
            if not math.isfinite(scale):
                raise NumericOverflowError(f"the order-{j} derivative test overflows the float range")
            if abs(np.sum(terms)) > tol * scale:
                return j
            terms = terms * dist
            weights = weights * (1 + np.abs(dist))
    raise ValueError(
        "transform vanishes to every testable order; sequence is "
        "numerically indistinguishable from zero at this point"
    )


def difference_seq(f: FinSeq, m: int, k: int = 1) -> FinSeq:
    """k-fold difference with step m: one application maps f(n) to f(n+m)-f(n).

    Equivalently convolution with (delta_{-m} - delta_0)^k, whose transform
    multiplies F f by (e^{imt} - 1)^k.
    """
    if k < 0:
        raise ValueError("difference order must be non-negative")
    out = f
    for _ in range(k):
        out = out.shift(-m) - out
    return out
