"""Exact arithmetic for finitely supported sequences on the integers.

These sequences are the computational stand-in for compactly supported
elements of the weighted convolution algebra on the integer group: they
convolve, carry the involution f*(n) = conj(f(-n)), take weighted norms,
and their Fourier transforms

    F f(t) = sum_n f(n) e^{-int},   t in [0, 2pi)

are trigonometric polynomials whose derivatives and vanishing orders at a
point decide membership in the derivative-vanishing ideals.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

#: Global angular tolerance for points on the circle (radians).  Shared by
#: the spectral root-matching pipeline.
ANGULAR_TOL = 1e-9

#: Entries smaller than this relative to the largest modulus are pruned
#: after arithmetic, keeping supports finite and canonical.
PRUNE_REL = 1e-12

#: ``convolve`` goes dense while the product of the support spans is at most
#: this multiple of the product of the entry counts.  On random complex
#: inputs of 40 entries, dense is 2.3x faster at 580 and 4x slower at 8300.
DENSE_SPAN_RATIO = 1000


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

    def close_to(self, other: "CirclePoint", tol: float = ANGULAR_TOL) -> bool:
        return circle_distance(self.t, other.t) <= tol


def circle_distance(a: float, b: float) -> float:
    """Geodesic distance between angles a and b on the circle."""
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


class FinSeq:
    """Finitely supported complex sequence on the integers.

    Immutable value type: stored entries never have zero modulus, and all
    arithmetic returns new instances.  Construct from any mapping
    ``offset -> value``.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[int, complex] | Iterable[tuple[int, complex]] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        store: dict[int, complex] = {}
        for n, v in items:
            v = complex(v)
            if v != 0:
                store[int(n)] = store.get(int(n), 0) + v
        self._entries = {n: v for n, v in store.items() if v != 0}

    # -- basic protocol ----------------------------------------------------

    @property
    def entries(self) -> dict[int, complex]:
        return dict(self._entries)

    def __getitem__(self, n: int) -> complex:
        return self._entries.get(n, 0j)

    def __iter__(self) -> Iterator[tuple[int, complex]]:
        return iter(sorted(self._entries.items()))

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinSeq):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return hash(frozenset(self._entries.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}: {v}" for n, v in self)
        return f"FinSeq({{{inner}}})"

    def support(self) -> tuple[int, int]:
        """(min, max) of the support; raises on the empty sequence."""
        if not self._entries:
            raise ValueError("zero sequence has empty support")
        ks = self._entries.keys()
        return min(ks), max(ks)

    def abs_sum(self) -> float:
        return sum(abs(v) for v in self._entries.values())

    # -- array view (private) -----------------------------------------------

    def _arrays(self) -> tuple[list[int], np.ndarray]:
        """Sorted offsets, as exact Python ints, and their values."""
        ns = sorted(self._entries)
        return ns, np.array([self._entries[n] for n in ns], dtype=complex)

    def _dense(self) -> tuple[int, np.ndarray]:
        """(lo, a) with a[i] = f(lo + i) across the whole support span."""
        ns, vals = self._arrays()
        a = np.zeros(ns[-1] - ns[0] + 1, dtype=complex)
        a[[n - ns[0] for n in ns]] = vals
        return ns[0], a

    @staticmethod
    def _from_dense(lo: int, a: np.ndarray) -> "FinSeq":
        """The sequence n -> a[n - lo], pruned as arithmetic results are."""
        mags = np.abs(a)
        keep = np.flatnonzero(mags > PRUNE_REL * mags.max(initial=0.0))
        out = FinSeq()
        out._entries = dict(zip([lo + i for i in keep.tolist()], a[keep].tolist()))
        return out

    # -- arithmetic ---------------------------------------------------------

    def _pruned(self) -> "FinSeq":
        if not self._entries:
            return self
        cap = PRUNE_REL * max(abs(v) for v in self._entries.values())
        out = FinSeq()
        out._entries = {n: v for n, v in self._entries.items() if abs(v) > cap}
        return out

    def __add__(self, other: "FinSeq") -> "FinSeq":
        merged = dict(self._entries)
        for n, v in other._entries.items():
            merged[n] = merged.get(n, 0) + v
        return FinSeq(merged)._pruned()

    def __sub__(self, other: "FinSeq") -> "FinSeq":
        return self + (-1) * other

    def __mul__(self, k: complex) -> "FinSeq":
        k = complex(k)
        return FinSeq({n: k * v for n, v in self._entries.items()})

    __rmul__ = __mul__

    def shift(self, m: int) -> "FinSeq":
        """Translate: (shift_m f)(n) = f(n - m)."""
        return FinSeq({n + m: v for n, v in self._entries.items()})


def delta(n: int = 0, value: complex = 1.0) -> FinSeq:
    """Kronecker sequence supported at ``n``."""
    return FinSeq({n: value})


def convolve(f: FinSeq, g: FinSeq) -> FinSeq:
    """(f*g)(n) = sum_m f(m) g(n-m), exact over the finite supports: by
    ``np.convolve`` when dense, by a dict loop when sparse and wide."""
    if f and g:
        (f_lo, f_hi), (g_lo, g_hi) = f.support(), g.support()
        if (f_hi - f_lo + 1) * (g_hi - g_lo + 1) <= DENSE_SPAN_RATIO * len(f) * len(g):
            return FinSeq._from_dense(f_lo + g_lo, np.convolve(f._dense()[1], g._dense()[1]))
    out: dict[int, complex] = {}
    for m, fv in f._entries.items():
        for k, gv in g._entries.items():
            out[m + k] = out.get(m + k, 0) + fv * gv
    return FinSeq(out)._pruned()


def involution(f: FinSeq) -> FinSeq:
    """f*(n) = conj(f(-n)); an involution compatible with convolution."""
    return FinSeq({-n: v.conjugate() for n, v in f._entries.items()})


def weighted_norm(f: FinSeq, w) -> float:
    """sum_n |f(n)| w(n) for a weight descriptor ``w``."""
    from .weights import eval_weight  # local import: weights depends on signals

    return sum(abs(v) * eval_weight(w, n) for n, v in f._entries.items())


def fourier_eval(f: FinSeq, t: float | CirclePoint, j: int = 0) -> complex:
    """j-th derivative of the transform at t: sum_n f(n) (-in)^j e^{-int}."""
    if j < 0:
        raise ValueError("derivative order must be non-negative")
    tt = t.t if isinstance(t, CirclePoint) else float(t)
    acc = 0j
    for n, v in f._entries.items():
        acc += v * (-1j * n) ** j * cmath.exp(-1j * n * tt)
    return acc


def fourier_grid(f: FinSeq, points: int = 4096) -> tuple[np.ndarray, np.ndarray]:
    """Transform sampled on the uniform grid t_k = 2 pi k / points: offsets
    are folded mod ``points`` in exact integers, then one FFT."""
    t = 2.0 * math.pi * np.arange(points) / points
    ns, vals = f._arrays()
    folded = np.zeros(points, dtype=complex)
    np.add.at(folded, np.array([n % points for n in ns], dtype=np.intp), vals)
    return t, np.fft.fft(folded)


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
    ns, vals = f._arrays()
    rel = np.array([n - ns[0] for n in ns], dtype=float)
    dist = rel - rel[-1] / 2
    terms = vals * np.exp(-1j * rel * tt)  # |e^{-i lo t}| = 1 drops out
    weights = np.abs(vals)
    for j in range(ns[-1] - ns[0] + 1):
        scale = float(np.sum(weights))
        if not math.isfinite(scale):
            break
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
