"""Exactly representable signal classes on the integers.

Four arms cover everything the rest of the package needs in closed form:

* ``ExpPoly``   -- sums of characters times polynomials,
                   phi(n) = sum_k e^{i t_k n} p_k(n);
* ``Geometric`` -- scale * ratio^n with a real ratio > 0 (the model for
                   genuinely unbounded signals killed by a two-term
                   recurrence);
* ``TableSignal`` -- a finite sampled window;
* ``CumSum``    -- the discrete indefinite integral of another signal,
                   P phi(n) = sum_{0 < j <= n} phi(j) (empty sum at 0,
                   negated reversed sum for n < 0).

``annihilate`` implements the correlation (f* . phi)(x) = sum_m
conj(f(m)) phi(x+m): symbolically exact on ExpPoly/Geometric, pointwise on
the valid sub-window for tables.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import WindowError
from .seq_algebra import ANGULAR_TOL, CirclePoint, FinSeq


@dataclass(frozen=True)
class ExpPolyTerm:
    """One character-times-polynomial term e^{i t n} p(n).

    ``coeffs[j]`` multiplies n^j; the tuple is trimmed so the leading
    coefficient is non-zero.
    """

    freq: CirclePoint
    coeffs: tuple[complex, ...]

    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class ExpPoly:
    """Finite sum of exponential-polynomial terms with distinct frequencies.

    The empty term list is the zero signal.
    """

    terms: tuple[ExpPolyTerm, ...]

    def __init__(self, terms=()):
        cleaned = []
        for term in terms:
            if not isinstance(term, ExpPolyTerm):
                freq, coeffs = term
                if not isinstance(freq, CirclePoint):
                    freq = CirclePoint(float(freq))
                term = ExpPolyTerm(freq, tuple(complex(c) for c in coeffs))
            coeffs = list(term.coeffs)
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            if not coeffs:
                continue
            cleaned.append(ExpPolyTerm(term.freq, tuple(coeffs)))
        for i, a in enumerate(cleaned):
            for b in cleaned[i + 1:]:
                if a.freq.close_to(b.freq):
                    raise ValueError(
                        f"frequencies {a.freq.t} and {b.freq.t} coincide within "
                        f"{ANGULAR_TOL} rad; merge the terms first"
                    )
        object.__setattr__(self, "terms", tuple(cleaned))

    def frequencies(self) -> tuple[CirclePoint, ...]:
        return tuple(term.freq for term in self.terms)


@dataclass(frozen=True)
class Geometric:
    """phi(n) = scale * ratio^n for a real ratio > 0."""

    ratio: float
    scale: complex = 1.0

    def __post_init__(self):
        if not self.ratio > 0:
            raise ValueError("geometric ratio must be positive")
        object.__setattr__(self, "ratio", float(self.ratio))
        object.__setattr__(self, "scale", complex(self.scale))


@dataclass(frozen=True)
class TableSignal:
    """Samples on the window [start, start + len(values) - 1]."""

    start: int
    values: tuple[complex, ...]

    def __init__(self, start: int, values: Sequence[complex]):
        values = tuple(complex(v) for v in values)
        if not values:
            raise ValueError("table signal needs at least one sample")
        object.__setattr__(self, "start", int(start))
        object.__setattr__(self, "values", values)

    @property
    def end(self) -> int:
        return self.start + len(self.values) - 1


@dataclass(frozen=True)
class CumSum:
    """Discrete indefinite integral of ``inner`` anchored at 0."""

    inner: "Signal"


Signal = Union[ExpPoly, Geometric, TableSignal, CumSum]


def constant_signal(c: complex) -> ExpPoly:
    """The constant signal as an exponential polynomial (empty if c = 0)."""
    return ExpPoly([(CirclePoint(0.0), (complex(c),))]) if c != 0 else ExpPoly()


# ---------------------------------------------------------------------------
# evaluation


def eval_signal(s: Signal, n: int) -> complex:
    """Exact evaluation of the signal at a single integer."""
    return complex(eval_signal_range(s, n, n)[0])


def eval_signal_range(s: Signal, lo: int, hi: int) -> np.ndarray:
    """Vectorised evaluation on the inclusive range [lo, hi]."""
    if hi < lo:
        raise ValueError("empty evaluation range")
    ns = np.arange(lo, hi + 1)
    if isinstance(s, ExpPoly):
        out = np.zeros(len(ns), dtype=complex)
        for term in s.terms:
            poly = np.zeros(len(ns), dtype=complex)
            for j in range(len(term.coeffs) - 1, -1, -1):
                poly = poly * ns + term.coeffs[j]
            out += np.exp(1j * term.freq.t * ns) * poly
        return out
    if isinstance(s, Geometric):
        # scaled part by part: a complex product turns an overflowing inf into inf+nanj
        out = np.empty(len(ns), dtype=complex)
        with np.errstate(over="ignore"):
            mag = np.power(float(s.ratio), ns.astype(float))
            out.real, out.imag = (c * mag if c else 0.0 for c in (s.scale.real, s.scale.imag))
        return out
    if isinstance(s, TableSignal):
        if lo < s.start or hi > s.end:
            raise WindowError(
                f"range [{lo}, {hi}] outside table window [{s.start}, {s.end}]"
            )
        return np.asarray(s.values[lo - s.start: hi - s.start + 1], dtype=complex)
    if isinstance(s, CumSum):
        span_lo, span_hi = min(lo, 0) + 1, max(hi, 0)
        if span_hi < span_lo:  # degenerate: lo = hi = 0
            return np.zeros(len(ns), dtype=complex)
        inner = eval_signal_range(s.inner, span_lo, span_hi)
        prefix = np.concatenate(([0j], np.cumsum(inner)))
        # prefix[i] = sum of inner over [span_lo, span_lo + i - 1], so on
        # both sides of 0, P phi(n) = prefix[n - span_lo + 1] - prefix[1 - span_lo]
        return prefix[ns - span_lo + 1] - prefix[1 - span_lo]
    raise TypeError(f"not a signal: {s!r}")


def signal_is_zero(s: Signal, tol: float = 0.0) -> bool:
    """Structural zero test (tables compare their samples against tol)."""
    if isinstance(s, ExpPoly):
        return not s.terms
    if isinstance(s, Geometric):
        return abs(s.scale) <= tol
    if isinstance(s, TableSignal):
        return all(abs(v) <= tol for v in s.values)
    if isinstance(s, CumSum):
        return signal_is_zero(s.inner, tol)
    raise TypeError(f"not a signal: {s!r}")


# ---------------------------------------------------------------------------
# closed-form polynomial helpers (coefficient tuples in n)


def _poly_shift(coeffs: Sequence[complex], y: int) -> list[complex]:
    """Coefficients of p(n + y) given those of p(n)."""
    out = [0j] * len(coeffs)
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        for l in range(j + 1):
            out[l] += c * math.comb(j, l) * y ** (j - l)
    return out


def _poly_trim(coeffs: Sequence[complex], floor: float) -> tuple[complex, ...]:
    out = [0j if abs(c) <= floor else complex(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


# ---------------------------------------------------------------------------
# structural operations


def translate_signal(s: Signal, y: int) -> Signal:
    """phi_y(n) = phi(n + y), in the same symbolic class."""
    if isinstance(s, ExpPoly):
        terms = []
        for term in s.terms:
            phase = cmath.exp(1j * term.freq.t * y)
            shifted = [phase * c for c in _poly_shift(term.coeffs, y)]
            terms.append(ExpPolyTerm(term.freq, tuple(shifted)))
        return ExpPoly(terms)
    if isinstance(s, Geometric):
        return Geometric(s.ratio, s.scale * s.ratio ** y)
    raise TypeError("translate is closed-form only for ExpPoly and Geometric")


def scale_signal(s: Signal, k: complex) -> Signal:
    if isinstance(s, ExpPoly):
        return ExpPoly([ExpPolyTerm(t.freq, tuple(k * c for c in t.coeffs)) for t in s.terms])
    if isinstance(s, Geometric):
        return Geometric(s.ratio, k * s.scale)
    if isinstance(s, TableSignal):
        return TableSignal(s.start, [k * v for v in s.values])
    if isinstance(s, CumSum):
        return CumSum(scale_signal(s.inner, k))
    raise TypeError(f"not a signal: {s!r}")


def modulate_signal(s: ExpPoly, gamma: CirclePoint) -> ExpPoly:
    """Multiply by the character e^{i gamma n}: all frequencies shift."""
    if not isinstance(s, ExpPoly):
        raise TypeError("modulation is closed-form only for ExpPoly")
    return ExpPoly(
        [ExpPolyTerm(CirclePoint(t.freq.t + gamma.t), t.coeffs) for t in s.terms]
    )


def add_signals(a: Signal, b: Signal) -> Signal:
    """Sum of two signals of compatible symbolic arms."""
    if isinstance(a, ExpPoly) and isinstance(b, ExpPoly):
        merged: list[tuple[CirclePoint, list[complex]]] = [
            (t.freq, list(t.coeffs)) for t in a.terms
        ]
        for term in b.terms:
            for freq, coeffs in merged:
                if freq.close_to(term.freq):
                    for j, c in enumerate(term.coeffs):
                        if j < len(coeffs):
                            coeffs[j] += c
                        else:
                            coeffs.append(c)
                    break
            else:
                merged.append((term.freq, list(term.coeffs)))
        scale = max(
            (abs(c) for _, coeffs in merged for c in coeffs), default=0.0
        )
        terms = [
            ExpPolyTerm(freq, trimmed)
            for freq, coeffs in merged
            if (trimmed := _poly_trim(coeffs, 1e-12 * scale))
        ]
        return ExpPoly(terms)
    if isinstance(a, Geometric) and isinstance(b, Geometric) and a.ratio == b.ratio:
        return Geometric(a.ratio, a.scale + b.scale)
    raise TypeError("sum not representable within one symbolic arm")


def difference_signal(s: Signal, y: int) -> Signal:
    """Closed-form difference phi(n+y) - phi(n) in the same class."""
    if isinstance(s, ExpPoly):
        terms = []
        for term in s.terms:
            phase = cmath.exp(1j * term.freq.t * y)
            shifted = _poly_shift(term.coeffs, y)
            diff = [phase * sc - c for sc, c in zip(shifted, term.coeffs)]
            scale = max((abs(c) for c in term.coeffs), default=0.0)
            trimmed = _poly_trim(diff, 1e-12 * max(scale, 1.0) * (1 + abs(y)) ** term.degree())
            if trimmed:
                terms.append(ExpPolyTerm(term.freq, trimmed))
        return ExpPoly(terms)
    if isinstance(s, Geometric):
        return Geometric(s.ratio, s.scale * (s.ratio ** y - 1.0))
    raise TypeError("difference is closed-form only for ExpPoly and Geometric")


def sample_signal(s: Signal, lo: int, hi: int) -> TableSignal:
    """Freeze a signal into a table on [lo, hi]."""
    return TableSignal(lo, eval_signal_range(s, lo, hi))


# ---------------------------------------------------------------------------
# weighted boundedness and annihilation


def weighted_sup(s: Signal, w, window: int) -> float:
    """max_{|n| <= window} |phi(n)| / w(n): empirical weighted-bounded check."""
    from .weights import eval_weight  # local import breaks the module cycle

    vals = np.abs(eval_signal_range(s, -window, window))
    return float(np.max(vals / eval_weight(w, np.arange(-window, window + 1))))


@dataclass(frozen=True)
class AnnihilationResult:
    """Outcome of (f* . phi): the result signal, a zero verdict, and the
    measured residual (0.0 when the zero is symbolic/exact)."""

    signal: Signal
    is_zero: bool
    residual: float


def annihilate(f: FinSeq, s: Signal, tol: float = 1e-8) -> AnnihilationResult:
    """Correlate phi against the involuted sequence:

        (f* . phi)(x) = sum_m conj(f(m)) phi(x + m).

    ExpPoly and Geometric are handled in closed form and the zero verdict is
    symbolic; tables are evaluated on the sub-window where every shift is in
    range, with verdict sup < tol * |f|_1 * max|phi|.
    """
    if not f:
        raise ValueError("annihilator must be a non-zero sequence")
    if isinstance(s, ExpPoly):
        terms = []
        residual = 0.0
        for term in s.terms:
            q = [0j] * len(term.coeffs)
            for m, fv in f.entries.items():
                factor = fv.conjugate() * cmath.exp(1j * term.freq.t * m)
                for l, c in enumerate(_poly_shift(term.coeffs, m)):
                    q[l] += factor * c
            scale = sum(
                abs(fv) * sum(abs(c) * (1.0 + abs(m)) ** j for j, c in enumerate(term.coeffs))
                for m, fv in f.entries.items()
            )
            trimmed = _poly_trim(q, 1e-10 * scale)
            if trimmed:
                terms.append(ExpPolyTerm(term.freq, trimmed))
            residual = max(residual, max((abs(c) for c in trimmed), default=0.0))
        out = ExpPoly(terms)
        return AnnihilationResult(out, not out.terms, residual if out.terms else 0.0)
    if isinstance(s, Geometric):
        factor = sum(fv.conjugate() * s.ratio ** m for m, fv in f.entries.items())
        # zero verdict is scale-aware: the factor is a sum of |f| * r^m terms
        scale = sum(abs(fv) * s.ratio ** m for m, fv in f.entries.items())
        if abs(factor) <= 1e-12 * scale:
            factor = 0.0
        out = Geometric(s.ratio, s.scale * factor)
        return AnnihilationResult(out, out.scale == 0, abs(out.scale))
    if isinstance(s, TableSignal):
        m_lo, m_hi = f.support()
        lo, hi = s.start - m_lo, s.end - m_hi
        if hi < lo:
            raise WindowError(
                "table window too small to slide the annihilator support"
            )
        xs = np.arange(lo, hi + 1)
        out = np.zeros(len(xs), dtype=complex)
        for m, fv in f.entries.items():
            out += fv.conjugate() * eval_signal_range(s, lo + m, hi + m)
        sup = float(np.max(np.abs(out))) if len(out) else 0.0
        bound = tol * f.abs_sum() * max(abs(v) for v in s.values)
        return AnnihilationResult(TableSignal(lo, out), sup <= bound, sup)
    raise TypeError("annihilation needs an ExpPoly, Geometric or TableSignal")
