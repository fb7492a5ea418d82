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

Evaluation: ``eval_signal_range`` takes an ExpPoly's phases e^{i t n} from
a block table, one exp per PHASE_BLOCK samples, at the accuracy of
rounding t n.  ``outward_chunks`` yields a signal at n = 0, +-1, +-2, ...
in chunks of at most CHUNK samples; a CumSum carries its running sum from
chunk to chunk there, so a running sum to any radius needs O(CHUNK) memory.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

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

#: Phase-table block length B: one exp per B samples for the block phases
#: and a row of B exps per call, small against a chunk and held in L1.
PHASE_BLOCK = 512

#: Samples per streamed chunk (a multiple of PHASE_BLOCK): 256 KB of
#: complex values, large enough that numpy's per-call cost is lost in the
#: work and small enough that a probe to any radius needs a few MB.
CHUNK = 2 ** 14


def eval_signal(s: Signal, n: int) -> complex:
    """Exact evaluation of the signal at a single integer."""
    return complex(eval_signal_range(s, n, n)[0])


def eval_signal_range(s: Signal, lo: int, hi: int) -> np.ndarray:
    """Vectorised evaluation on the inclusive range [lo, hi].

    ``ExpPoly`` phases come from a block table (see ``_exppoly_along``);
    a ``CumSum`` is summed outward from 0 by ``outward_chunks``.
    """
    if hi < lo:
        raise ValueError("empty evaluation range")
    if isinstance(s, ExpPoly):
        if lo >= 0:
            return _exppoly_along(s, 1, lo, hi + 1)
        down = _exppoly_along(s, -1, max(-hi, 1), 1 - lo)[::-1]
        return down if hi < 0 else np.concatenate((down, _exppoly_along(s, 1, 0, hi + 1)))
    if isinstance(s, Geometric):
        # scaled part by part: a complex product turns an overflowing inf into inf+nanj
        out = np.empty(hi - lo + 1, dtype=complex)
        with np.errstate(over="ignore"):
            mag = np.power(float(s.ratio), np.arange(lo, hi + 1, dtype=float))
            out.real, out.imag = (c * mag if c else 0.0 for c in (s.scale.real, s.scale.imag))
        return out
    if isinstance(s, TableSignal):
        if lo < s.start or hi > s.end:
            raise WindowError(
                f"range [{lo}, {hi}] outside table window [{s.start}, {s.end}]"
            )
        return np.asarray(s.values[lo - s.start: hi - s.start + 1], dtype=complex)
    if isinstance(s, CumSum):
        parts = []
        if lo < 0:  # chunks below 0 come outward; put them back in order of n
            parts = [c[::-1] for c in outward_chunks(s, -1, max(-hi, 1), 1 - lo)][::-1]
        if hi >= 0:
            parts += outward_chunks(s, 1, max(lo, 0), hi + 1)
        return np.concatenate(parts)
    raise TypeError(f"not a signal: {s!r}")


def outward_chunks(s: Signal, sign: int, start: int, stop: int) -> Iterator[np.ndarray]:
    """Yield s(sign * m) for start <= m < stop, in order of m, as new arrays.

    Chunks end at multiples of CHUNK, so memory stays O(CHUNK) however far
    out the range reaches.  A ``CumSum`` streams its inner signal outward
    from 0 and carries the partial sum across chunks: it is the one place a
    running sum is taken, and it reads the inner signal on (0, m] going up
    and on (-m, 0] going down, nowhere else.
    """
    if not isinstance(s, CumSum):
        while start < stop:
            end = min(stop, (start // CHUNK + 1) * CHUNK)
            yield (eval_signal_range(s, start, end - 1) if sign > 0
                   else eval_signal_range(s, 1 - end, -start)[::-1])
            start = end
        return
    if start == 0 < stop:
        yield np.zeros(1, dtype=complex)  # the empty sum P phi(0)
    first = 1 if sign > 0 else 0
    m, total = 1, 0j  # the next piece starts at P phi(sign * m)
    for piece in outward_chunks(s.inner, sign, first, stop - 1 + first):
        piece[0] += total  # adding the carry first keeps the sum sequential
        np.cumsum(piece, out=piece)
        total = piece[-1]
        if sign < 0:
            np.negative(piece, out=piece)
        if m + len(piece) > start:
            yield piece[max(start - m, 0):]
        m += len(piece)


def _exppoly_along(s: ExpPoly, sign: int, a: int, b: int) -> np.ndarray:
    """s(sign * m) for 0 <= a <= m < b, with phases from a block table.

    e^{i t m} = e^{i t qB} e^{i t r} for m = qB + r: one complex product per
    sample, not one exp.  Blocks are counted from 0 (and n < 0 is read as
    t -> -t at |n|), so the rounding of t qB and t r adds up to at most that
    of t m, and a phase is as accurate as the direct e^{i t m} plus a few ulp.
    On the first block the block phase is 1 and the products run in the
    direct formula's operand order, so |n| < B gets the direct values.
    """
    out = np.zeros(b - a, dtype=complex)
    q0, r0 = divmod(a, PHASE_BLOCK)
    rows = (b - 1) // PHASE_BLOCK - q0 + 1
    residues = np.arange(PHASE_BLOCK) if rows > 1 else np.arange(r0, r0 + b - a)
    table = np.empty((rows, len(residues)), dtype=complex)
    phases = table.ravel()[r0 if rows > 1 else 0:][:b - a]
    ns = None
    for term in s.terms:
        t = sign * term.freq.t
        block = np.exp(1j * (t * PHASE_BLOCK) * np.arange(q0, q0 + rows))
        row = np.exp(1j * t * residues)
        if term.degree() == 0:
            np.multiply(row, term.coeffs[0] * block[:, None], out=table)
            out += phases
            continue
        np.multiply(row, block[:, None], out=table)
        if ns is None:
            ns = sign * np.arange(a, b, dtype=float)
        poly = np.full(b - a, term.coeffs[-1])
        for c in term.coeffs[-2::-1]:  # Horner, in place
            poly *= ns
            poly += c
        np.multiply(phases, poly, out=poly)
        out += poly
    return out


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
    pairs = list(f)  # sorted (offset, value)
    if isinstance(s, ExpPoly):
        terms = []
        residual = 0.0
        for term in s.terms:
            q = [0j] * len(term.coeffs)
            for m, fv in pairs:
                factor = fv.conjugate() * cmath.exp(1j * term.freq.t * m)
                for l, c in enumerate(_poly_shift(term.coeffs, m)):
                    q[l] += factor * c
            scale = sum(
                abs(fv) * sum(abs(c) * (1.0 + abs(m)) ** j for j, c in enumerate(term.coeffs))
                for m, fv in pairs
            )
            trimmed = _poly_trim(q, 1e-10 * scale)
            if trimmed:
                terms.append(ExpPolyTerm(term.freq, trimmed))
            residual = max(residual, max((abs(c) for c in trimmed), default=0.0))
        out = ExpPoly(terms)
        return AnnihilationResult(out, not out.terms, residual if out.terms else 0.0)
    if isinstance(s, Geometric):
        factor = sum(fv.conjugate() * s.ratio ** m for m, fv in pairs)
        # zero verdict is scale-aware: the factor is a sum of |f| * r^m terms
        scale = sum(abs(fv) * s.ratio ** m for m, fv in pairs)
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
        for m, fv in pairs:
            out += fv.conjugate() * eval_signal_range(s, lo + m, hi + m)
        sup = float(np.max(np.abs(out))) if len(out) else 0.0
        bound = tol * f.abs_sum() * max(abs(v) for v in s.values)
        return AnnihilationResult(TableSignal(lo, out), sup <= bound, sup)
    raise TypeError("annihilation needs an ExpPoly, Geometric or TableSignal")
