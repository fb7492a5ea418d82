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
conj(f(m)) phi(x+m): in closed form on ExpPoly/Geometric, pointwise on
the valid sub-window for tables.  Translation phi(n + y) and the
difference phi(n + y) - phi(n) are the same correlation, taken with
delta_y and with delta_y - delta_0, so one kernel (``_correlate``) and
one zero rule serve all three.

Evaluation: ``eval_signal_range`` takes an ExpPoly's phases e^{i t n} from
a block table, one exp per PHASE_BLOCK samples, at the accuracy of
rounding t n.  ``outward_chunks`` yields a signal at n = 0, +-1, +-2, ...
in chunks of at most CHUNK samples; a CumSum carries its running sum from
chunk to chunk there, so a running sum to any radius needs O(CHUNK) memory.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import WindowError
from .seq_algebra import ANGULAR_TOL, PRUNE_REL, CirclePoint, FinSeq


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
            if isinstance(term, ExpPolyTerm):
                freq, coeffs = term.freq, list(term.coeffs)
            else:
                freq, coeffs = term
                if not isinstance(freq, CirclePoint):
                    freq = CirclePoint(float(freq))
                coeffs = [complex(c) for c in coeffs]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            if coeffs:
                cleaned.append(ExpPolyTerm(freq, tuple(coeffs)))
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
    """phi(n) = scale * ratio^n for a real ratio > 0 and a finite scale."""

    ratio: float
    scale: complex = 1.0

    def __post_init__(self):
        ratio, scale = float(self.ratio), complex(self.scale)
        if not 0 < ratio < math.inf:
            raise ValueError("geometric ratio must be positive and finite")
        if not cmath.isfinite(scale):
            raise ValueError("geometric scale must be finite")
        object.__setattr__(self, "ratio", ratio)
        object.__setattr__(self, "scale", scale)


@dataclass(frozen=True, eq=False)
class TableSignal:
    """Samples on the window [start, start + len(values) - 1], held as one
    read-only complex array.

    Equal when the windows and every sample agree; the hash agrees with that.
    """

    start: int
    values: np.ndarray

    def __init__(self, start: int, values: Sequence[complex] | np.ndarray):
        values = np.array(values, dtype=complex)  # a copy: callers keep theirs
        if values.ndim != 1:
            raise ValueError(f"samples must be one-dimensional, got shape {values.shape}")
        if not values.size:
            raise ValueError("table signal needs at least one sample")
        values.flags.writeable = False
        object.__setattr__(self, "start", int(start))
        object.__setattr__(self, "values", values)

    @property
    def end(self) -> int:
        return self.start + len(self.values) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TableSignal):
            return NotImplemented
        return self.start == other.start and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash((self.start, (self.values + 0.0).tobytes()))  # + 0.0 folds -0.0 into 0.0


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

#: Farthest |n| to which a running sum is streamed, and the largest top
#: window the boundedness probe accepts: 2 * 10^8 samples, about 7 s for
#: the running sum of one character (the time grows with the terms).
MAX_PROBE_WINDOW = 10 ** 8


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
        return s.values[lo - s.start: hi - s.start + 1].copy()
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
    and on (-m, 0] going down, nowhere else.  Past MAX_PROBE_WINDOW it is
    a ValueError, raised before anything is summed.
    """
    if not isinstance(s, CumSum):
        while start < stop:
            end = min(stop, (start // CHUNK + 1) * CHUNK)
            yield (eval_signal_range(s, start, end - 1) if sign > 0
                   else eval_signal_range(s, 1 - end, -start)[::-1])
            start = end
        return
    if stop - 1 > MAX_PROBE_WINDOW:
        raise ValueError(f"a running sum streamed to |n| = {stop - 1} exceeds "
                         f"MAX_PROBE_WINDOW = {MAX_PROBE_WINDOW}")
    if start == 0 < stop:
        yield np.zeros(1, dtype=complex)  # the empty sum P phi(0)
    first = 1 if sign > 0 else 0
    m, total = 1, 0j  # the next piece starts at P phi(sign * m)
    for piece in outward_chunks(s.inner, sign, first, stop - 1 + first):
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: the probe refuses it
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
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: the probe refuses it
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


def signal_is_zero(s: Signal) -> bool:
    """Structural zero test: no terms, a zero scale, or all samples zero."""
    if isinstance(s, ExpPoly):
        return not s.terms
    if isinstance(s, Geometric):
        return s.scale == 0
    if isinstance(s, TableSignal):
        return not s.values.any()
    if isinstance(s, CumSum):
        return signal_is_zero(s.inner)
    raise TypeError(f"not a signal: {s!r}")


# ---------------------------------------------------------------------------
# structural operations


def _correlate(s: Signal, n: np.ndarray, g: np.ndarray) -> Signal:
    """The closed form of x -> sum_m g(m) s(x + m) over offsets n, values g.

    An ExpPoly term e^{itx} sum_j c_j x^j goes to e^{itx} sum_l q_l x^l with
    q_l = sum_{j >= l} C(j, l) c_j S_{j-l}, from the moments
    S_k = sum_m g(m) e^{itm} m^k, all terms at once; a Geometric r^x is
    multiplied by sum_m g(m) r^m.  A coefficient is zero when its modulus
    is at most PRUNE_REL times its own a-priori bound, sum_{j >= l} C(j, l)
    |c_j| sum_m |g(m)| |m|^{j-l} (sum_m |g(m)| r^m for a Geometric).  The
    phases are taken as e^{itm_0} e^{it(m - m_0)} from the first offset m_0,
    so their rounding grows with the support's width, not its distance
    from 0.
    """
    m = n.astype(float)
    if isinstance(s, Geometric):
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: Geometric refuses it
            powers = np.power(s.ratio, m)
            factor = _pruned(np.sum(g * powers), np.sum(np.abs(g) * powers))
            return Geometric(s.ratio, s.scale * factor)
    if not isinstance(s, ExpPoly):
        raise TypeError(f"no closed form for {type(s).__name__}: need an ExpPoly or a Geometric")
    c = _coeff_rows(s.terms)
    binom, lag = _binomials(c.shape[1])
    t = np.array([term.freq.t for term in s.terms])
    powers = m ** np.arange(c.shape[1])[:, None]
    moments = (np.exp(1j * np.multiply.outer(t, m - m[0])) * g) @ powers.T
    q = np.einsum("tj,jl,tjl->tl", c, binom, moments[:, lag]) * np.exp(1j * t * m[0])[:, None]
    bound = np.abs(c) @ (binom * (np.abs(powers) @ np.abs(g))[lag])
    return ExpPoly(zip(s.frequencies(), _pruned(q, bound).tolist()))


@functools.lru_cache(maxsize=None)
def _binomials(width: int) -> tuple[np.ndarray, np.ndarray]:
    """C(j, l) and max(j - l, 0) for j, l < width, read-only; cached, as they
    depend on the width alone and small signals would rebuild them per call."""
    binom = np.array([[math.comb(j, l) for l in range(width)] for j in range(width)], dtype=float)
    lag = np.maximum(np.subtract.outer(np.arange(width), np.arange(width)), 0)
    binom.flags.writeable = lag.flags.writeable = False
    return binom, lag


def _coeff_rows(terms: Sequence[ExpPolyTerm]) -> np.ndarray:
    """The terms' coefficients as the rows of one zero-padded array."""
    rows = np.zeros((len(terms), max((t.degree() for t in terms), default=0) + 1), dtype=complex)
    for row, term in zip(rows, terms):
        row[:len(term.coeffs)] = term.coeffs
    return rows


def _pruned(q: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """q with zeros where |q| is at most PRUNE_REL times a finite bound."""
    return np.where((np.abs(q) <= PRUNE_REL * bound) & np.isfinite(bound), 0, q)


def translate_signal(s: Signal, y: int) -> Signal:
    """phi_y(n) = phi(n + y), in the same symbolic class."""
    return _correlate(s, np.array([y]), np.ones(1))


def scale_signal(s: Signal, k: complex) -> Signal:
    if isinstance(s, ExpPoly):
        return ExpPoly([ExpPolyTerm(t.freq, tuple(k * c for c in t.coeffs)) for t in s.terms])
    if isinstance(s, Geometric):
        return Geometric(s.ratio, k * s.scale)
    if isinstance(s, TableSignal):
        return TableSignal(s.start, k * s.values)
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
    """Sum of two signals of compatible symbolic arms; a summed ExpPoly
    coefficient of at most PRUNE_REL * sum_j (|a_j| + |b_j|) is zero."""
    if isinstance(a, ExpPoly) and isinstance(b, ExpPoly):
        freqs, slots = list(a.frequencies()), list(range(len(a.terms)))
        for term in b.terms:
            slot = next((i for i, f in enumerate(freqs) if f.close_to(term.freq)), len(freqs))
            if slot == len(freqs):
                freqs.append(term.freq)
            slots.append(slot)
        rows = _coeff_rows(a.terms + b.terms)
        total = np.zeros((len(freqs), rows.shape[1]), dtype=complex)
        bound = np.zeros(len(freqs))
        np.add.at(total, slots, rows)
        np.add.at(bound, slots, np.abs(rows).sum(axis=1))
        return ExpPoly(zip(freqs, _pruned(total, bound[:, None]).tolist()))
    if isinstance(a, Geometric) and isinstance(b, Geometric) and a.ratio == b.ratio:
        return Geometric(a.ratio, a.scale + b.scale)
    raise TypeError("sum not representable within one symbolic arm")


def difference_signal(s: Signal, y: int) -> Signal:
    """Closed-form difference phi(n+y) - phi(n) in the same class: the
    correlation with delta_y - delta_0."""
    # offsets sorted as in the FinSeq delta(y) - delta(0), so that its
    # annihilation sums in the same order and agrees term for term
    n, g = ([0, y], [-1.0, 1.0]) if y > 0 else ([y, 0], [1.0, -1.0])
    return _correlate(s, np.array(n), np.array(g))


def sample_signal(s: Signal, lo: int, hi: int) -> TableSignal:
    """Freeze a signal into a table on [lo, hi]."""
    return TableSignal(lo, eval_signal_range(s, lo, hi))


# ---------------------------------------------------------------------------
# annihilation


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

    ExpPoly and Geometric are handled in closed form (``_correlate``) and
    the zero verdict is symbolic; tables are correlated on the sub-window
    where every shift is in range, with verdict
    sup <= tol * |f|_1 * max|phi|.  ``tol`` decides tables only, and a
    table whose samples or correlation are not finite is a ValueError.
    """
    if not f:
        raise ValueError("annihilator must be a non-zero sequence")
    if isinstance(s, TableSignal):
        m_lo, m_hi = f.support()
        if s.end - s.start < m_hi - m_lo:
            raise WindowError(
                "table window too small to slide the annihilator support"
            )
        out = np.correlate(s.values, f._dense()[1], "valid")  # conjugates f
        sup, peak = float(np.max(np.abs(out))), float(np.max(np.abs(s.values)))
        if not math.isfinite(sup + peak):
            raise ValueError("table annihilation needs finite samples and correlation")
        return AnnihilationResult(TableSignal(s.start - m_lo, out),
                                  sup <= tol * f.abs_sum() * peak, sup)
    out = _correlate(s, f._n, np.conj(f._v))
    residual = (abs(out.scale) if isinstance(out, Geometric)
                else max((abs(c) for term in out.terms for c in term.coeffs), default=0.0))
    return AnnihilationResult(out, signal_is_zero(out), residual)
