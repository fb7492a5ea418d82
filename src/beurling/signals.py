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

Evaluation: ``outward_chunks`` yields a signal at n = 0, +-1, +-2, ... in
chunks of at most CHUNK samples, each written into one buffer that the
stream reuses.  An ExpPoly's phases e^{i t n} come from a block table, one
exp per PHASE_BLOCK samples, at the accuracy of rounding t n; a CumSum
carries its running sum from chunk to chunk in place, so a running sum to
any radius needs O(CHUNK) memory.  ``eval_signal_range`` copies the
streams of an ExpPoly or a CumSum into one new array.
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
#: window the boundedness probe accepts: 2 * 10^8 samples, about 2.5 s for
#: the running sum of one character (the time grows with the terms).
MAX_PROBE_WINDOW = 10 ** 8


def eval_signal_range(s: Signal, lo: int, hi: int) -> np.ndarray:
    """Vectorised evaluation on the inclusive range [lo, hi], as a new array.

    A table is sliced and a ``Geometric`` taken in closed form; an
    ``ExpPoly`` or a ``CumSum`` is copied out of its ``outward_chunks``
    streams into one result, n = -1, -2, ... filled in from the right.
    """
    if hi < lo:
        raise ValueError("empty evaluation range")
    if isinstance(s, TableSignal):
        return _table_range(s, lo, hi).copy()
    if isinstance(s, Geometric):
        return _geometric_range(s, lo, hi)
    if not isinstance(s, (ExpPoly, CumSum)):
        raise TypeError(f"not a signal: {s!r}")
    out = np.empty(hi - lo + 1, dtype=complex)
    below = max(min(hi, -1) - lo + 1, 0)  # samples at n < 0
    for dest, sign, start, stop in ((out[:below][::-1], -1, max(-hi, 1), 1 - lo),
                                    (out[below:], 1, max(lo, 0), hi + 1)):
        for chunk in outward_chunks(s, sign, start, stop):
            dest[:len(chunk)] = chunk
            dest = dest[len(chunk):]
    return out


def _table_range(s: TableSignal, lo: int, hi: int) -> np.ndarray:
    """The table's samples on [lo, hi], as a read-only view."""
    if lo < s.start or hi > s.end:
        raise WindowError(f"range [{lo}, {hi}] outside table window [{s.start}, {s.end}]")
    return s.values[lo - s.start: hi - s.start + 1]


def _geometric_range(s: Geometric, lo: int, hi: int) -> np.ndarray:
    """scale * ratio^n on [lo, hi], scaled part by part: a complex product
    turns an overflowing inf into inf+nanj."""
    out = np.empty(hi - lo + 1, dtype=complex)
    with np.errstate(over="ignore"):
        mag = np.power(float(s.ratio), np.arange(lo, hi + 1, dtype=float))
        out.real, out.imag = (c * mag if c else 0.0 for c in (s.scale.real, s.scale.imag))
    return out


def outward_chunks(s: Signal, sign: int, start: int, stop: int) -> Iterator[np.ndarray]:
    """Yield s(sign * m) for start <= m < stop, in order of m.

    Every chunk is a C-contiguous view of one buffer that the stream
    reuses: it is valid until the next chunk is asked for, so a consumer
    that keeps one copies it.  Chunks end at multiples of CHUNK, so memory
    stays O(CHUNK) however far out the range reaches.  An ``ExpPoly`` is
    evaluated straight into the buffer (``_exppoly_chunks``); table and
    ``Geometric`` samples are copied into it in order of |n|.  A ``CumSum``
    streams its inner signal outward from 0 and carries the partial sum
    across chunks, in place in the inner stream's buffer: it is the one
    place a running sum is taken, and it reads the inner signal on (0, m]
    going up and on (-m, 0] going down, nowhere else.  Past
    MAX_PROBE_WINDOW it is a ValueError, raised before anything is summed.
    """
    if isinstance(s, CumSum):
        yield from _running_sum(s, sign, start, stop)
        return
    if isinstance(s, ExpPoly):
        yield from _exppoly_chunks(s, sign, start, stop)
        return
    if not isinstance(s, (TableSignal, Geometric)):
        raise TypeError(f"not a signal: {s!r}")
    if start >= stop:
        return
    sampled = _table_range if isinstance(s, TableSignal) else _geometric_range
    buf = np.empty(min(stop - start, CHUNK), dtype=complex)
    for a, b in _spans(start, stop):
        chunk = buf[:b - a]
        chunk[:] = sampled(s, a, b - 1) if sign > 0 else sampled(s, 1 - b, -a)[::-1]
        yield chunk


def _spans(start: int, stop: int) -> Iterator[tuple[int, int]]:
    """[start, stop) cut into spans [a, b) that end at multiples of CHUNK."""
    while start < stop:
        end = min(stop, (start // CHUNK + 1) * CHUNK)
        yield start, end
        start = end


def _running_sum(s: CumSum, sign: int, start: int, stop: int) -> Iterator[np.ndarray]:
    if stop - 1 > MAX_PROBE_WINDOW:
        raise ValueError(f"a running sum streamed to |n| = {stop - 1} exceeds "
                         f"MAX_PROBE_WINDOW = {MAX_PROBE_WINDOW}")
    first = 1 if sign > 0 else 0
    m, total = 1, 0j  # the next piece starts at P phi(sign * m)
    for piece in outward_chunks(s.inner, sign, first, stop - 1 + first):
        if m == 1 and start == 0:
            # the empty sum P phi(0) borrows the first slot, given back before it is summed
            head, piece[0] = piece[0], 0
            yield piece[:1]
            piece[0] = head
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: the probe refuses it
            piece[0] += total  # adding the carry first keeps the sum sequential
            np.cumsum(piece, out=piece)
        total = piece[-1]
        if sign < 0:  # on the float view: exact, and vectorised where complex negation is not
            np.negative(piece.view(float), out=piece.view(float))
        if m + len(piece) > start:
            yield piece[max(start - m, 0):]
        m += len(piece)
    if start == 0 < stop == 1:  # no inner sample to borrow a slot from
        yield np.zeros(1, dtype=complex)


def _exppoly_chunks(s: ExpPoly, sign: int, start: int, stop: int) -> Iterator[np.ndarray]:
    """s(sign * m) for 0 <= start <= m < stop, with phases from a block table.

    e^{i t m} = e^{i t qB} e^{i t r} for m = qB + r: one complex product per
    sample, not one exp.  Blocks are counted from 0 (and n < 0 is read as
    t -> -t at |n|), so the rounding of t qB and t r adds up to at most that
    of t m, and a phase is as accurate as the direct e^{i t m} plus a few ulp.
    On the first block the block phase is 1 and the products run in the
    direct formula's operand order, so |n| < B gets the direct values.
    Each term's row e^{i t r} is taken once per stream (over the residues
    the stream has, when it stays inside one block); the block-phase table,
    and for polynomial terms the Horner buffers, are reused chunk to chunk.
    """
    if start >= stop:
        return
    buf = np.empty(min(stop - start, CHUNK), dtype=complex)
    q_first, r_first = divmod(start, PHASE_BLOCK)
    rows_max = min(CHUNK // PHASE_BLOCK, (stop - 1) // PHASE_BLOCK - q_first + 1)
    r_lo = r_first if rows_max == 1 else 0
    # a one-block stream takes only its own residues, plus one spare: numpy multiplies a
    # lone pair of size-1 operands without the fused multiply-add its longer loops use
    residues = np.arange(r_lo, r_lo + len(buf) + 1) if rows_max == 1 else np.arange(PHASE_BLOCK)
    table = np.empty((rows_max, len(residues)), dtype=complex)
    ts = [sign * term.freq.t for term in s.terms]
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: the probe refuses it
        terms = [(t, np.exp(1j * t * residues), term.coeffs) for t, term in zip(ts, s.terms)]
    if any(term.degree() for term in s.terms):
        steps, ns = np.arange(len(buf), dtype=float), np.empty(len(buf))
        poly, prod = np.empty_like(buf), np.empty_like(buf)
    for a, b in _spans(start, stop):
        out = buf[:b - a]
        q0, r0 = divmod(a, PHASE_BLOCK)
        rows = (b - 1) // PHASE_BLOCK - q0 + 1
        phases = table[:rows].ravel()[r0 - r_lo:][:b - a]
        if not terms:
            out.fill(0)
        chunk_ns = None
        with np.errstate(over="ignore", invalid="ignore"):
            for k, (t, row, coeffs) in enumerate(terms):
                block = np.exp(1j * (t * PHASE_BLOCK) * np.arange(q0, q0 + rows))
                if len(coeffs) == 1:
                    np.multiply(row, coeffs[0] * block[:, None], out=table[:rows])
                    value = phases
                else:
                    np.multiply(row, block[:, None], out=table[:rows])
                    if chunk_ns is None:
                        chunk_ns = np.add(steps[:b - a], float(a), out=ns[:b - a])
                        chunk_ns *= sign
                    value = poly[:b - a]
                    value.fill(coeffs[-1])
                    for c in coeffs[-2::-1]:  # Horner, in place
                        value *= chunk_ns
                        value += c
                    value = np.multiply(phases, value, out=prod[:b - a])  # in place, one sample rounds unfused
                np.add(out if k else 0j, value, out=out)  # a sum from 0: no -0.0 survives
        yield out


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
