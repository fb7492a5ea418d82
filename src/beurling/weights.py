"""Weight functions on the integers and their growth diagnostics.

A weight is a function w >= 1 with w(n+m) <= w(n) w(m).  Five descriptor
arms cover the package's needs: polynomial growth (1+|n|)^a, symmetric
exponential growth b^n + b^{-n}, finite symmetric tables, pointwise
products, and the weight derived from a signal's difference sups,

    w_phi(y) = 1 + (sup_x |phi(x+y)-phi(x)| + sup_x |phi(x-y)-phi(x)|) / 2

with the sups taken over a finite window (an under-approximation of the
group-wide sup, documented as such).

The diagnostics are honest about finite evidence: convergence of
sum_m log w(m x)/m^2 (the Beurling-Domar condition) is undecidable from
finitely many samples, so that probe returns a holds / fails /
inconclusive verdict with its witness trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal, Optional, Union

import numpy as np

from .errors import WindowError
from .signals import Signal, eval_signal_range

#: Relative slack allowed in the submultiplicativity check: floating-point
#: powers of reals are inexact.
SUBMULT_TOL = 1e-9

#: ``analyze_weight`` classifies growth on 0..GROWTH_WINDOW.
GROWTH_WINDOW = 1000

#: ``check_weight_axioms`` tests about this many pairs (n, m) at once, which
#: bounds its working memory whatever the window.
AXIOM_BLOCK = 2 ** 15


@dataclass(frozen=True)
class PowerWeight:
    """w(n) = (1 + |n|)^exponent, exponent >= 0."""

    exponent: float

    def __post_init__(self):
        if self.exponent < 0:
            raise ValueError("power weight exponent must be >= 0")
        object.__setattr__(self, "exponent", float(self.exponent))


@dataclass(frozen=True)
class ExponentialWeight:
    """w(n) = base^n + base^(-n), base > 1."""

    base: float

    def __post_init__(self):
        if not self.base > 1:
            raise ValueError("exponential weight base must be > 1")
        object.__setattr__(self, "base", float(self.base))


@dataclass(frozen=True)
class TableWeight:
    """Symmetric finite table: w(n) = values[|n|] for |n| <= half_window.

    Nothing about the values is assumed; the axioms are only checked.
    """

    half_window: int
    values: tuple[float, ...]

    def __init__(self, half_window: int, values):
        values = tuple(float(v) for v in values)
        if half_window < 0:
            raise ValueError("half_window must be >= 0")
        if len(values) != half_window + 1:
            raise ValueError(
                f"need {half_window + 1} values for half window {half_window}, "
                f"got {len(values)}"
            )
        object.__setattr__(self, "half_window", int(half_window))
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class ProductWeight:
    left: "WeightSpec"
    right: "WeightSpec"


@dataclass(frozen=True)
class SignalDerivedWeight:
    """Weight induced by a signal's difference sups over a finite window."""

    signal: Signal
    sup_window: int

    def __post_init__(self):
        if self.sup_window < 0:
            raise ValueError("sup window must be >= 0")


WeightSpec = Union[
    PowerWeight, ExponentialWeight, TableWeight, ProductWeight, SignalDerivedWeight
]

Verdict = Literal["holds", "fails", "inconclusive"]


# ---------------------------------------------------------------------------
# evaluation

#: Overflow to inf, 0 * inf and log(0) are results here, not warnings.
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def eval_weight(w: WeightSpec, n):
    """w(n) for an int or an integer array n, in value space: inf where a
    float overflows; WindowError where n lies past the window that defines w
    (a finite table, or a sampled signal too short for the shift)."""
    vals, _, inside = _evaluate(w, n)
    if not inside.all():
        raise WindowError(f"n = {np.ravel(n)[~inside][0]} lies past the window of the weight")
    return vals.reshape(np.shape(n))[()]


@_quiet
def _evaluate(w: WeightSpec, n) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, log w, inside) at the flattened n, one dispatch for all of it;
    past the window that defines w, inside is False and the values mean nothing.
    log w is closed-form for power, exponential and product weights, so it
    does not overflow; elsewhere it is log of the value, -inf where w(n) <= 0."""
    k = np.abs(np.ravel(n))  # every weight is even; ints past int64 stay Python ints
    everywhere = np.ones(len(k), dtype=bool)
    if isinstance(w, PowerWeight):
        kf = k.astype(float)
        return np.power(1.0 + kf, w.exponent), w.exponent * np.log1p(kf), everywhere
    if isinstance(w, ExponentialWeight):
        kf = k.astype(float)
        vals = _power(w.base, kf) + _power(w.base, -kf)
        return vals, kf * math.log(w.base) + np.log1p(_power(w.base, -2.0 * kf)), everywhere
    if isinstance(w, ProductWeight):
        lv, ll, lin = _evaluate(w.left, k)
        rv, rl, rin = _evaluate(w.right, k)
        return lv * rv, ll + rl, lin & rin
    if isinstance(w, TableWeight):
        inside = k <= w.half_window
        vals = np.asarray(w.values)[np.where(inside, k, 0).astype(np.intp)]
    elif isinstance(w, SignalDerivedWeight):
        vals, inside = _signal_derived(w, k)
    else:
        raise TypeError(f"not a weight descriptor: {w!r}")
    return vals, np.where(vals <= 0, -np.inf, np.log(vals)), inside


def _power(base: float, exponents: np.ndarray) -> np.ndarray:
    """np.power(base, exponents) for base > 1, bit for bit, with inf or 0
    filled in where |exponent| log2(base) > 1100, far past the float range:
    numpy takes about eight times as long on a power that overflows or
    underflows as on one that does not."""
    out = np.where(exponents > 0, np.inf, 0.0)
    inside = np.abs(exponents) * math.log2(base) <= 1100
    out[inside] = np.power(base, exponents[inside])
    return out


def _signal_derived(w: SignalDerivedWeight, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w_phi at |y| = k, one signal evaluation per shift y.  A shift that
    leaves a sampled window leaves every larger one out too."""
    s, S = w.signal, w.sup_window
    ys, back = np.unique(k, return_inverse=True)
    vals = np.full(len(ys), np.nan)
    done = 0
    try:
        base = eval_signal_range(s, -S, S)
        for y in ys.tolist():
            plus, minus = (float(np.max(np.abs(eval_signal_range(s, d - S, d + S) - base)))
                           for d in (y, -y))
            vals[done] = 1.0 + 0.5 * (plus + minus)
            done += 1
    except WindowError:
        pass
    return vals[back], back < done


def _orbit_logs(w: WeightSpec, x: int, first: int, last: int) -> np.ndarray:
    """log w(m x) for m = first..last, stopping before the first m x past
    the window that defines w (a finite table, or a short sampled signal)."""
    dtype = np.int64 if abs(x) * last < 2 ** 63 else object  # exact Python ints past int64
    _, logs, inside = _evaluate(w, np.arange(first, last + 1, dtype=dtype) * x)
    return logs[: int(np.logical_and.accumulate(inside).sum())]


# ---------------------------------------------------------------------------
# axiom checking


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Outcome of a finite-evidence convergence probe, with the witness
    trace of (m, value) checkpoints."""

    verdict: Verdict
    trace: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class GrowthClass:
    """Empirical polynomial growth fit: c1 (1+|m|^N) <= w(m) <= c2 (1+|m|^(N+alpha))."""

    N: int
    alpha: float
    c1: float
    c2: float


@dataclass(frozen=True)
class WeightReport:
    axioms_ok: bool
    violations: tuple[tuple[int, int, str], ...]
    beurling_domar: Optional[ConvergenceVerdict] = None
    growth: Optional[GrowthClass] = None


@_quiet
def check_weight_axioms(w: WeightSpec, window: int) -> WeightReport:
    """Verify w >= 1 and submultiplicativity on |n|, |m|, |n+m| <= window.

    Violations are data, not exceptions: each is reported as
    (n, m, description), with m = 0 rows marking pointwise w(n) < 1.  Points
    past a table's window are skipped (WindowError if that is all of them).
    Submultiplicativity is decided in log space, so weights past the float
    range are checked too.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    ns = np.arange(-window, window + 1)
    vals, logs, inside = _evaluate(w, ns)
    if not inside.any():
        raise WindowError(f"the weight is defined nowhere on [-{window}, {window}]")
    low = inside & ~(vals >= 1.0)
    violations = [(int(n), 0, f"w({n}) = {float(v)} < 1") for n, v in zip(ns[low], vals[low])]
    slack = math.log1p(SUBMULT_TOL)
    # the unordered pairs m >= n with |m|, |n + m| <= window, a block of rows n at a time
    rows = ns[inside & (2 * ns <= window)]
    per = max(1, AXIOM_BLOCK // len(ns))
    for start in range(0, len(rows), per):
        block = rows[start:start + per, None]  # n down, m = ns across
        at = np.clip(block + ns + window, 0, 2 * window)  # index of n + m
        pair = (ns >= block) & (np.abs(block + ns) <= window) & inside & inside[at]
        a, la, c, lc = vals[block + window], logs[block + window], vals[at], logs[at]
        # a log of -inf drops the sign of a value <= 0: such pairs compare values
        over = np.where((a > 0) & (vals > 0) & (c > 0), lc > la + logs + slack,
                        c > a * vals * (1.0 + SUBMULT_TOL))
        for i, j in zip(*np.nonzero(over & pair)):
            n, m, lhs, rhs = int(block[i, 0]), int(ns[j]), float(c[i, j]), float(a[i, 0] * vals[j])
            violations.append((n, m, f"w({n}+{m}) = {lhs} > w({n})w({m}) = {rhs}"))
    return WeightReport(axioms_ok=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# convergence and growth probes


def _slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares slopes of the rows of y against x (two distinct x at least)."""
    dx = x - x.mean()
    return y @ dx / (dx @ dx)


def _trace(values: np.ndarray) -> tuple[tuple[int, float], ...]:
    """(m, values[m - 1]) at the checkpoints m = 1, 2, 4, ... and the last m."""
    M = len(values)
    ms = sorted({min(M, 2 ** k) for k in range(int(math.log2(M)) + 2)} | {1, M}) if M else []
    return tuple((m, float(values[m - 1])) for m in ms)


@_quiet
def check_beurling_domar(w: WeightSpec, x: int, M: int) -> ConvergenceVerdict:
    """Probe convergence of sum_{m>=1} log w(m x) / m^2 along the orbit of x.

    Finite samples cannot decide convergence, so the rule is deliberately
    conservative:

    * holds  -- every term is zero, or the terms decay with a fitted
      power-law exponent >= 1.1 over the last decade while the final term
      has dropped below 1e-3 of the peak;
    * fails  -- m * term_m (that is, log w(m x)/m) stays above 1e-3 without
      decreasing over the last decade: comparison against the harmonic
      series certifies divergence of the trend;
    * inconclusive otherwise.

    The returned trace holds partial sums at geometric checkpoints.
    """
    if x == 0:
        raise ValueError("orbit direction x must be non-zero")
    if M < 10:
        raise ValueError("need at least 10 terms")
    logs = _orbit_logs(w, x, 1, M)
    top = len(logs)
    ms = np.arange(1, top + 1)
    terms = logs / ms ** 2
    trace = _trace(np.cumsum(terms))
    if top < 10:
        return ConvergenceVerdict("inconclusive", trace)
    if not np.isfinite(terms).all():
        return ConvergenceVerdict("fails", trace)
    peak = terms.max()
    if peak <= 1e-15:
        return ConvergenceVerdict("holds", trace)

    tail = slice(max(1, top // 10) - 1, top)
    tail_m, tail_t = ms[tail], terms[tail]

    # divergence: log w(mx)/m bounded below and flat, like a harmonic tail
    b = tail_m * tail_t
    if b.min() >= 1e-3 and b[0] > 0 and (b[0] - b[-1]) / b[0] < 0.10:
        return ConvergenceVerdict("fails", trace)

    # convergence: clear power-law decay with exponent safely above 1
    positive = tail_t > 0
    if positive.sum() >= 3:
        slope = _slopes(np.log(tail_m[positive]), np.log(tail_t[positive]))
        if slope <= -1.1 and terms[-1] <= 1e-3 * peak:
            return ConvergenceVerdict("holds", trace)
    return ConvergenceVerdict("inconclusive", trace)


@_quiet
def classify_growth(w: WeightSpec, n_max: int, window: int) -> Optional[GrowthClass]:
    """Largest N <= n_max with an admissible polynomial sandwich on the window.

    The lower ratio w(m)/(1+|m|^N) must not trend to zero and the upper
    ratio w(m)/(1+|m|^(N+alpha)) must not trend upward (log-log slopes over
    the last decade within +-0.1); the constants are the extremal ratios.
    alpha = 0.5 is tried first, then a scan over 0.1..0.9.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if window < 10:
        raise ValueError("window must be >= 10")
    logs = _orbit_logs(w, 1, 0, window)
    if not len(logs):
        raise WindowError("the weight is not defined at 0")
    top = len(logs) - 1
    if top < 10:
        return None
    ms = np.arange(top + 1, dtype=float)
    full = np.isfinite(logs)
    tail = np.flatnonzero(full[max(1, top // 10):]) + max(1, top // 10)
    if len(tail) < 3:
        return None
    log_m = np.log(ms[tail])

    alphas = np.array([0.5] + [a / 10 for a in range(1, 10) if a != 5])
    for N in range(n_max, -1, -1):
        lower = logs - np.log1p(ms ** N)
        if not np.isfinite(lower[tail]).all() or _slopes(log_m, lower[tail]) < -0.1:
            continue
        uppers = logs[tail] - np.log1p(ms[tail] ** (N + alphas[:, None]))
        fits = np.flatnonzero(~(_slopes(log_m, uppers) > 0.1))  # a nan slope fits
        if len(fits):
            alpha = float(alphas[fits[0]])
            upper = logs - np.log1p(ms ** (N + alpha))
            c1, c2 = np.exp(lower[full].min()), np.exp(upper[full].max())
            return GrowthClass(N=N, alpha=alpha, c1=float(c1), c2=float(c2))
    return None


def analyze_weight(
    w: WeightSpec,
    window: int = 50,
    *,
    orbit: int = 1,
    terms: int = 10_000,
    n_max: int = 3,
) -> WeightReport:
    """Full report: axioms on the window, Beurling-Domar probe along
    ``orbit``, and the polynomial growth classification on GROWTH_WINDOW."""
    return replace(check_weight_axioms(w, window),
                   beurling_domar=check_beurling_domar(w, orbit, terms),
                   growth=classify_growth(w, n_max, GROWTH_WINDOW))
