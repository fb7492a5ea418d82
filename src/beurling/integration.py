"""Discrete indefinite integrals and boundedness probes.

The running sum P phi(n) = sum_{0 < j <= n} phi(j) is bounded exactly when
the spectrum of phi stays away from the unit character; this module
provides the operator, the compact-support running sum K on sequences
(which stays finitely supported precisely while the transform keeps
vanishing at 0), and a finite-evidence boundedness verdict over growing
windows.

The probe streams the signal outward from 0 on each side in chunks
(``signals.outward_chunks``, one reused buffer per side), takes their
moduli into one reused float buffer and keeps one running sup per window
ring, so its memory is O(chunk) whatever the top window; that window is
capped at MAX_PROBE_WINDOW.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import UnboundedSupportError
from .seq_algebra import PRUNE_REL, FinSeq
from .signals import CHUNK, MAX_PROBE_WINDOW, CumSum, Signal, outward_chunks

#: Two consecutive window sups within this relative distance count as
#: stabilized.
STABILIZE_REL = 1e-6

#: Alternative bounded route: increments between windows shrinking by at
#: least this factor certify geometric convergence of the sup trace.
INCREMENT_DECAY = 1e-2

#: Slow-growth envelope: sup growth of at most this fraction per decade of
#: window still counts as bounded.  Sup traces of almost-periodic signals
#: approach their limit at the simultaneous-approximation rate (about
#: W^(-2/k) for k frequencies, ~1% per decade at these window sizes for
#: k = 3), well under this; linear growth gives a factor of ten per decade
#: and logarithmic growth about 1.3.
SLOW_GROWTH_PER_DECADE = 5e-2

#: Increments growing by at least this factor flag superlinear growth in
#: log-window.
SUPERLINEAR_RATIO = 1.5


@dataclass(frozen=True)
class BoundednessVerdict:
    verdict: Literal["bounded", "unboundedTrend", "inconclusive"]
    sup_trace: tuple[tuple[int, float], ...]


def cumulative_P(s: Signal) -> CumSum:
    """The discrete indefinite integral anchored at 0.

    Linear, with the discrete fundamental theorem
    (P phi)(n+1) - (P phi)(n) = phi(n+1).
    """
    return CumSum(s)


def k_transform(f: FinSeq, iterations: int = 1) -> FinSeq:
    """Iterated running sum K f(n) = sum_{m <= n} f(m) on sequences.

    Each application stays finitely supported exactly when the current
    transform vanishes at 0 (total mass zero, by the sequence zero rule: at
    most PRUNE_REL times sum |f(m)|); otherwise the running sum is
    eventually constant and non-zero, and the stage index is reported.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    cur = f
    for stage in range(1, iterations + 1):
        if not cur:
            return cur
        mass = complex(np.sum(cur._v))  # the transform at 0, before any dense span
        if abs(mass) > PRUNE_REL * cur.abs_sum():
            raise UnboundedSupportError(
                f"transform at 0 is {mass} at stage {stage}; the running sum "
                "does not stay finitely supported",
                stage=stage,
            )
        lo, dense = cur._dense()
        cur = FinSeq._from_dense(lo, np.cumsum(dense))  # prunes cancellation noise
    return cur


def boundedness_probe(s: Signal, windows: Sequence[int]) -> BoundednessVerdict:
    """Sup of |phi| over nested windows [-W, W], with a trend verdict.

    bounded routes: the last two sups agree to STABILIZE_REL; or the
    increments decay geometrically (ratio <= INCREMENT_DECAY); or the sup
    grows slower than SLOW_GROWTH_PER_DECADE per decade of window.
    unboundedTrend: the increments grow by at least SUPERLINEAR_RATIO while
    the sup itself grows substantially (the trace is superlinear in
    log-window).  Anything else is inconclusive.

    A top window above MAX_PROBE_WINDOW, or a non-finite sup (naming the
    first window that holds one), is a ValueError.
    """
    windows = [int(w) for w in windows]
    if len(windows) < 2:
        raise ValueError("need at least two windows")
    if any(b <= a for a, b in zip(windows, windows[1:])) or windows[0] < 1:
        raise ValueError("windows must be strictly increasing and positive")
    top = windows[-1]
    if top > MAX_PROBE_WINDOW:
        raise ValueError(f"top window {top} exceeds MAX_PROBE_WINDOW = {MAX_PROBE_WINDOW}")
    rings = list(zip([0] + [w + 1 for w in windows], [w + 1 for w in windows]))
    ring_sup = np.zeros(len(windows))  # ring i holds w_{i-1} < |n| <= w_i
    moduli = np.empty(min(top + 1, CHUNK))
    for sign, start in ((1, 0), (-1, 1)):
        for chunk in outward_chunks(s, sign, start, top + 1):
            mag = moduli[:len(chunk)]  # |phi(sign * m)| for m from start on
            with np.errstate(over="ignore"):  # a modulus past the float range is inf
                np.abs(chunk, out=mag)
            for i, (r_lo, r_hi) in enumerate(rings):
                seg = mag[max(r_lo - start, 0): max(r_hi - start, 0)]
                if len(seg):
                    ring_sup[i] = np.maximum(ring_sup[i], seg.max())  # keeps a nan
            start += len(chunk)
    sups = [float(v) for v in np.maximum.accumulate(ring_sup)]
    for w, sup in zip(windows, sups):
        if not math.isfinite(sup):
            raise ValueError(f"sup of |phi| over window {w} is {sup}; "
                             "no verdict is drawn from non-finite evidence")
    trace = tuple(zip(windows, sups))

    last, prev = sups[-1], sups[-2]
    if abs(last - prev) <= STABILIZE_REL * max(last, 1e-12):
        return BoundednessVerdict("bounded", trace)
    increments = [b - a for a, b in zip(sups, sups[1:])]
    ratio = None
    if len(increments) >= 2 and increments[-2] > 0:
        ratio = increments[-1] / increments[-2]
        if ratio <= INCREMENT_DECAY:
            return BoundednessVerdict("bounded", trace)
    decades = math.log10(windows[-1] / windows[-2])
    if prev > 0 and last <= prev * (1.0 + SLOW_GROWTH_PER_DECADE * decades):
        return BoundednessVerdict("bounded", trace)
    if ratio is not None and ratio >= SUPERLINEAR_RATIO and last >= 1.1 * prev:
        return BoundednessVerdict("unboundedTrend", trace)
    return BoundednessVerdict("inconclusive", trace)
