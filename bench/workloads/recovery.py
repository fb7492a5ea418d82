"""recovery: recover an exponential polynomial from samples, then decide.

Each request samples a planted sum of e^{i t_k n} p_k(n) (at most three
frequencies, degrees at most 2, frequencies at least 0.3 rad apart and from
0) on a window and calls decompose_finite_spectrum.  For signals of degree
0 the request goes on to decide boundedness of the running sum of the
recovered signal out to |n| = 10^5: the spectrum avoids 0, so the verdict
must be "bounded", and every sup must respect the closed-form bound.
"""

from __future__ import annotations

import numpy as np

from beurling import integration as ig
from beurling import signals as sg
from beurling import spectra as sp

from .common import (
    Request,
    cumsum_sup_bound,
    expect,
    expect_recovered,
    exppoly_values,
    random_exppoly_terms,
)

#: (class, window length, degree of each term).  "recover" requests only
#: decompose (a few ms); "decide" requests also run the boundedness probe
#: (about 100x dearer).  Ten of fifteen are "recover", so the median
#: request is one of them and throughput is set mostly by "decide".
SLOTS = [
    ("recover", 121, (1,)), ("recover", 151, (2, 0)), ("recover", 181, (1, 1, 0)),
    ("recover", 211, (2, 1)), ("recover", 241, (2, 2, 1)), ("recover", 121, (0, 2)),
    ("recover", 151, (1, 0, 0)), ("recover", 181, (2,)), ("recover", 211, (0, 1)),
    ("recover", 241, (1, 2, 0)),
    ("decide", 121, (0,)), ("decide", 151, (0, 0)), ("decide", 181, (0, 0, 0)),
    ("decide", 211, (0, 0)), ("decide", 241, (0, 0, 0)),
]
WARMUP = [("recover", 121, (1, 0)), ("decide", 121, (0,))]

K_MAX, N_MAX = 3, 2
WINDOWS = (100, 1_000, 10_000, 100_000)


def requests(seed: int, slots=SLOTS) -> list[Request]:
    rng = np.random.default_rng(seed)
    return [_request(rng, kind, length, degrees) for kind, length, degrees in slots]


def _request(rng, kind: str, length: int, degrees) -> Request:
    truth = random_exppoly_terms(rng, degrees)
    start = int(rng.integers(-length, 1))
    table = sg.TableSignal(start, exppoly_values(truth, np.arange(start, start + length)))
    decide = kind == "decide"

    def call():
        recovered = sp.decompose_finite_spectrum(table, K_MAX, N_MAX)
        if not decide:
            return recovered, None
        return recovered, ig.boundedness_probe(ig.cumulative_P(recovered), WINDOWS)

    def check(out):
        recovered, verdict = out
        expect_recovered([(term.freq.t, term.coeffs) for term in recovered.terms], truth, "recovery")
        if decide:
            expect(verdict.verdict == "bounded", f"verdict {verdict.verdict}, spectrum avoids 0")
            bound = cumsum_sup_bound(truth) * (1.0 + 1e-6)
            expect([w for w, _ in verdict.sup_trace] == list(WINDOWS), "probe windows differ")
            expect(all(s <= bound for _, s in verdict.sup_trace),
                   f"sup trace {verdict.sup_trace} above the bound {bound!r}")

    return Request(kind, call, check)
