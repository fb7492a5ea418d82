"""hulls: hulls and primary-ideal classes of finitely generated ideals.

Each generator is a random factor 1 + sum c_k u^k with sum |c_k| < 1 (zero
free on the whole circle) times planted factors (delta_0 - e^{it} delta_1)^m,
so the true hull is known exactly: the planted angles common to every
generator, each with the smallest planted multiplicity.  Seeded requests
plant multiplicities 1 and 2 only; the two fixed requests below plant 5
and 6.
"""

from __future__ import annotations

import numpy as np

from beurling import seq_algebra as sa
from beurling import signals as sg
from beurling import spectra as sp

from .common import (
    Request,
    as_entries,
    exppoly_values,
    expect,
    expect_points,
    expect_positive_certificate,
    generator_coeffs,
    separated_angles,
    unit_phases,
)

#: (kind, generators, support of each generator).  Sizes are fixed so that
#: every seed gives the same cost profile; the seed draws the values.
SLOTS = [
    ("single", 1, 96), ("single", 1, 128), ("single", 1, 176), ("single", 1, 240),
    ("common", 2, 96), ("common", 3, 112), ("common", 2, 160), ("common", 2, 224),
    ("disjoint", 2, 96), ("disjoint", 3, 112), ("disjoint", 2, 160), ("disjoint", 2, 224),
    ("zero_free", 1, 96), ("zero_free", 1, 128), ("zero_free", 1, 192), ("zero_free", 1, 256),
    ("primary", 1, 96), ("primary", 2, 112), ("primary", 3, 128), ("primary", 2, 192),
    ("window", 1, 96), ("window", 2, 112), ("window", 2, 160), ("window", 2, 208),
    ("fault", 1, 128), ("fault", 1, 128),
]
WARMUP = [("single", 1, 32), ("common", 2, 32), ("disjoint", 2, 32), ("zero_free", 1, 32),
          ("primary", 2, 32), ("window", 2, 32)]

#: Chain depth for classify_primary_ideal; planted orders stay below it.
CHAIN_DEPTH = 3

#: The fixed requests: a root of multiplicity 5 and one of 6.  Their inputs
#: do not depend on the seed, and today both come back as a "certified"
#: Empty; they count as failed until that fault is mended.
FAULT_ROOTS = [(1.0, 5), (2.5, 6)]
FAULT = "hull_of_generators returns Empty for a root of multiplicity 5 or 6"


def requests(seed: int, slots=SLOTS) -> list[Request]:
    rng = np.random.default_rng(seed)
    faults = iter(FAULT_ROOTS)
    out = []
    for kind, n_gens, support in slots:
        if kind == "fault":
            t, m = next(faults)
            out.append(_hull_request(np.random.default_rng(m), "fault", support, [[(t, m)]], FAULT))
        elif kind == "primary":
            out.append(_primary_request(rng, n_gens, support))
        elif kind == "window":
            out.append(_window_request(rng, n_gens, support))
        else:
            out.append(_hull_request(rng, kind, support, _root_lists(rng, kind, n_gens)))
    return out


def _mult(rng) -> int:
    return int(rng.integers(1, 3))


def _root_lists(rng, kind: str, n_gens: int) -> list[list[tuple[float, int]]]:
    """Planted (angle, multiplicity) lists, one per generator."""
    if kind == "zero_free":
        return [[] for _ in range(n_gens)]
    if kind == "single":
        return [[(t, _mult(rng)) for t in separated_angles(rng, int(rng.integers(1, 3)))]]
    shared = separated_angles(rng, 1) if kind == "common" else []
    own = separated_angles(rng, n_gens, avoid=shared)
    return [[(t, _mult(rng)) for t in shared] + [(u, _mult(rng))] for u in own]


def _hull_truth(root_lists) -> dict[float, int]:
    """Angles planted in every generator, with their smallest multiplicity."""
    truth = dict(root_lists[0])
    for roots in root_lists[1:]:
        mults = dict(roots)
        truth = {t: min(m, mults[t]) for t, m in truth.items() if t in mults}
    return truth


def _generators(rng, support: int, root_lists) -> list[dict[int, complex]]:
    return [
        as_entries(generator_coeffs(rng, support, roots), int(rng.integers(-support, 1)))
        for roots in root_lists
    ]


def _hull_request(rng, kind, support, root_lists, known_fault="") -> Request:
    entries = _generators(rng, support, root_lists)
    gens = [sa.FinSeq(e) for e in entries]
    truth = _hull_truth(root_lists)

    def check(result):
        if not truth:
            expect(isinstance(result, sp.Empty), f"hull is {type(result).__name__}, planted empty")
            expect_positive_certificate(result.certificate.combination.entries, entries, "hull")
            return
        expect(isinstance(result, sp.Finite), f"hull is {type(result).__name__}, planted {truth}")
        expect_points([(p.angle.t, p.multiplicity) for p in result.points], truth, "hull")

    return Request(kind, lambda: sp.hull_of_generators(gens), check, known_fault)


def _primary_request(rng, n_gens, support) -> Request:
    """Generators vanishing at the unit character (angle 0) to orders 1-2;
    with several generators each adds a root of its own, which the
    intersection must drop."""
    own = separated_angles(rng, n_gens, avoid=(0.0,)) if n_gens > 1 else []
    orders = [_mult(rng) for _ in range(n_gens)]
    root_lists = [[(0.0, m)] + ([(own[i], 1)] if own else []) for i, m in enumerate(orders)]
    gens = [sa.FinSeq(e) for e in _generators(rng, support, root_lists)]
    k = min(orders) - 1

    def check(result):
        expect(isinstance(result, sp.IdealClass), f"got {result!r}")
        expect((result.k, result.N) == (k, CHAIN_DEPTH), f"class {(result.k, result.N)}, planted {(k, CHAIN_DEPTH)}")

    return Request("primary", lambda: sp.classify_primary_ideal(gens, CHAIN_DEPTH), check)


def _window_request(rng, n_gens, support) -> Request:
    """A sampled exponential polynomial and candidate annihilators vanishing
    at its frequencies to at least the order each term needs; the upper
    bound is the candidates' common hull."""
    degrees = [int(d) for d in rng.integers(0, 2, int(rng.integers(1, 3)))]
    freqs = separated_angles(rng, len(degrees))
    own = separated_angles(rng, n_gens, avoid=freqs) if n_gens > 1 else []
    root_lists = [
        [(t, d + 1 + int(rng.integers(0, 2 - d))) for t, d in zip(freqs, degrees)]
        + ([(own[i], 1)] if own else [])
        for i in range(n_gens)
    ]
    gens = [sa.FinSeq(e) for e in _generators(rng, support, root_lists)]
    terms = [(t, tuple(rng.uniform(0.5, 1.0, d + 1) * unit_phases(rng, d + 1)))
             for t, d in zip(freqs, degrees)]
    start = int(rng.integers(-100, 1))
    ns = np.arange(start, start + 2 * support + 64)
    table = sg.TableSignal(start, exppoly_values(terms, ns))
    truth = _hull_truth(root_lists)

    def check(result):
        expect(isinstance(result, sp.UpperBound), f"got {type(result).__name__}, planted {truth}")
        expect_points([(p.angle.t, p.multiplicity) for p in result.points], truth, "upper bound")

    return Request("window", lambda: sp.spectrum_upper_bound(table, gens), check)
