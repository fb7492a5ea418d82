"""Request type and the input builders and checks the workloads share.

Everything here is independent of the package under test: inputs are drawn
with numpy, and checks recompute the expected answer with numpy (or compare
against the planted truth) without calling back into ``beurling``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

TAU = 2.0 * math.pi


class CheckFailed(Exception):
    """A result disagreed with the independent computation."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Request:
    """One closed-loop request: ``call`` runs the program on inputs built
    beforehand, ``check`` raises CheckFailed unless its output is right.

    ``known_fault`` names a fault of the program that makes this request
    fail on every run; such failures are counted but keep the run correct.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    known_fault: str = ""


def circle_distance(a: float, b: float) -> float:
    d = abs(a - b) % TAU
    return min(d, TAU - d)


def separated_angles(rng: np.random.Generator, k: int, avoid=(), gap: float = 0.3) -> list[float]:
    """k angles in [0, 2pi), pairwise and from ``avoid`` at least ``gap`` apart."""
    out: list[float] = []
    while len(out) < k:
        t = float(rng.uniform(0.0, TAU))
        if all(circle_distance(t, u) >= gap for u in [*out, *avoid]):
            out.append(t)
    return out


def unit_phases(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.exp(1j * rng.uniform(0.0, TAU, n))


def zero_free_factor(rng: np.random.Generator, length: int) -> np.ndarray:
    """Coefficients of 1 + sum_k c_k u^k with sum |c_k| < 1.

    On |u| = 1 its modulus is at least 1 - sum |c_k| >= 0.1, so the factor
    has no root on the circle: provably, not just on a grid.
    """
    c = rng.normal(size=length - 1) + 1j * rng.normal(size=length - 1)
    c *= rng.uniform(0.5, 0.9) / np.sum(np.abs(c))
    return np.concatenate(([1.0 + 0j], c))


def planted_factor(t: float, m: int) -> np.ndarray:
    """Coefficients of (delta_0 - e^{it} delta_1)^m, whose transform
    sum_n f(n) e^{-int} has a root of multiplicity m at t."""
    out = np.array([1.0 + 0j])
    for _ in range(m):
        out = np.convolve(out, [1.0, -np.exp(1j * t)])
    return out


def generator_coeffs(rng: np.random.Generator, support: int, roots) -> np.ndarray:
    """A zero-free factor times the planted factors of ``roots`` =
    [(t, m), ...], with ``support`` coefficients in all."""
    coeffs = zero_free_factor(rng, support - sum(m for _, m in roots))
    for t, m in roots:
        coeffs = np.convolve(coeffs, planted_factor(t, m))
    return coeffs


def as_entries(coeffs: np.ndarray, lo: int) -> dict[int, complex]:
    return {lo + i: complex(v) for i, v in enumerate(coeffs) if v != 0}


def dense(entries: dict[int, complex]) -> tuple[int, np.ndarray]:
    """(lowest offset, coefficient array) of a finitely supported sequence."""
    lo, hi = min(entries), max(entries)
    out = np.zeros(hi - lo + 1, dtype=complex)
    for n, v in entries.items():
        out[n - lo] += v
    return lo, out


def expect_close(got: np.ndarray, want: np.ndarray, tol: float, what: str) -> None:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) if len(want) else 0.0
    expect(err <= tol, f"{what}: max error {err:.3e} above {tol:.3e}")


def expect_points(points, truth: dict[float, int], what: str, tol: float = 1e-8) -> None:
    """Spectrum points [(t, mult), ...] equal the planted {t: mult}."""
    expect(len(points) == len(truth), f"{what}: {len(points)} points, planted {len(truth)}")
    for t, m in points:
        near = [u for u in truth if circle_distance(t, u) <= tol]
        expect(len(near) == 1, f"{what}: point {t!r} matches no planted root")
        expect(m == truth[near[0]], f"{what}: multiplicity {m} at {t!r}, planted {truth[near[0]]}")


def expect_positive_certificate(combination: dict[int, complex], gens: list[dict[int, complex]], what: str) -> None:
    """An empty-hull certificate is the sum of f * f^* over the generators,
    and its transform must stay away from zero on the circle.  Both are
    recomputed here with np.convolve and np.fft."""
    want: dict[int, complex] = {}
    for g in gens:
        g_lo, g_arr = dense(g)
        prod = np.convolve(g_arr, np.conj(g_arr[::-1]))
        first = 1 - len(g_arr)  # f * f^* lives on [lo - hi, hi - lo]
        for i, v in enumerate(prod):
            want[first + i] = want.get(first + i, 0) + v
    lo, want_arr = dense(want)
    got_arr = np.zeros(len(want_arr), dtype=complex)
    for n, v in combination.items():
        expect(0 <= n - lo < len(want_arr), f"{what}: certificate entry at {n} outside the support")
        got_arr[n - lo] = v
    scale = float(np.sum(np.abs(want_arr)))
    expect_close(got_arr, want_arr, 1e-9 * scale, f"{what}: certificate combination")
    grid = 1 << max(12, (8 * len(want_arr) - 1).bit_length())
    folded = np.zeros(grid, dtype=complex)
    np.add.at(folded, (lo + np.arange(len(got_arr))) % grid, got_arr)
    low = float(np.min(np.abs(np.fft.fft(folded))))
    expect(low > 1e-6 * scale, f"{what}: certificate transform reaches {low:.3e}")


def exppoly_values(terms, ns: np.ndarray) -> np.ndarray:
    """sum_k e^{i t_k n} p_k(n) for terms [(t, coeffs low-first), ...]."""
    out = np.zeros(len(ns), dtype=complex)
    for t, coeffs in terms:
        out += np.exp(1j * t * ns) * np.polynomial.polynomial.polyval(ns, coeffs)
    return out


def random_exppoly_terms(rng: np.random.Generator, degrees, gap: float = 0.3):
    """Terms [(t, coeffs)] with one frequency per entry of ``degrees``,
    frequencies at least ``gap`` apart and from 0, coefficient moduli in
    [0.1, 1]."""
    ts = separated_angles(rng, len(degrees), avoid=(0.0,), gap=gap)
    return [
        (t, tuple(complex(v) for v in rng.uniform(0.1, 1.0, d + 1) * unit_phases(rng, d + 1)))
        for t, d in zip(ts, degrees)
    ]


def expect_recovered(terms, truth, what: str) -> None:
    """Recovered [(t, coeffs)] match the planted ones: frequencies within
    1e-8 rad, every coefficient within 1e-6 relative."""
    expect(len(terms) == len(truth), f"{what}: {len(terms)} terms, planted {len(truth)}")
    for t, coeffs in truth:
        near = [c for u, c in terms if circle_distance(t, u) <= 1e-8]
        expect(len(near) == 1, f"{what}: frequency {t!r} not recovered within 1e-8 rad")
        got = near[0]
        expect(len(got) == len(coeffs), f"{what}: degree {len(got) - 1} at {t!r}, planted {len(coeffs) - 1}")
        for a, b in zip(coeffs, got):
            expect(abs(a - b) <= 1e-6 * abs(a), f"{what}: coefficient {b!r}, planted {a!r}")


def cumsum_sup_bound(truth) -> float:
    """Closed-form bound on |P phi(n)| for phi = sum c_k e^{i t_k n}:
    each running sum of a character is at most 2 / |e^{it_k} - 1|."""
    return sum(abs(c[0]) * 2.0 / abs(np.exp(1j * t) - 1.0) for t, c in truth)
