"""Brute-force spectra on finite cyclic groups.

On Z_q everything is exactly computable: the spectrum of a signal is the
support of its DFT, so the spectral-calculus laws (translation, scaling,
sums, character multiplication, differences, constants) become exact
identities between index sets.  This module is the ground-truth oracle the
symbolic pipelines are checked against.

A signal holds its q values as one read-only complex array, so the DFT, its
inverse and cyclic convolution hand arrays straight to ``np.fft``.  The law
suite draws its trials in blocks of (T, q) arrays and checks each law with
one FFT along the rows and one vectorised support comparison per block; a
block holds about ``BLOCK_ELEMENTS`` values whatever q, so memory does not
grow with the trial count.  q is capped at ``MAX_Q`` and the trial count
at ``MAX_TRIALS``, which bound the size and the running time of input
taken from the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

MAX_Q = 4096

#: Largest law-suite trial count.  A trial at q = MAX_Q takes 1.5-1.7 ms,
#: so the largest run allowed finishes in about three minutes.
MAX_TRIALS = 100_000

#: DFT magnitudes below this fraction of the peak count as zero.  The law
#: suite draws spectra with magnitudes in {0} or [0.5, 2], so decisions are
#: never near the threshold.
SUPPORT_TOL = 1e-9

#: Values per (T, q) array in one block of the law suite: T = this // q
#: trials (at least one) run together.
BLOCK_ELEMENTS = 2 ** 15


@dataclass(frozen=True, eq=False)
class CyclicSignal:
    """A function on Z_q given by its q values (a read-only complex array).

    Equal when q and every value agree; the hash agrees with that.
    """

    q: int
    values: np.ndarray

    def __init__(self, q: int, values: Sequence[complex] | np.ndarray):
        if q < 1:
            raise ValueError("q must be >= 1")
        if q > MAX_Q:
            raise ValueError(f"q = {q} exceeds the oracle cap {MAX_Q}")
        values = np.array(values, dtype=complex)  # a copy: callers keep theirs
        if values.ndim != 1:
            raise ValueError(f"values must be one-dimensional, got shape {values.shape}")
        if len(values) != q:
            raise ValueError(f"need exactly {q} values, got {len(values)}")
        values.flags.writeable = False
        object.__setattr__(self, "q", int(q))
        object.__setattr__(self, "values", values)

    def array(self) -> np.ndarray:
        return self.values

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CyclicSignal):
            return NotImplemented
        return self.q == other.q and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash((self.q, (self.values + 0.0).tobytes()))  # + 0.0 folds -0.0 into 0.0


def dft(phi: CyclicSignal) -> np.ndarray:
    """hat phi(k) = sum_n phi(n) e^{-2 pi i k n / q}."""
    return np.fft.fft(phi.array())


def idft(hat: Sequence[complex]) -> CyclicSignal:
    """Inverse transform: phi(n) = (1/q) sum_k hat(k) e^{+2 pi i k n / q}."""
    hat = np.asarray(hat, dtype=complex)
    return CyclicSignal(len(hat), np.fft.ifft(hat))


def convolve_cyclic(f: CyclicSignal, g: CyclicSignal) -> CyclicSignal:
    """(f . g)(n) = sum_m f(m) g(n - m mod q), via the transform product."""
    if f.q != g.q:
        raise ValueError("cyclic convolution needs matching group orders")
    return CyclicSignal(f.q, np.fft.ifft(dft(f) * dft(g)))


def _support(mag: np.ndarray, tol: float, floor: float | np.ndarray = 0.0) -> np.ndarray:
    """Support mask of transform magnitudes, row by row along the last axis:
    the entries above max(tol * peak, floor), where peak is the row's
    largest.  A row whose peak is zero (or at most ``floor``) has none."""
    peak = mag.max(axis=-1, keepdims=True)
    return (mag > np.maximum(tol * peak, floor)) & (peak > 0)


def spectrum_finite(
    phi: CyclicSignal, tol: float = SUPPORT_TOL, *, floor: float = 0.0
) -> frozenset[int]:
    """Character indices where the transform is non-negligible; the zero
    signal has empty spectrum.

    ``floor`` is an absolute magnitude cutoff for callers that know the
    scale of a parent signal (an operation that cancels a signal exactly
    leaves rounding noise whose *relative* support is meaningless).
    """
    return frozenset(np.flatnonzero(_support(np.abs(dft(phi)), tol, floor)).tolist())


# ---------------------------------------------------------------------------
# randomized law suite


@dataclass(frozen=True)
class LawFailure:
    law: str
    trial: int
    detail: str


@dataclass(frozen=True)
class LawSuiteReport:
    q: int
    trials: int
    seed: int
    checks: int
    failures: tuple[LawFailure, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.failures


def _polar(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex numbers with magnitude uniform in [0.5, 2] and uniform phase."""
    return rng.uniform(0.5, 2.0, shape) * np.exp(2j * math.pi * rng.random(shape))


def _random_transform(rng: np.random.Generator, shape, zero_prob: float) -> np.ndarray:
    """DFT coefficients, each 0 with probability ``zero_prob`` and otherwise
    drawn by ``_polar``."""
    return np.where(rng.random(shape) < zero_prob, 0.0, _polar(rng, shape))


#: One law checked on a block: its letter, which rows pass, and the detail
#: text for a failing row.
_Law = tuple[str, np.ndarray, Callable[[int], str]]


def _law_block(rng: np.random.Generator, q: int, count: int) -> list[_Law]:
    """The eight law checks on ``count`` fresh trials, one row per trial."""
    ns = np.arange(q)
    rows = np.arange(count)[:, None]

    def spec(x: np.ndarray, floor: float | np.ndarray = 0.0) -> np.ndarray:
        return _support(np.abs(np.fft.fft(x, axis=1)), SUPPORT_TOL, floor)

    def same(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.all(a == b, axis=1)

    def inside(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return ~np.any(a & ~b, axis=1)

    def listed(mask: np.ndarray) -> list[int]:
        return np.flatnonzero(mask).tolist()

    phi = np.fft.ifft(_random_transform(rng, (count, q), 0.5), axis=1)
    psi = np.fft.ifft(_random_transform(rng, (count, q), 0.5), axis=1)
    hat_phi = np.abs(np.fft.fft(phi, axis=1))
    sp_phi = _support(hat_phi, SUPPORT_TOL)
    sp_psi = spec(psi)

    y = rng.integers(0, q, count)
    sp_a = spec(phi[rows, (ns + y[:, None]) % q])  # phi(n + y)
    k = _polar(rng, count)
    sp_b = spec(k[:, None] * phi)
    sp_c = spec(phi + psi)
    j = rng.integers(0, q, count)
    sp_d = spec(np.exp(2j * math.pi * (j[:, None] * ns % q) / q) * phi)
    rotated = sp_phi[rows, (ns - j[:, None]) % q]
    m = rng.integers(1, q, count) if q > 1 else np.ones(count, dtype=int)
    killed = (ns * m[:, None]) % q == 0
    # a difference that cancels everything leaves only rounding noise;
    # judge its support against the parent transform's scale
    noise_floor = SUPPORT_TOL * hat_phi.max(axis=1, keepdims=True)
    sp_e = spec(phi[rows, (ns + m[:, None]) % q] - phi, noise_floor)
    c = _polar(rng, count)
    sp_const = spec(np.broadcast_to(c[:, None], (count, q)))
    sp_zero = spec(np.zeros((count, q), dtype=complex))

    return [
        ("a", same(sp_a, sp_phi),
         lambda i: f"translate by {y[i]}: {listed(sp_a[i])} != {listed(sp_phi[i])}"),
        ("b", same(sp_b, sp_phi), lambda i: f"scale by {complex(k[i])}"),
        ("c", inside(sp_c, sp_phi | sp_psi),
         lambda i: f"sum spectrum {listed(sp_c[i])} escapes union"),
        ("d", same(sp_d, rotated), lambda i: f"character multiply by {j[i]}"),
        ("e", same(sp_e, sp_phi & ~killed), lambda i: f"difference by {m[i]}"),
        ("e", inside(sp_e, sp_phi), lambda i: f"difference by {m[i]} grew"),
        ("f", same(sp_const, ns == 0), lambda i: "non-zero constant"),
        ("f", ~np.any(sp_zero, axis=1), lambda i: "zero signal"),
    ]


def law_suite_finite(q: int, trials: int, seed: int) -> LawSuiteReport:
    """Exercise the spectral-calculus laws on random signals over Z_q.

    Checked per trial (all as exact index-set identities):

    * (a) translation leaves the spectrum unchanged;
    * (b) non-zero scalar multiples leave it unchanged;
    * (c) spectra of sums sit inside the union;
    * (d) character multiplication rotates the spectrum;
    * (e) differencing by m removes exactly the characters k with
      k m = 0 mod q, hence shrinks the spectrum;
    * (f) non-zero constants have spectrum {0}; zero has empty spectrum.

    Trials run in blocks of ``BLOCK_ELEMENTS // q`` (at least one); a
    failure names the law and the trial's index in the whole run.
    """
    if not 1 <= q <= MAX_Q:
        raise ValueError(f"q must lie in 1..{MAX_Q}, got {q}")
    if not 0 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must lie in 0..{MAX_TRIALS}, got {trials}")
    rng = np.random.default_rng(seed)
    block = max(1, BLOCK_ELEMENTS // q)
    checks = 0
    failures: list[LawFailure] = []
    for start in range(0, trials, block):
        laws = _law_block(rng, q, min(block, trials - start))
        checks += sum(ok.size for _, ok, _ in laws)
        bad = np.flatnonzero(~np.logical_and.reduce([ok for _, ok, _ in laws]))
        failures += [LawFailure(law, start + int(i), detail(i))
                     for i in bad for law, ok, detail in laws if not ok[i]]
    return LawSuiteReport(q=q, trials=trials, seed=seed, checks=checks,
                          failures=tuple(failures))

