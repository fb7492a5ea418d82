"""Brute-force spectra on finite cyclic groups.

On Z_q everything is exactly computable: the spectrum of a signal is the
support of its DFT, so the spectral-calculus laws (translation, scaling,
sums, character multiplication, differences, constants) become exact
identities between index sets.  This module is the ground-truth oracle the
symbolic pipelines are checked against.

The DFT, its inverse and cyclic convolution go through ``np.fft``.  q is
capped at ``MAX_Q``, which bounds the size of input taken from the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

MAX_Q = 4096

#: DFT magnitudes below this fraction of the peak count as zero.  The law
#: suite draws spectra with magnitudes in {0} or [0.5, 2], so decisions are
#: never near the threshold.
SUPPORT_TOL = 1e-9


@dataclass(frozen=True)
class CyclicSignal:
    """A function on Z_q given by its q values."""

    q: int
    values: tuple[complex, ...]

    def __init__(self, q: int, values: Sequence[complex]):
        if q < 1:
            raise ValueError("q must be >= 1")
        if q > MAX_Q:
            raise ValueError(f"q = {q} exceeds the oracle cap {MAX_Q}")
        values = tuple(complex(v) for v in values)
        if len(values) != q:
            raise ValueError(f"need exactly {q} values, got {len(values)}")
        object.__setattr__(self, "q", int(q))
        object.__setattr__(self, "values", values)

    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=complex)


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


def spectrum_finite(
    phi: CyclicSignal, tol: float = SUPPORT_TOL, *, floor: float = 0.0
) -> frozenset[int]:
    """Character indices where the transform is non-negligible; the zero
    signal has empty spectrum.

    ``floor`` is an absolute magnitude cutoff for callers that know the
    scale of a parent signal (an operation that cancels a signal exactly
    leaves rounding noise whose *relative* support is meaningless).
    """
    hat = np.abs(dft(phi))
    peak = float(np.max(hat))
    if peak <= floor or peak == 0.0:
        return frozenset()
    return frozenset(
        int(k) for k in np.nonzero(hat > max(tol * peak, floor))[0]
    )


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


def random_cyclic_signal(q: int, rng: np.random.Generator, zero_prob: float = 0.5) -> CyclicSignal:
    """Signal drawn through its transform: each DFT coefficient is 0 with
    probability ``zero_prob``, otherwise has magnitude in [0.5, 2] and a
    uniform phase.  Support decisions are unambiguous by construction."""
    mags = np.where(rng.random(q) < zero_prob, 0.0, rng.uniform(0.5, 2.0, q))
    phases = np.exp(2j * math.pi * rng.random(q))
    return idft(mags * phases)


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
    """
    rng = np.random.default_rng(seed)
    failures: list[LawFailure] = []
    checks = 0

    def expect(law: str, trial: int, ok: bool, detail: str):
        nonlocal checks
        checks += 1
        if not ok:
            failures.append(LawFailure(law, trial, detail))

    ns = np.arange(q)
    for trial in range(trials):
        phi = random_cyclic_signal(q, rng)
        psi = random_cyclic_signal(q, rng)
        sp_phi = spectrum_finite(phi)
        sp_psi = spectrum_finite(psi)

        y = int(rng.integers(0, q))
        translated = CyclicSignal(q, np.roll(phi.array(), -y))
        expect("a", trial, spectrum_finite(translated) == sp_phi,
               f"translate by {y}: {sorted(spectrum_finite(translated))} != {sorted(sp_phi)}")

        k = complex(rng.uniform(0.5, 2.0) * np.exp(2j * math.pi * rng.random()))
        expect("b", trial, spectrum_finite(CyclicSignal(q, k * phi.array())) == sp_phi,
               f"scale by {k}")

        total = CyclicSignal(q, phi.array() + psi.array())
        expect("c", trial, spectrum_finite(total) <= (sp_phi | sp_psi),
               f"sum spectrum {sorted(spectrum_finite(total))} escapes union")

        j = int(rng.integers(0, q))
        modulated = CyclicSignal(q, np.exp(2j * math.pi * j * ns / q) * phi.array())
        rotated = frozenset((k0 + j) % q for k0 in sp_phi)
        expect("d", trial, spectrum_finite(modulated) == rotated,
               f"character multiply by {j}")

        m = int(rng.integers(1, q)) if q > 1 else 1
        diff = CyclicSignal(q, np.roll(phi.array(), -m) - phi.array())
        killed = frozenset(k0 for k0 in sp_phi if (k0 * m) % q == 0)
        # a difference that cancels everything leaves only rounding noise;
        # judge its support against the parent transform's scale
        noise_floor = SUPPORT_TOL * float(np.max(np.abs(dft(phi))))
        sp_diff = spectrum_finite(diff, floor=noise_floor)
        expect("e", trial, sp_diff == sp_phi - killed, f"difference by {m}")
        expect("e", trial, sp_diff <= sp_phi, f"difference by {m} grew")

        c = complex(rng.uniform(0.5, 2.0) * np.exp(2j * math.pi * rng.random()))
        expect("f", trial, spectrum_finite(CyclicSignal(q, [c] * q)) == frozenset({0}),
               "non-zero constant")
        expect("f", trial, spectrum_finite(CyclicSignal(q, [0.0] * q)) == frozenset(),
               "zero signal")

    return LawSuiteReport(q=q, trials=trials, seed=seed, checks=checks,
                          failures=tuple(failures))


def parseval_gap(phi: CyclicSignal) -> float:
    """Relative gap in sum |phi|^2 = (1/q) sum |hat phi|^2 (a dft sanity check)."""
    lhs = float(np.sum(np.abs(phi.array()) ** 2))
    rhs = float(np.sum(np.abs(dft(phi)) ** 2)) / phi.q
    denom = max(lhs, rhs, 1e-300)
    return abs(lhs - rhs) / denom
