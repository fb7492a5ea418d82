"""kernels: dense sequence arithmetic and the cyclic oracle, no root finding.

Each request runs one pipeline on dense random inputs of one size class:
convolve, fourier_grid, vanishing_order, k_transform and weighted_norm on
sequences with ``support`` entries, then dft, idft, convolve_cyclic and
spectrum_finite on Z_q, and one law_suite_finite.  Every output is
recomputed with np.convolve, np.cumsum or np.fft.
"""

from __future__ import annotations

import numpy as np

from beurling import finite_oracle as fo
from beurling import integration as ig
from beurling import seq_algebra as sa
from beurling import weights as wt

from .common import Request, as_entries, dense, expect, expect_close, planted_factor, unit_phases

#: (class, support, q).  The round holds two small, three medium and one
#: large request, so the median request is a medium one.
SMALL, MEDIUM, LARGE = ("small", 500, 1024), ("medium", 1000, 2048), ("large", 2000, 4096)
SLOTS = [SMALL, MEDIUM, LARGE, MEDIUM, SMALL, MEDIUM]
WARMUP = [("warmup", 64, 64)]

#: law_suite_finite size: small q, so the suite stays a minor share.
LAW_Q, LAW_TRIALS = 32, 10


def requests(seed: int, slots=SLOTS) -> list[Request]:
    rng = np.random.default_rng(seed)
    return [_pipeline(rng, kind, support, q) for kind, support, q in slots]


def _complex_normal(rng, n: int) -> np.ndarray:
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _pipeline(rng, kind: str, support: int, q: int) -> Request:
    f_arr, g_arr = _complex_normal(rng, support), _complex_normal(rng, support)
    f_lo, g_lo = (int(v) for v in rng.integers(-support, support, 2))
    f, g = sa.FinSeq(as_entries(f_arr, f_lo)), sa.FinSeq(as_entries(g_arr, g_lo))
    # transform vanishing at 0 to a planted order: a factor with a large
    # mass times (delta_0 - delta_1)^order, placed on [0, support)
    order = int(rng.integers(1, 3))
    base = 1.0 + 0.5 * _complex_normal(rng, support - order)
    vanishing = sa.FinSeq(as_entries(np.convolve(base, planted_factor(0.0, order)), 0))
    zero_mass_arr = _complex_normal(rng, support)
    zero_mass_arr -= zero_mass_arr.mean()
    zero_mass = sa.FinSeq(as_entries(zero_mass_arr, f_lo))
    exponent = float(rng.choice([0.5, 1.0, 2.0]))
    weight = wt.PowerWeight(exponent)

    x, y = _complex_normal(rng, q), _complex_normal(rng, q)
    hat = _complex_normal(rng, q)
    kept = rng.random(q) < 0.5
    sparse_hat = np.where(kept, rng.uniform(0.5, 2.0, q), 0.0) * unit_phases(rng, q)
    cx, cy = fo.CyclicSignal(q, x), fo.CyclicSignal(q, y)
    cs = fo.CyclicSignal(q, np.fft.ifft(sparse_hat))
    law_seed = int(rng.integers(0, 2**31))

    def call():
        return (
            sa.convolve(f, g),
            sa.fourier_grid(f, q),
            sa.vanishing_order(vanishing, 0.0),
            ig.k_transform(zero_mass),
            sa.weighted_norm(f, weight),
            fo.dft(cx),
            fo.idft(hat),
            fo.convolve_cyclic(cx, cy),
            fo.spectrum_finite(cs),
            fo.law_suite_finite(LAW_Q, LAW_TRIALS, law_seed),
        )

    def check(out):
        conv, (ts, grid_vals), got_order, running, norm, dft_x, back, cyc, spec, laws = out
        f_abs = float(np.sum(np.abs(f_arr)))

        lo, conv_arr = dense(conv.entries)
        expect(lo == f_lo + g_lo, f"convolution starts at {lo}, expected {f_lo + g_lo}")
        expect_close(conv_arr, np.convolve(f_arr, g_arr), 1e-12 * f_abs * float(np.max(np.abs(g_arr))), "convolve")

        folded = np.zeros(q, dtype=complex)
        np.add.at(folded, (f_lo + np.arange(support)) % q, f_arr)
        expect_close(ts, 2.0 * np.pi * np.arange(q) / q, 1e-12, "fourier_grid angles")
        expect_close(grid_vals, np.fft.fft(folded), 1e-10 * f_abs, "fourier_grid")

        expect(got_order == order, f"vanishing order {got_order}, planted {order}")

        lo, run_arr = dense(running.entries)
        want = np.cumsum(zero_mass_arr)
        tol = 1e-10 * float(np.sum(np.abs(zero_mass_arr)))
        expect(lo >= f_lo and lo - f_lo + len(run_arr) <= support, "k_transform support")
        padded = np.zeros(support, dtype=complex)
        padded[lo - f_lo: lo - f_lo + len(run_arr)] = run_arr
        expect_close(padded, want, tol, "k_transform")

        ns = f_lo + np.arange(support)
        want_norm = float(np.sum(np.abs(f_arr) * (1.0 + np.abs(ns)) ** exponent))
        expect(abs(norm - want_norm) <= 1e-10 * want_norm, f"weighted_norm {norm!r}, expected {want_norm!r}")

        x_abs = float(np.sum(np.abs(x)))
        expect_close(dft_x, np.fft.fft(x), 1e-10 * x_abs, "dft")
        expect_close(back.array(), np.fft.ifft(hat), 1e-10 * float(np.max(np.abs(hat))), "idft")
        expect_close(cyc.array(), np.fft.ifft(np.fft.fft(x) * np.fft.fft(y)), 1e-10 * x_abs * float(np.max(np.abs(y))), "convolve_cyclic")
        expect(spec == frozenset(np.nonzero(kept)[0].tolist()), "spectrum_finite differs from the planted support")

        expect(laws.ok and laws.checks == 8 * LAW_TRIALS, f"law suite: {laws.checks} checks, {len(laws.failures)} failures")

    return Request(kind, call, check)
