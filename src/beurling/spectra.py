"""Spectra of signals on the integers.

The spectrum of a signal relative to a convolution algebra is the common
zero set, on the circle, of the transforms of everything that annihilates
it.  At desk scale this module computes:

* exact spectra of exponential polynomials (the frequency set, with the
  polynomial degree + 1 as multiplicity);
* hulls of finitely generated ideals: the shortest generator's unit-circle
  roots propose angles, kept where every other generator's transform
  vanishes or has a zero within the root band;
* certified *upper bounds* for spectra of sampled windows, which can never
  promise more than "the true spectrum is contained in this set";
* the classification of derivative-vanishing primary ideals at the unit
  character;
* recovery of a signal with finite spectrum from samples (linear
  recurrence fitting on a Hankel matrix, then least squares);
* a symbolic checker for the spectral-calculus laws.

Empty verdicts always carry a certificate: a member of the ideal whose
transform is bounded away from zero on a grid.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import (
    AnnihilationError,
    DecompositionError,
    IdealSaturationError,
    NotPrimaryError,
)
from .seq_algebra import (
    ANGULAR_TOL,
    CirclePoint,
    FinSeq,
    circle_distance,
    convolve,
    delta,
    fourier_grid,
    involution,
    vanishing_order,
)
from .signals import (
    ExpPoly,
    Geometric,
    Signal,
    TableSignal,
    add_signals,
    annihilate,
    constant_signal,
    difference_signal,
    modulate_signal,
    scale_signal,
    signal_is_zero,
    translate_signal,
)

#: A refined root z counts as on the circle when ||z| - 1| is below this.
UNIMODULAR_TOL = 1e-8

#: Singular values below this fraction of the largest are treated as null
#: directions when fitting linear recurrences.
HANKEL_NULL_REL = 1e-10

#: Companion-matrix eigenvalues within this distance are taken to
#: approximate one multiple root.  An m-fold root scatters by about
#: eps^(1/m) times the polynomial's conditioning, which exceeds this radius
#: from multiplicity 4 on at supports in the hundreds (see the README);
#: genuinely distinct roots closer than this are outside the supported regime.
ROOT_CLUSTER_RADIUS = 1e-3


# ---------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class SpectrumPoint:
    angle: CirclePoint
    multiplicity: int


@dataclass(frozen=True)
class EmptyCertificate:
    """An ideal member with nowhere-vanishing transform: the sum of
    f * involution(f) over the generators, whose transform is
    sum |F f_i|^2 and hence positive exactly when the hull is empty."""

    combination: FinSeq
    min_transform_modulus: float
    grid: int


@dataclass(frozen=True)
class Empty:
    certificate: EmptyCertificate


@dataclass(frozen=True)
class Finite:
    points: tuple[SpectrumPoint, ...]


@dataclass(frozen=True)
class UpperBound:
    """A certified superset of the true spectrum (finite windows cannot
    certify full annihilator ideals); never conflated with Finite."""

    points: tuple[SpectrumPoint, ...]


SpectrumResult = Union[Empty, Finite, UpperBound]


@dataclass(frozen=True)
class IdealClass:
    """The ideal cut out by transform derivatives 0..k vanishing at the
    unit character, within the chain of depth N."""

    k: int
    N: int

    def __post_init__(self):
        if not 0 <= self.k <= self.N:
            raise ValueError(f"need 0 <= k <= N, got k={self.k}, N={self.N}")


def result_points(result: SpectrumResult) -> tuple[SpectrumPoint, ...]:
    """Point list of a Finite/UpperBound result; empty for Empty."""
    if isinstance(result, (Finite, UpperBound)):
        return result.points
    if isinstance(result, Empty):
        return ()
    raise ValueError(f"not a spectrum result: {type(result).__name__}")


def angles_of(result: SpectrumResult) -> tuple[float, ...]:
    return tuple(p.angle.t for p in result_points(result))


def _near_any(t: float, angles) -> bool:
    """Whether t is within the global angular tolerance of some angle."""
    return any(circle_distance(t, u) <= ANGULAR_TOL for u in angles)


# ---------------------------------------------------------------------------
# polynomial root machinery


def _cluster_roots(roots: np.ndarray) -> list[tuple[complex, int]]:
    """Greedy clustering of nearby eigenvalues into (centroid, size) pairs."""
    remaining = list(roots)
    clusters: list[tuple[complex, int]] = []
    while remaining:
        seed = remaining.pop()
        members = [seed]
        changed = True
        while changed:
            changed = False
            center = sum(members) / len(members)
            for r in remaining[:]:
                if abs(r - center) <= ROOT_CLUSTER_RADIUS:
                    members.append(r)
                    remaining.remove(r)
                    changed = True
        clusters.append((sum(members) / len(members), len(members)))
    return clusters


def _refine_root(coeffs: np.ndarray, z0: complex, mult: int) -> complex:
    """Newton on the (mult-1)-th derivative, where the root is simple."""
    d = P.polyder(coeffs, mult - 1)
    dd = P.polyder(d)
    z = z0
    for _ in range(8):
        fz = P.polyval(z, d)
        dz = P.polyval(z, dd)
        if dz == 0:
            break
        step = fz / dz
        if not cmath.isfinite(step) or abs(step) > 0.5:
            break
        z -= step
        if abs(step) < 1e-15 * max(1.0, abs(z)):
            break
    return z if abs(z - z0) <= 2 * ROOT_CLUSTER_RADIUS else z0


def polynomial_circle_roots(
    coeffs: Sequence[complex], unimod_tol: float = UNIMODULAR_TOL
) -> list[tuple[complex, int]]:
    """Unit-circle roots of sum_k coeffs[k] z^k with multiplicities.

    Companion-matrix eigenvalues, clustered to recover multiple roots,
    refined by Newton steps on the appropriate derivative (centres out of
    their reach of the circle are skipped), then filtered by ||z| - 1| < unimod_tol.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.size == 0:
        return []
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        return []
    c = c / scale
    # strip trailing (high-order) negligible coefficients, then factors of z
    nz = np.nonzero(np.abs(c) > 1e-14)[0]
    if nz.size == 0:
        return []
    c = c[: nz[-1] + 1]
    low = nz[0]
    c = c[low:]  # remove z^low: roots at 0 are never unimodular
    if len(c) <= 1:
        return []
    raw = np.roots(c[::-1])
    out = []
    for center, mult in _cluster_roots(raw):
        if abs(abs(center) - 1.0) > 2 * ROOT_CLUSTER_RADIUS + unimod_tol:
            continue
        z = _refine_root(c, center, mult)
        if abs(abs(z) - 1.0) < unimod_tol:
            out.append((z, mult))
    return out


def _empty_certificate(gens: Sequence[FinSeq], grid: int = 4096) -> EmptyCertificate:
    combo = FinSeq()
    for f in gens:
        combo = combo + convolve(f, involution(f))
    _, vals = fourier_grid(combo, grid)
    return EmptyCertificate(
        combination=combo,
        min_transform_modulus=float(np.min(np.abs(vals))),
        grid=grid,
    )


# ---------------------------------------------------------------------------
# spectra


def symbolic_spectrum(s: Signal) -> SpectrumResult:
    """Exact spectrum of a symbolic signal.

    ExpPoly: its frequency set.  Geometric with ratio r != 1: empty, with
    the two-term annihilator {-1: r, 1: -1/r} as certificate; ratio 1 is a
    constant.
    """
    if isinstance(s, ExpPoly):
        return spectrum_exppoly(s)
    if isinstance(s, Geometric):
        if s.scale == 0:
            return Empty(_empty_certificate([delta(0)]))
        if s.ratio == 1.0:
            return Finite((SpectrumPoint(CirclePoint(0.0), 1),))
        annihilator = FinSeq({-1: s.ratio, 1: -1.0 / s.ratio})
        return Empty(_empty_certificate([annihilator]))
    raise TypeError("symbolic spectra exist for ExpPoly and Geometric signals")


def spectrum_exppoly(s: ExpPoly) -> SpectrumResult:
    """Spectrum of an exponential polynomial: exactly its frequencies, the
    multiplicity of each being its polynomial degree + 1."""
    if not isinstance(s, ExpPoly):
        raise TypeError("expected an ExpPoly signal")
    if not s.terms:
        return Empty(_empty_certificate([delta(0)]))
    points = tuple(
        SpectrumPoint(term.freq, term.degree() + 1)
        for term in sorted(s.terms, key=lambda t: t.freq.t)
    )
    return Finite(points)


def _newton_reaches_zero(f: FinSeq, t: float, reach: float) -> bool:
    """Whether one Newton step from t, |F f / (F f)'|, is at most ``reach``."""
    ns, vals = f._arrays()
    rel = np.array([n - ns[0] for n in ns], dtype=float)
    terms = vals / np.max(np.abs(vals)) * np.exp(-1j * rel * t)
    return abs(np.sum(terms)) <= reach * abs(np.sum(terms * rel))


def hull_of_generators(
    gens: Sequence[FinSeq],
    tol: float = UNIMODULAR_TOL,
    *,
    certificate_grid: int = 4096,
) -> SpectrumResult:
    """Common unit-circle zero set of the generators' transforms.

    The shortest generator's roots within ``tol`` of the circle propose
    angles t; each other generator must vanish at t or be one Newton step of
    at most tol + ANGULAR_TOL from a zero.  The multiplicity is the least
    vanishing order, at least 1.  Empty carries a positivity certificate.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    if any(not f for f in gens):
        raise ValueError("zero generator is not allowed")
    shortest = min(gens, key=lambda f: f.support()[1] - f.support()[0])
    # with u = e^{-it} the transform is u^{min supp} times a polynomial in u
    roots = polynomial_circle_roots(shortest._dense()[1], tol)
    points = []
    for t in sorted((-cmath.phase(z)) % (2 * math.pi) for z, _ in roots):
        orders = [vanishing_order(f, t) for f in gens]
        if all(m >= 1 or f is shortest or _newton_reaches_zero(f, t, tol + ANGULAR_TOL)
               for f, m in zip(gens, orders)):
            points.append(SpectrumPoint(CirclePoint(t), max(min(orders), 1)))
    return Finite(tuple(points)) if points else Empty(_empty_certificate(gens, certificate_grid))


def spectrum_upper_bound(
    s: TableSignal, candidates: Sequence[FinSeq], tol: float = 1e-8
) -> SpectrumResult:
    """Upper bound for the spectrum of a sampled window.

    Every candidate must annihilate the samples on the valid sub-window
    (verdict tolerance ``tol``); the hull of the accepted annihilators then
    *contains* the true spectrum.  The distinction from Finite is kept in
    the verdict.
    """
    if not isinstance(s, TableSignal):
        raise TypeError("upper bounds are computed for sampled windows")
    if not candidates:
        raise ValueError("need at least one candidate annihilator")
    rejected = []
    for i, f in enumerate(candidates):
        res = annihilate(f, s, tol)
        if not res.is_zero:
            rejected.append((i, res.residual))
    if rejected:
        raise AnnihilationError(
            "candidates failed to annihilate the samples: "
            + ", ".join(f"#{i} residual {r:.3e}" for i, r in rejected),
            residuals=rejected,
        )
    hull = hull_of_generators(list(candidates))
    if isinstance(hull, Finite):
        return UpperBound(hull.points)
    return hull


def classify_primary_ideal(
    gens: Sequence[FinSeq], N: int, tol: float = 1e-9
) -> IdealClass:
    """Locate the closed ideal generated by ``gens`` in the derivative-
    vanishing chain at the unit character.

    Requires the common hull to be exactly {0}; the class index is the
    smallest vanishing order among the generators minus one.  Vanishing
    beyond the chain depth N is reported as saturation rather than clamped.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    hull = hull_of_generators(list(gens))
    if isinstance(hull, Empty):
        raise NotPrimaryError(
            "generators have empty hull; the ideal is not primary at the "
            "unit character"
        )
    points = result_points(hull)
    if len(points) != 1 or not points[0].angle.close_to(CirclePoint(0.0)):
        angles = [p.angle.t for p in points]
        raise NotPrimaryError(
            f"cospectrum is {angles}, not the unit character alone"
        )
    order = min(vanishing_order(f, 0.0, tol) for f in gens)
    k = order - 1
    if k > N:
        raise IdealSaturationError(
            f"every generator vanishes to order {order} > N + 1 = {N + 1}; "
            "the family saturates the deepest ideal in the chain",
            order=order,
        )
    return IdealClass(k=k, N=N)


# ---------------------------------------------------------------------------
# finite-spectrum recovery (linear recurrence + least squares)


def _minimal_recurrence(samples: np.ndarray, max_order: int) -> np.ndarray:
    """Coefficients h (length r+1, minimal r) with
    sum_j h_j x_{n+j} = 0 across the window, via Hankel null spaces."""
    L = len(samples)
    scale = float(np.max(np.abs(samples)))
    if scale == 0.0:
        raise DecompositionError("cannot fit a recurrence to the zero signal")
    for r in range(1, max_order + 1):
        if L - r < r + 1:
            break
        H = np.lib.stride_tricks.sliding_window_view(samples, r + 1)
        svals = np.linalg.svd(H, compute_uv=False)
        if svals[-1] <= HANKEL_NULL_REL * svals[0]:
            _, _, vh = np.linalg.svd(H)
            return vh[-1].conj()
    raise DecompositionError(
        f"no annihilating recurrence of order <= {max_order} fits the window"
    )


def _polish_frequencies(merged, ns, vals, build, iterations: int = 3):
    """Variable-projection Gauss-Newton refinement of the frequencies.

    The derivative of the model in each frequency t_k is (i n) times that
    term's contribution; because the linear coefficients are re-fit at
    every step, the Jacobian must be projected off the column space of the
    design matrix (Kaufman's variant), after which convergence is
    quadratic.
    """
    ts = [t for t, _ in merged]
    mults = [m for _, m in merged]
    for _ in range(iterations):
        current = list(zip(ts, mults))
        A, layout = build(current)
        coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
        r = vals - A @ coef
        cols = []
        for k in range(len(ts)):
            part = np.zeros(len(ns), dtype=complex)
            for col, (idx, _) in enumerate(layout):
                if idx == k:
                    part += coef[col] * A[:, col]
            cols.append(1j * ns * part)
        J = np.column_stack(cols)
        q, _ = np.linalg.qr(A)
        J = J - q @ (q.conj().T @ J)
        G = np.real(J.conj().T @ J)
        rhs = np.real(J.conj().T @ r)
        try:
            dt = np.linalg.solve(G, rhs)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(dt)) or np.max(np.abs(dt)) > 1e-3:
            break
        ts = [t + float(d) for t, d in zip(ts, dt)]
        if np.max(np.abs(dt)) < 1e-16:
            break
    return list(zip((t % (2 * math.pi) for t in ts), mults))


def decompose_finite_spectrum(
    samples: TableSignal,
    k_max: int,
    n_max: int,
    tol: float = 1e-8,
    *,
    cond_threshold: float = 1e10,
) -> ExpPoly:
    """Recover an exponential polynomial from its samples.

    Fits the minimal linear recurrence annihilating the window (Hankel
    null space), reads frequencies and degree bounds off the unit-circle
    roots of its characteristic polynomial (with multiplicities), recovers
    coefficients by least squares against the basis n^j e^{i t_k n}, and
    demands the residual sup stay below ``tol``.

    k_max bounds the number of frequencies, n_max the polynomial degrees.
    """
    if k_max < 1 or n_max < 0:
        raise ValueError("need k_max >= 1 and n_max >= 0")
    max_order = k_max * (n_max + 1)
    vals = np.asarray(samples.values, dtype=complex)
    L = len(vals)
    if L < 4 * max_order:
        raise ValueError(
            f"window length {L} below the required 4 * k_max * (n_max + 1) "
            f"= {4 * max_order}"
        )
    if float(np.max(np.abs(vals))) == 0.0:
        return ExpPoly()

    h = _minimal_recurrence(vals, max_order)
    roots = polynomial_circle_roots(h, unimod_tol=1e-6)
    total_mult = sum(m for _, m in roots)
    order = len(h) - 1
    if total_mult != order:
        raise DecompositionError(
            f"characteristic polynomial has {order - total_mult} roots off "
            "the unit circle; the samples are outside the model class"
        )

    # angles with degree bounds; merge anything within the angular tolerance
    merged: list[tuple[float, int]] = []
    for z, mult in sorted(roots, key=lambda rm: cmath.phase(rm[0]) % (2 * math.pi)):
        t = cmath.phase(z) % (2 * math.pi)
        if merged and circle_distance(merged[-1][0], t) <= 10 * ANGULAR_TOL:
            merged[-1] = (merged[-1][0], merged[-1][1] + mult)
        else:
            merged.append((t, mult))
    if len(merged) > k_max or any(m - 1 > n_max for _, m in merged):
        raise DecompositionError(
            "recovered structure exceeds the requested frequency or degree "
            f"bounds: {[(t, m - 1) for t, m in merged]}"
        )

    ns = np.arange(samples.start, samples.end + 1)
    sigma = max(1.0, float(np.max(np.abs(ns))))

    def build(ts):
        columns, layout = [], []  # layout rows: (term index, power)
        for idx, (t, mult) in enumerate(ts):
            char = np.exp(1j * t * ns)
            for j in range(mult):
                columns.append((ns / sigma) ** j * char)
                layout.append((idx, j))
        return np.column_stack(columns), layout

    # The recurrence roots locate frequencies to ~1e-12; one or two
    # Gauss-Newton steps on the fit push them to machine precision, which
    # the n^2-scale samples need for a tiny residual.
    merged = _polish_frequencies(merged, ns, vals, build)

    A, layout = build(merged)
    cond = float(np.linalg.cond(A))
    if cond > cond_threshold:
        raise DecompositionError(
            f"recovery system condition {cond:.3e} above threshold "
            f"{cond_threshold:.1e}"
        )
    coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
    residual = float(np.max(np.abs(A @ coef - vals)))
    if residual >= tol:
        raise DecompositionError(
            f"residual sup {residual:.3e} is not below tolerance {tol:.1e}"
        )

    terms: list[tuple[CirclePoint, list[complex]]] = [
        (CirclePoint(t), [0j] * mult) for t, mult in merged
    ]
    for (idx, j), c in zip(layout, coef):
        terms[idx][1][j] = complex(c) / sigma ** j
    cleaned = []
    for freq, coeffs in terms:
        top = max(abs(c) for c in coeffs)
        while coeffs and abs(coeffs[-1]) <= 1e-10 * top:
            coeffs.pop()
        if coeffs:
            cleaned.append((freq, tuple(coeffs)))
    return ExpPoly(cleaned)


# ---------------------------------------------------------------------------
# spectral-calculus law checking (symbolic)


@dataclass(frozen=True)
class LawCheck:
    law: str
    passed: Optional[bool]  # None = not applicable to these arms
    detail: str


@dataclass(frozen=True)
class LawReport:
    checks: tuple[LawCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)


def check_calculus_laws(
    s: Signal,
    aux: Signal,
    gamma: CirclePoint,
    y: int,
    k: complex,
) -> LawReport:
    """Verify the spectral-calculus laws on symbolic signals.

    (a) translation invariance, (b) scalar invariance (k != 0), (c) the
    sum's spectrum sits inside the union, (d) character multiplication
    shifts the spectrum by gamma, (e) differencing shrinks the spectrum,
    (f) constants: non-zero constants have spectrum {0}, zero is empty.
    Laws that are not representable for the given arms (e.g. modulating a
    geometric signal) are reported as not applicable.
    """
    if k == 0:
        raise ValueError("scalar k must be non-zero")
    checks: list[LawCheck] = []
    sp_s = symbolic_spectrum(s)
    own = angles_of(sp_s)

    for law, image, detail in (
        ("a", translate_signal(s, y), f"translate by {y}"),
        ("b", scale_signal(s, k), f"scale by {k}"),
    ):
        got = angles_of(symbolic_spectrum(image))
        ok = (len(got) == len(own) and all(_near_any(g, own) for g in got)
              and all(_near_any(t, got) for t in own))
        checks.append(LawCheck(law, ok, detail))

    try:
        total = add_signals(s, aux)
    except TypeError:
        checks.append(LawCheck("c", None, "sum not representable for these arms"))
    else:
        union_angles = own + angles_of(symbolic_spectrum(aux))
        got = angles_of(symbolic_spectrum(total))
        ok = all(_near_any(g, union_angles) for g in got)
        checks.append(LawCheck("c", ok, "sum inside union"))

    if isinstance(s, ExpPoly):
        shifted = symbolic_spectrum(modulate_signal(s, gamma))
        expected = {(t + gamma.t) % (2 * math.pi) for t in own}
        got = set(angles_of(shifted))
        ok = len(expected) == len(got) and all(_near_any(e, got) for e in expected)
        checks.append(LawCheck("d", ok, f"modulate by {gamma.t}"))
    else:
        checks.append(LawCheck("d", None, "modulation not representable"))

    try:
        diff = difference_signal(s, y)
    except TypeError:
        checks.append(LawCheck("e", None, "difference not representable"))
    else:
        ok = all(_near_any(g, own) for g in angles_of(symbolic_spectrum(diff)))
        checks.append(LawCheck("e", ok, f"difference by {y} shrinks"))

    sp_one = symbolic_spectrum(constant_signal(1.0))
    const_ok = isinstance(sp_one, Finite) and angles_of(sp_one) == (0.0,)
    zero_ok = isinstance(symbolic_spectrum(ExpPoly()), Empty)
    input_ok = not signal_is_zero(s) or isinstance(sp_s, Empty)
    checks.append(LawCheck("f", const_ok and zero_ok and input_ok, "constants"))
    return LawReport(tuple(checks))


__all__ = [
    "SpectrumPoint", "EmptyCertificate", "Empty", "Finite",
    "UpperBound", "SpectrumResult", "IdealClass", "result_points", "angles_of",
    "polynomial_circle_roots", "symbolic_spectrum", "spectrum_exppoly",
    "hull_of_generators", "spectrum_upper_bound", "classify_primary_ideal",
    "decompose_finite_spectrum", "LawCheck", "LawReport", "check_calculus_laws",
]
