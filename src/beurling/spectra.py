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

Unit-circle roots of a polynomial of degree D come from its companion
matrix while D <= LOCAL_ORDER.  Above that a grid test proves most of the
circle free of roots within the acceptance band in two levels: coarse
cells of eight grid cells get sixth-order Taylor bounds from G/8-point
FFTs, and only the cells of the coarse cells left open get third-order
bounds.  Short pieces of the cells it leaves open each get a Taylor
eigenproblem of at most LOCAL_ORDER, just large enough that its tail stays
below the rounding of its coefficients, so no D x D eigenproblem is
formed; a root found there is polished by Newton on its piece's Taylor
polynomial.

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
    angles_within,
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

#: Computed roots within this distance, whole-polynomial or local, are
#: taken to approximate one multiple root.  An m-fold root scatters by about
#: eps^(1/m) times the polynomial's conditioning, which exceeds this radius
#: from multiplicity 4 on at supports in the hundreds (see the README);
#: genuinely distinct roots closer than this are outside the supported regime.
ROOT_CLUSTER_RADIUS = 1e-3

#: Transform grid on which an Empty certificate's minimum modulus is taken.
CERTIFICATE_GRID = 4096

#: Recovery refuses a least-squares system whose condition number exceeds this.
COND_THRESHOLD = 1e10

#: Degree up to which circle roots come from the whole polynomial's
#: companion matrix, and the largest order of a local Taylor problem above
#: it: at this degree a local expansion would be the whole polynomial anyway.
LOCAL_ORDER = 28

#: Grid cells per unit of degree (G is the next power of two).  A piece
#: keeps local roots within rho = half-width + h + 2 ROOT_CLUSTER_RADIUS of
#: its centre, where a Taylor problem of order K leaves a tail below
#: sum |c| (D rho)^(K+1) / (K+1)!.  With cells of width h = 2 pi/(32 D),
#: D rho stays under 2.3 up to degree 256, where order LOCAL_ORDER leaves a
#: tail of 3.5e-21 sum |c|, below the _LOCAL_TAIL a piece needs; the arc a
#: piece owns stays under D rho = 1.7 at any degree, and only the scattered
#: members of a cluster lie further out, where the tail grows with D.
#: G >= 32 D also keeps the grid test's rounding within G eps sum |c| (see
#: _open_cells).  At the fine level it scales the rounding of |F^(k)| by
#: (|n - D/2| h/2)^k/k! <= 0.05^k/k!.  At the coarse level, cells of width
#: H = 8 h, x = (D/2)(H/2) <= pi/8 gives sum_k x^k/k! <= e^(pi/8) < 1.5,
#: so its G/8-point FFTs' rounding stays within it; so do the directly
#: summed cells, D + 1 terms each, since G >= 32 D.
GRID_PER_DEGREE = 32

#: Grid cells per coarse cell of the grid test's first level (see _open_cells).
_COARSE = 8

#: The grid test gathers the sums of the cells its first level leaves open
#: while they add up to at most this many times (G/8) log2(G/8) terms; past
#: that, measured at degrees 40-1000, its G/8-point FFTs are cheaper.
_GATHER_LIMIT = 2

#: Open cells per local problem: a wider piece would push D rho, and with
#: it the Taylor order its tail needs, up; a narrower one costs more
#: eigenproblems.
PIECE_CELLS = 16

#: The Taylor tail (D rho)^(K+1)/(K+1)!, relative to sum |c|, that a local
#: problem may leave: eps/16, below the rounding of its coefficients b_k,
#: which are sums of D + 1 terms of size up to |c_n|.  Each piece solves the
#: least order K whose tail is no larger, capped at LOCAL_ORDER; the cap
#: binds only from D rho = 3.06 on, past the 2.3 any piece reaches up to
#: degree 256.
_LOCAL_TAIL = np.finfo(float).eps / 16


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


def _horner(high_first: list, z: complex) -> complex:
    """Horner's rule on Python complexes, highest coefficient first: the
    operations of P.polyval in its order, without numpy's per-scalar cost."""
    acc = high_first[0]
    for a in high_first[1:]:
        acc = a + acc * z
    return acc


def _refine_root(coeffs: np.ndarray, z0: complex, mult: int) -> complex:
    """Newton on the (mult-1)-th derivative, where the root is simple."""
    d = P.polyder(coeffs, mult - 1)
    f, df = d.tolist()[::-1], P.polyder(d).tolist()[::-1]
    z = complex(z0)
    for _ in range(8):
        fz = _horner(f, z)
        dz = _horner(df, z)
        if dz == 0:
            break
        step = fz / dz
        if not cmath.isfinite(step) or abs(step) > 0.5:
            break
        z -= step
        if abs(step) < 1e-15 * max(1.0, abs(z)):
            break
    return z if abs(z - z0) <= 2 * ROOT_CLUSTER_RADIUS else z0


def _polish_on_circle(clusters, unimod_tol: float) -> list[tuple[complex, int]]:
    """Polish each cluster centre within reach of the circle; keep the
    polished roots with ||z| - 1| < unimod_tol.  A cluster is (centre,
    multiplicity, coefficients of p in w = z - origin, origin)."""
    out = []
    for center, mult, coeffs, origin in clusters:
        if abs(abs(center) - 1.0) > 2 * ROOT_CLUSTER_RADIUS + unimod_tol:
            continue
        z = origin + _refine_root(coeffs, center - origin, mult)
        if abs(abs(z) - 1.0) < unimod_tol:
            out.append((z, mult))
    return out


def _running_products(first, step, rows: int) -> np.ndarray:
    """Rows first * step^k, k = 0..rows - 1, by a running product."""
    out = np.empty((rows, np.size(step)), dtype=np.result_type(first, step))
    out[0], out[1:] = first, step
    return np.cumprod(out, axis=0, out=out)


def _open_cells(c: np.ndarray, unimod_tol: float) -> np.ndarray:
    """Mask of the grid cells [t_j - h/2, t_j + h/2], t_j = j h, that may
    hold a root within the band; every closed cell provably holds none.

    With F(t) = sum c_n e^{i(n - D/2)t}, |F| = |p(e^{it})|, and Taylor's
    bound on a cell from its centre, |F| >= |F_j| - |F'_j| h/2
    - |F''_j| h^2/8 - |F'''_j| h^3/48 - M4 h^4/384 with
    M4 = sum |c_n| |n - D/2|^4.  A root (1 + d) e^{it} with |d| < tol forces
    |p(e^{it})| < tol M1 (1 + tol)^(D-1), M1 = sum n |c_n|; the factor 2 and
    G eps sum|c| cover the rounding (see GRID_PER_DEGREE).

    Two levels make the test cheap.  Coarse cells [(8 J - 4) h, (8 J + 4) h]
    of width H = 8 h get the same bound to sixth order with an M7 remainder,
    from one batch of G/8-point FFTs.  A coarse cell it closes holds no
    root, and only the cells that touch an open one get the third-order
    test.  Cell j = 8 J + s, -4 <= s < 4, has e^{in t_j} = e^{inJH} e^{insh}.
    Where few cells are left, their sums come from a G/8-entry phase table
    at the exact index n J mod G/8 and a table of e^{insh}, by one matmul;
    where many are, from the coarse sums at s = 0 and G/8-point FFTs of
    c_n e^{insh} for the other seven s, whichever is cheaper.
    """
    D = len(c) - 1
    G = 1 << (GRID_PER_DEGREE * D - 1).bit_length()
    Gc = G // _COARSE
    h = 2 * math.pi / G
    a = np.abs(c)
    m = np.arange(D + 1)
    n = m - D / 2
    powers = _running_products(1.0, n, 8)  # (n - D/2)^k, k = 0..7
    growth = math.exp(min((D - 1) * math.log1p(unimod_tol), 700.0))
    band = 2 * float(np.sum(m * a)) * unimod_tol * growth
    level = band + G * np.finfo(float).eps * float(np.sum(a))
    # |sum_n c_n (n - D/2)^k e^{inJH}|, k = 0..6, by unscaled inverse FFTs
    coarse = np.abs(np.fft.ifft(c * powers[:7], Gc, norm="forward"))
    r = _COARSE * h / 2
    taylor = np.array([1.0] + [-r ** k / math.factorial(k) for k in range(1, 7)])
    coarse_open = taylor @ coarse - float(a @ np.abs(powers[7])) * r ** 7 / 5040 <= level
    # touch[J, s + 4]: cell 8 J + s touches an open coarse cell; s = -4
    # straddles coarse cells J - 1 and J
    touch = np.repeat(coarse_open[:, None], _COARSE, axis=1)
    touch[1:, 0] |= coarse_open[:-1]
    touch[0, 0] |= coarse_open[-1]
    shifted = c * _running_products(np.exp(-4j * h * m), np.exp(1j * h * m), _COARSE)  # s = -4..3
    fine_taylor = np.array([1.0, -h / 2, -h ** 2 / 8, -h ** 3 / 48])
    M4 = float(a @ powers[4]) * h ** 4 / 384
    if np.count_nonzero(touch) * (D + 1) <= _GATHER_LIMIT * Gc * math.log2(Gc):
        cell = np.flatnonzero(touch)
        J, shift = np.divmod(cell, _COARSE)
        index = np.outer(J, m)
        index &= Gc - 1
        rows = np.exp(2j * math.pi / Gc * np.arange(Gc))[index]
        rows *= shifted[shift]
        layout = np.zeros(G, dtype=bool)
        layout[cell] = np.abs(rows @ powers[:4].T) @ fine_taylor - M4 <= level
    else:
        lower = np.empty((_COARSE, Gc))
        lower[4] = fine_taylor @ coarse[:4]
        others = [0, 1, 2, 3, 5, 6, 7]
        fine = np.abs(np.fft.ifft(powers[:4, None, :] * shifted[others], Gc, norm="forward"))
        lower[others] = (fine_taylor @ fine.reshape(4, -1)).reshape(len(others), Gc)
        layout = ((lower - M4 <= level).T & touch).ravel()
    return np.concatenate((layout[4:], layout[:4]))  # layout[8 J + s + 4] is cell 8 J + s


def _open_runs(open_cells: np.ndarray) -> list[np.ndarray]:
    """Maximal circular runs of open cells as index arrays, unwrapped, so a
    run across cell 0 continues past G - 1; with no closed cell the whole
    circle is one run."""
    if not open_cells.any():
        return []
    start = int(np.argmin(open_cells))  # a closed cell, or 0 when none is closed
    idx = np.flatnonzero(np.roll(open_cells, -start)) + start
    return np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)


def _taylor_order(reach: float) -> int:
    """Least order 1 <= K <= LOCAL_ORDER whose Taylor tail
    reach^(K+1)/(K+1)!, reach = D rho, is at most _LOCAL_TAIL."""
    tail = reach * reach / 2
    for K in range(1, LOCAL_ORDER):
        if tail <= _LOCAL_TAIL:
            return K
        tail *= reach / (K + 2)
    return LOCAL_ORDER


def _local_roots(local: np.ndarray, reach: Sequence[float]) -> list[np.ndarray]:
    """Roots v of sum_k local[i, k] v^k, k <= K_i = _taylor_order(reach[i]),
    for each row i: one stacked companion eigenproblem per order, or
    np.roots, which drops a zero leading coefficient, where local[i, K_i] = 0."""
    orders = [_taylor_order(x) for x in reach]
    out = [None] * len(orders)
    for K in set(orders):
        rows = [i for i, k in enumerate(orders) if k == K and local[i, K] != 0]
        companion = np.zeros((len(rows), K, K), dtype=complex)
        companion[:, 1:, :-1] = np.eye(K - 1)
        companion[:, 0, :] = -local[rows, K - 1::-1] / local[rows, K, None]
        for i, v in zip(rows, np.linalg.eigvals(companion)):
            out[i] = v
    for i, K in enumerate(orders):
        if out[i] is None:
            out[i] = np.roots(local[i, K::-1])
    return out


def _local_expansions(c: np.ndarray, q: np.ndarray, G: int, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Taylor coefficients b_k, k <= K, of p at each z0 = e^{i pi q / G} in
    v = D (z - z0), one row per q, and the centres z0:
    b_k = z0^-k sum_n C(n, k) D^-k c_n z0^n.  A centre is a half-multiple
    of the cell width 2 pi / G, so each power z0^m = e^{i pi (q m mod 2G) / G}
    takes its phase from an exact integer, not from the rounded product m t0."""
    D = len(c) - 1

    def phase(m):
        return np.exp(1j * math.pi / G * (np.outer(q, m) % (2 * G)))

    k = np.arange(1, K + 1)[:, None]
    ns = np.arange(D + 1)
    binom = np.vstack([np.ones(D + 1), np.cumprod((ns - k + 1) / (k * D), axis=0)])
    return (c * phase(ns)) @ binom.T * phase(-np.arange(K + 1)), phase([1])[:, 0]


def _local_circle_roots(c: np.ndarray, unimod_tol: float) -> list[tuple[complex, int]]:
    """Circle roots of a polynomial of degree D > LOCAL_ORDER: a grid test
    closes root-free cells, and each piece of the open runs gets one Taylor
    eigenproblem at its centre, of the least order whose tail stays within
    _LOCAL_TAIL (at most LOCAL_ORDER).  Each cluster a piece claims is
    polished by Newton on that piece's Taylor polynomial."""
    D = len(c) - 1
    open_cells = _open_cells(c, unimod_tol)
    G = open_cells.size
    h = 2 * math.pi / G
    pieces = [piece for run in _open_runs(open_cells)
              for piece in np.array_split(run, -(-run.size // PIECE_CELLS))]
    if not pieces:
        return []
    q = np.array([p[0] + p[-1] for p in pieces])  # centres t0 = q h / 2
    centres = q * h / 2
    reach = [D * (p.size * h / 2 + h + 2 * ROOT_CLUSTER_RADIUS) for p in pieces]
    orders = [_taylor_order(x) for x in reach]
    local, z0 = _local_expansions(c, q, G, max(orders))
    # A cluster centre is claimed by the piece whose arc holds its angle,
    # widened by mu so that a root on a cut is lost by neither side; the
    # second claim, within 2 mu and from another piece, is then dropped.
    # mu <= h/4 keeps the margins of two runs apart, and 2 mu below
    # ROOT_CLUSTER_RADIUS means one piece never has two clusters that close.
    mu = min(h, ROOT_CLUSTER_RADIUS) / 4
    claims = []
    for i, (piece, t0, v) in enumerate(zip(pieces, centres, _local_roots(local, reach))):
        half = piece.size * h / 2
        z = z0[i] + v[np.abs(v) <= reach[i]] / D
        for center, mult in _cluster_roots(z):
            d = (cmath.phase(center) - t0 + math.pi) % (2 * math.pi) - math.pi
            if -half - mu <= d < half + mu:
                claims.append(((t0 + d) % (2 * math.pi), i, center, mult))
    claims.sort(key=lambda cl: cl[0])
    kept = []
    for claim in claims:
        if not (kept and claim[1] != kept[-1][1] and claim[0] - kept[-1][0] <= 2 * mu):
            kept.append(claim)
    if len(kept) > 1 and kept[0][1] != kept[-1][1] and kept[0][0] + 2 * math.pi - kept[-1][0] <= 2 * mu:
        kept.pop()
    # the piece's Taylor polynomial in w = z - z0 = v / D
    return _polish_on_circle(
        [(center, mult, local[i, :orders[i] + 1] * float(D) ** np.arange(orders[i] + 1), z0[i])
         for _, i, center, mult in kept], unimod_tol)


def polynomial_circle_roots(
    coeffs: Sequence[complex], unimod_tol: float = UNIMODULAR_TOL
) -> list[tuple[complex, int]]:
    """Unit-circle roots of sum_k coeffs[k] z^k with multiplicities.

    Up to degree LOCAL_ORDER the whole polynomial's companion-matrix
    eigenvalues are clustered.  Above it a grid test on the circle proves
    most cells root-free, and short pieces of the remaining cells each get
    a Taylor eigenproblem of order at most LOCAL_ORDER whose clusters are
    kept by the piece that owns their angle.  Cluster centres within reach
    of the circle are refined by Newton steps on the appropriate derivative,
    of the whole polynomial or of the piece's Taylor polynomial, and kept
    when ||z| - 1| < unimod_tol.
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
    if len(c) - 1 > LOCAL_ORDER:
        return _local_circle_roots(c, unimod_tol)
    return _polish_on_circle([(center, mult, c, 0.0) for center, mult in _cluster_roots(np.roots(c[::-1]))],
                             unimod_tol)


def _empty_certificate(gens: Sequence[FinSeq]) -> EmptyCertificate:
    combo = FinSeq()
    for f in gens:
        combo = combo + convolve(f, involution(f))
    _, vals = fourier_grid(combo, CERTIFICATE_GRID)
    return EmptyCertificate(combo, float(np.min(np.abs(vals))), CERTIFICATE_GRID)


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
    rel = (f._n - f._n[0]).astype(float)
    terms = f._v / np.max(np.abs(f._v)) * np.exp(-1j * rel * t)
    return abs(np.sum(terms)) <= reach * abs(np.sum(terms * rel))


def hull_of_generators(gens: Sequence[FinSeq]) -> SpectrumResult:
    """Common unit-circle zero set of the generators' transforms.

    The shortest generator's roots within UNIMODULAR_TOL of the circle
    propose angles t; each other generator must vanish at t or be one Newton
    step of at most UNIMODULAR_TOL + ANGULAR_TOL from a zero.  The
    multiplicity is the least vanishing order, at least 1.  Empty carries a
    positivity certificate.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    if any(not f for f in gens):
        raise ValueError("zero generator is not allowed")
    shortest = min(gens, key=lambda f: f.support()[1] - f.support()[0])
    # with u = e^{-it} the transform is u^{min supp} times a polynomial in u
    roots = polynomial_circle_roots(shortest._dense()[1])
    points = []
    for t in sorted((-cmath.phase(z)) % (2 * math.pi) for z, _ in roots):
        orders = [vanishing_order(f, t) for f in gens]
        if all(m >= 1 or f is shortest or _newton_reaches_zero(f, t, UNIMODULAR_TOL + ANGULAR_TOL)
               for f, m in zip(gens, orders)):
            points.append(SpectrumPoint(CirclePoint(t), max(min(orders), 1)))
    return Finite(tuple(points)) if points else Empty(_empty_certificate(gens))


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


def classify_primary_ideal(gens: Sequence[FinSeq], N: int) -> IdealClass:
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
    order = min(vanishing_order(f, 0.0) for f in gens)
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
        _, svals, vh = np.linalg.svd(H, full_matrices=False)
        if svals[-1] <= HANKEL_NULL_REL * svals[0]:
            return vh[-1].conj()
    raise DecompositionError(
        f"no annihilating recurrence of order <= {max_order} fits the window"
    )


def _design(ts, mults, ns: np.ndarray, sigma: float) -> np.ndarray:
    """The columns (n/sigma)^j e^{i t_k n}, j < mults[k], term by term."""
    chars = np.exp(1j * np.multiply.outer(ns, ts))
    scaled = ns / sigma
    return np.column_stack([scaled ** j * chars[:, k]
                            for k, mult in enumerate(mults) for j in range(mult)])


def _polish_frequencies(ts, mults, ns, vals, sigma) -> np.ndarray:
    """Variable-projection Gauss-Newton refinement of the frequencies.

    The derivative of the model in each frequency t_k is (i n) times that
    term's contribution; because the linear coefficients are re-fit at
    every step, the Jacobian must be projected off the column space of the
    design matrix (Kaufman's variant), after which convergence is
    quadratic.
    """
    ts = np.array(ts, dtype=float)
    starts = np.cumsum(mults) - mults  # the first column of each term
    for _ in range(3):
        A = _design(ts, mults, ns, sigma)
        coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
        r = vals - A @ coef
        J = 1j * ns[:, None] * np.add.reduceat(coef * A, starts, axis=1)  # (i n) term_k(n)
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
        ts = ts + dt
        if np.max(np.abs(dt)) < 1e-16:
            break
    return ts % (2 * math.pi)


def decompose_finite_spectrum(samples: TableSignal, k_max: int, n_max: int,
                              tol: float = 1e-8) -> ExpPoly:
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
    vals = samples.values
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
    ts: list[float] = []
    mults: list[int] = []
    for z, mult in sorted(roots, key=lambda rm: cmath.phase(rm[0]) % (2 * math.pi)):
        t = cmath.phase(z) % (2 * math.pi)
        if ts and circle_distance(ts[-1], t) <= 10 * ANGULAR_TOL:
            mults[-1] += mult
        else:
            ts.append(t)
            mults.append(mult)
    if len(ts) > k_max or max(mults) - 1 > n_max:
        raise DecompositionError(
            "recovered structure exceeds the requested frequency or degree "
            f"bounds: {[(t, m - 1) for t, m in zip(ts, mults)]}"
        )

    ns = np.arange(samples.start, samples.end + 1)
    sigma = max(1.0, float(np.max(np.abs(ns))))
    # The recurrence roots locate frequencies to ~1e-12; one or two
    # Gauss-Newton steps on the fit push them to machine precision, which
    # the n^2-scale samples need for a tiny residual.
    ts = _polish_frequencies(ts, mults, ns, vals, sigma)

    A = _design(ts, mults, ns, sigma)
    coef, _, _, s = np.linalg.lstsq(A, vals, rcond=None)
    cond = float(s[0] / s[-1]) if s[-1] > 0 else math.inf
    if cond > COND_THRESHOLD:
        raise DecompositionError(
            f"recovery system condition {cond:.3e} above threshold "
            f"{COND_THRESHOLD:.1e}"
        )
    residual = float(np.max(np.abs(A @ coef - vals)))
    if residual >= tol:
        raise DecompositionError(
            f"residual sup {residual:.3e} is not below tolerance {tol:.1e}"
        )

    cleaned = []
    for t, c in zip(ts, np.split(coef, np.cumsum(mults)[:-1])):
        coeffs = [complex(x) / sigma ** j for j, x in enumerate(c)]
        top = max(abs(x) for x in coeffs)
        while coeffs and abs(coeffs[-1]) <= 1e-10 * top:
            coeffs.pop()
        if coeffs:
            cleaned.append((CirclePoint(t), tuple(coeffs)))
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
        ok = len(got) == len(own) and angles_within(got, own) and angles_within(own, got)
        checks.append(LawCheck(law, ok, detail))

    try:
        total = add_signals(s, aux)
    except TypeError:
        checks.append(LawCheck("c", None, "sum not representable for these arms"))
    else:
        union_angles = own + angles_of(symbolic_spectrum(aux))
        got = angles_of(symbolic_spectrum(total))
        ok = angles_within(got, union_angles)
        checks.append(LawCheck("c", ok, "sum inside union"))

    if isinstance(s, ExpPoly):
        shifted = symbolic_spectrum(modulate_signal(s, gamma))
        expected = {(t + gamma.t) % (2 * math.pi) for t in own}
        got = set(angles_of(shifted))
        ok = len(expected) == len(got) and angles_within(expected, got)
        checks.append(LawCheck("d", ok, f"modulate by {gamma.t}"))
    else:
        checks.append(LawCheck("d", None, "modulation not representable"))

    try:
        diff = difference_signal(s, y)
    except TypeError:
        checks.append(LawCheck("e", None, "difference not representable"))
    else:
        ok = angles_within(angles_of(symbolic_spectrum(diff)), own)
        checks.append(LawCheck("e", ok, f"difference by {y} shrinks"))

    sp_one = symbolic_spectrum(constant_signal(1.0))
    const_ok = isinstance(sp_one, Finite) and angles_of(sp_one) == (0.0,)
    zero_ok = isinstance(symbolic_spectrum(ExpPoly()), Empty)
    input_ok = not signal_is_zero(s) or isinstance(sp_s, Empty)
    checks.append(LawCheck("f", const_ok and zero_ok and input_ok, "constants"))
    return LawReport(tuple(checks))

