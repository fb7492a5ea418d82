"""Finite-difference polynomial calculus on integer lattices.

A function is a polynomial of degree n exactly when every (n+1)-fold
difference vanishes while some n-fold difference survives, and exactly when
every restriction t -> phi(x + t y) has degree at most n.  This module
provides both degrees for symbolic lattice polynomials, the difference
criterion for sampled grids, and the binomial expansion identity

    phi(x + m y) = sum_{j=0}^{m} C(m, j) (D_y^j phi)(x).

A lattice polynomial's degrees come from one exact expansion, the
coefficients q_d of t -> p(x + t y) (coefficients at their binary values),
and one zero rule, d! |q_d| > tol * max|c|.  From the origin q_d = p_d(y),
p_d the homogeneous part of degree d, and D_y^n p = n! p_n(y) at the top, so
there the rule is the difference criterion; sampled grids are differenced.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import WindowError

Vector = tuple[int, ...]

#: Largest probe set (sign directions or witness-grid points) ever built; thm-3.4 needs 6^3.
MAX_PROBES = 2 ** 16

#: Default tol of the degree zero rule d! |q_d| > tol * max|c|.
_TOL = 1e-9


@dataclass(frozen=True)
class LatticePoly:
    """Polynomial on Z^dim: coeffs maps multi-indices to coefficients."""

    dim: int
    coeffs: tuple[tuple[Vector, complex], ...]

    def __init__(self, dim: int, coeffs: Mapping[Sequence[int], complex] | Iterable = ()):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        store: dict[Vector, complex] = {}
        for alpha, c in items:
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != dim:
                raise ValueError(f"multi-index {alpha} does not match dim {dim}")
            if any(a < 0 for a in alpha):
                raise ValueError(f"multi-index {alpha} has negative entries")
            if c != 0:
                store[alpha] = store.get(alpha, 0) + c
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(
            self, "coeffs", tuple(sorted((a, c) for a, c in store.items() if c != 0))
        )

    def total_degree(self) -> int:
        """Max |alpha| over non-zero coefficients; -1 for the zero polynomial."""
        return max((sum(a) for a, _ in self.coeffs), default=-1)

    def evaluate(self, point: Sequence[int]):
        point = tuple(point)
        if len(point) != self.dim:
            raise ValueError("point dimension mismatch")
        total = 0
        for alpha, c in self.coeffs:
            term = c
            for x, a in zip(point, alpha):
                term = term * x ** a
            total = total + term
        return total


@dataclass(frozen=True, eq=False)
class GridSignal:
    """Complex samples on the box prod_i [origin_i, origin_i + extent_i - 1],
    held as one read-only array.

    Equal when the origins and every sample agree; the hash agrees with that.
    """

    dim: int
    origin: Vector
    extents: Vector
    values: np.ndarray

    def __init__(self, origin: Sequence[int], values: np.ndarray):
        values = np.array(values, dtype=complex)  # a copy: callers keep theirs
        origin = tuple(int(o) for o in origin)
        if values.ndim != len(origin):
            raise ValueError("origin dimension does not match value array")
        if any(e <= 0 for e in values.shape):
            raise ValueError("extents must be positive")
        values.flags.writeable = False
        object.__setattr__(self, "dim", values.ndim)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "extents", tuple(values.shape))
        object.__setattr__(self, "values", values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridSignal):
            return NotImplemented
        return self.origin == other.origin and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash((self.origin, self.extents, (self.values + 0.0).tobytes()))  # + 0.0 folds -0.0

    def is_zero(self, tol: float) -> bool:
        sup = float(np.max(np.abs(self.values))) if self.values.size else 0.0
        return sup < tol

    def difference(self, y: Sequence[int]) -> "GridSignal":
        y = tuple(int(v) for v in y)
        new_ext = tuple(e - abs(v) for e, v in zip(self.extents, y))
        if any(e <= 0 for e in new_ext):
            raise WindowError(f"window exhausted by shift {y}")
        base = tuple(
            slice(max(0, -v), max(0, -v) + e) for v, e in zip(y, new_ext)
        )
        moved = tuple(
            slice(max(0, -v) + v, max(0, -v) + v + e) for v, e in zip(y, new_ext)
        )
        new_origin = tuple(o + max(0, -v) for o, v in zip(self.origin, y))
        return GridSignal(new_origin, self.values[moved] - self.values[base])


Lattice = Union[LatticePoly, GridSignal]


# ---------------------------------------------------------------------------
# probe directions


def probe_directions(dim: int) -> list[Vector]:
    """Standard basis plus all sign vectors: cheap early witnesses."""
    if dim >= MAX_PROBES.bit_length():
        raise ValueError(f"2^{dim} sign directions are above {MAX_PROBES}")
    basis = [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
    seen = set(basis)
    return basis + [s for s in itertools.product((1, -1), repeat=dim) if s not in seen]


def witness_grid(dim: int, bound: int) -> list[Vector]:
    """The grid {1..bound+1}^dim: a nonzero polynomial of per-variable degree
    <= bound cannot vanish on it, so it certifies degree decisions."""
    if dim >= MAX_PROBES.bit_length() or (bound + 1) ** dim > MAX_PROBES:
        raise ValueError(f"the witness grid's {bound + 1}^{dim} points are above {MAX_PROBES}")
    return list(itertools.product(range(1, bound + 2), repeat=dim))


# ---------------------------------------------------------------------------
# operations


def iterated_difference(phi: GridSignal, directions: Sequence[Sequence[int]]) -> GridSignal:
    """Apply D_{y_1} ... D_{y_k} to a sampled grid; each step shrinks the
    window by |y_i| along each axis."""
    out = phi
    for y in directions:
        if isinstance(y, int):
            y = (y,)
        out = out.difference(y)
    return out


def _exact_terms(p: LatticePoly) -> list[tuple[Vector, int, int]]:
    """(alpha, a, b) with c_alpha = (a + ib) / den for one common den: every
    coefficient at its exact binary value.  The zero rule below is
    homogeneous in the coefficients, so den drops out of it."""
    try:
        parts = [(Fraction(c.real), Fraction(c.imag)) for _, c in p.coeffs]
    except (OverflowError, ValueError):
        raise ValueError("a coefficient is not finite") from None
    den = math.lcm(*(q.denominator for pair in parts for q in pair))
    return [(alpha, int(re * den), int(im * den))
            for (alpha, _), (re, im) in zip(p.coeffs, parts)]


def _binomial_row(x: int, y: int, e: int) -> list[int]:
    """The coefficients C(e, k) x^(e-k) y^k of (x + t y)^e, k = 0..e, for
    x != 0, each from the one before by the factor (e - k) y / ((k + 1) x):
    every product has one small factor, and every division is exact."""
    row = [x ** e]
    for k in range(e):
        row.append(row[-1] * ((e - k) * y) // ((k + 1) * x))
    return row


def _restriction(
    terms: Sequence[tuple[Vector, int, int]], x: Vector, y: Vector
) -> dict[int, tuple[int, int]]:
    """Non-zero coefficients q_d = (re, im) of t -> sum (a + ib) (x + t y)^alpha,
    in integers.  A factor (x_i + t y_i)^e with x_i = 0 or y_i = 0 is one
    term; the others are binomial rows, convolved."""
    q: dict[int, tuple[int, int]] = {}
    for alpha, a, b in terms:
        shift, scale, poly = 0, 1, [1]  # scale * t^shift * sum_k poly[k] t^k
        for x_i, y_i, e in zip(x, y, alpha):
            if x_i and y_i:
                poly = np.convolve(np.array(poly, dtype=object), np.array(_binomial_row(x_i, y_i, e), dtype=object))
            else:
                shift, scale = shift + (0 if x_i else e), scale * (x_i or y_i) ** e
        for d, c in enumerate(poly, shift):
            if c := c * scale:
                re, im = q.get(d, (0, 0))
                q[d] = (re + a * c, im + b * c)
    return q


def _line_bound(terms: Sequence[tuple[Vector, int, int]], bar: int, den: int):
    """A test (x, y, best) -> bool that says True only when no d > best can
    pass the zero rule along t -> p(x + t y), decided without expanding;
    None when it could never say True.  The rule's bar tol^2 max|c|^2 is
    bar / den.  Coefficientwise (x_i + t y_i) is below M + t M, M the
    largest |x_i| and |y_i| (or 1), so a term of degree e >= d adds at most
    |c| e! / (e - d)! M^e <= |c| e! M^e to d! |q_d|.  A term with
    den |c|^2 >= bar reaches the bar alone, so the test needs best >= its
    degree.  The logs are floats: their sum must fall short of
    log(tol max|c|) by a margin far past their rounding."""
    floor = max(sum(alpha) for alpha, a, b in terms if den * (a * a + b * b) >= bar)
    small = [(sum(alpha), 0.5 * math.log(a * a + b * b)) for alpha, a, b in terms if sum(alpha) > floor]
    if not small:
        return None
    e, log_c = np.array(small).T
    log_c += [math.lgamma(k + 1) for k in e.tolist()]  # |c| e!
    log_bar = 0.5 * (math.log(bar) - math.log(den))  # log(tol max|c|)
    scale = 1 + abs(log_bar) + 2 * np.abs(log_c).max()

    def below_bar(x: Vector, y: Vector, best: int) -> bool:
        if best < floor:
            return False
        log_m = math.log(max(map(abs, x + y)) or 1)
        margin = 1e-9 * (scale + e.max() * log_m)
        return np.logaddexp.reduce((log_c + e * log_m)[e > best], initial=-np.inf) < log_bar - margin

    return below_bar


def _restriction_degree(
    p: LatticePoly, pairs: Optional[Iterable[tuple[Vector, Vector]]], tol: float
) -> tuple[int, Optional[Vector]]:
    """Max over probe pairs (x, y), ``default_probes(p)`` when None, of the
    largest d with d! |q_d| > tol * max|c| (0 when no d >= 1 passes), and
    the y of the first pair attaining it; stops at a pair that reaches the
    total degree.  (-1, None) for p = 0 or tol >= 1, before any probe."""
    terms = _exact_terms(p)
    # max|c| <= tol * max|c| holds exactly when p = 0 or tol >= 1
    if not terms or tol >= 1:
        return -1, None
    top = p.total_degree()
    tol2 = Fraction(tol) ** 2
    bar = tol2.numerator * max(a * a + b * b for _, a, b in terms)  # tol^2 max|c|^2
    weight = cache(lambda d: math.factorial(d) ** 2 * tol2.denominator)  # d!^2, in bar's units
    # while bits(weight(d)) + bits(|q_d|^2) < bits(bar), weight(d) |q_d|^2 < 2^(bits(bar) - 1)
    # <= bar: d fails without the product
    deficit = cache(lambda d: bar.bit_length() - weight(d).bit_length())
    below_bar = _line_bound(terms, bar, tol2.denominator)
    best, witness = 0, None
    for x, y in default_probes(p) if pairs is None else pairs:
        if below_bar and below_bar(x, y, best):
            deg = 0  # no d > best passes
        else:
            q = sorted(_restriction(terms, x, y).items(), reverse=True)
            deg = next((d for d, (re, im) in q
                        if (mod2 := re * re + im * im).bit_length() >= deficit(d)
                        and weight(d) * mod2 > bar), 0)
        if witness is None or deg > best:
            best, witness = deg, y
            if best == top:
                break
    return best, witness


def degree_with_witness(phi: Lattice, tol: float = _TOL) -> tuple[Optional[int], Optional[Vector]]:
    """Degree by the difference criterion plus a witness direction.

    For a lattice polynomial with homogeneous parts p_d this is the largest
    d for which some probe y has d! |p_d(y)| > tol * max|c|, the cascade's
    zero test on D_y^d p = d! p_d(y) (tol = 0 tests p_d(y) != 0), with the
    first such probe as witness; 0 and the first probe when no d >= 1
    passes: the restriction degree from the origin, where q_d = p_d(y).  The
    values are exact, at any degree.  A non-finite coefficient is a
    ValueError.

    A sampled grid runs the cascade D_y, D_y^2, ... along each probe
    direction y until it vanishes; with k_y the first vanishing order, the
    degree is max_y k_y - 1 and the witness the first direction attaining it.

    Returns (-1, None) for the zero input and (None, None) when a sampled
    grid never flattens before its window is exhausted.
    """
    if not tol >= 0:
        raise ValueError("tolerance must be >= 0")
    if isinstance(phi, LatticePoly):
        return _restriction_degree(phi, None, tol)
    zero = tol * (1.0 + float(np.max(np.abs(phi.values))))
    if phi.is_zero(zero):
        return -1, None
    cap = min(phi.extents) - 1
    if cap < 1:
        raise WindowError("grid window too small to take any difference")

    best_order = 0
    witness: Optional[Vector] = None
    # probe directions step by at most 1 per axis, so cap differences fit the window
    for y in probe_directions(phi.dim):
        cur = phi
        for k in range(1, cap + 1):
            cur = cur.difference(y)
            if cur.is_zero(zero):
                break
        else:
            return None, None  # cascade never flattened on this window
        if k > best_order:
            best_order, witness = k, y
    return best_order - 1, witness


def degree(phi: Lattice, tol: float = _TOL) -> Optional[int]:
    """Smallest n with all probed (n+1)-fold differences zero (see
    ``degree_with_witness``); None means "not polynomial on this window"."""
    n, _ = degree_with_witness(phi, tol)
    return n


def newton_expand(
    phi: LatticePoly, x: Sequence[int], y: Sequence[int], m: int
) -> tuple[tuple, tuple]:
    """Both sides of the binomial difference expansion at (x, y, k) for
    every k = 0..m, as two tuples indexed by k: left phi(x + k y), right
    sum_j C(k, j) (D_y^j phi)(x), with D_y^j phi(x) the first entry of the
    j-th forward-difference row of the evaluations phi(x + i y).  The right
    side stops at j = min(k, total degree), as D_y^j phi = 0 past the
    degree; the full sum to k holds for any function.  Each point of the
    line is evaluated once, and the difference rows use the first
    min(m, total degree) + 1 of those values.  Exact inputs give exactly
    equal outputs."""
    if m < 0:
        raise ValueError("m must be >= 0")
    x = tuple(int(v) for v in x)
    y = tuple(int(v) for v in y)
    lhs = tuple(phi.evaluate(tuple(a + k * b for a, b in zip(x, y))) for k in range(m + 1))
    row = list(lhs[: min(m, phi.total_degree()) + 1])
    diffs = []  # diffs[j] = (D_y^j phi)(x)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    rhs = []
    for k in range(m + 1):
        total = 0
        for j, d in enumerate(diffs[: k + 1]):
            total = total + math.comb(k, j) * d
        rhs.append(total)
    return lhs, tuple(rhs)


def domar_degree(
    phi: LatticePoly, probes: Sequence[tuple[Sequence[int], Sequence[int]]]
) -> int:
    """Max over probe pairs (x, y) of the degree of t -> phi(x + t y): the
    largest d with d! |q_d| > tol * max|c| for its exact coefficients q_d, at
    ``degree_with_witness``'s default tol.  With probes containing a witness
    direction this equals the difference-criterion degree.  An x or y not of
    phi's dimension is a ValueError."""
    pairs = [(tuple(int(v) for v in x), tuple(int(v) for v in y)) for x, y in probes]
    if not pairs or any(len(x) != phi.dim or len(y) != phi.dim for x, y in pairs):
        raise ValueError(f"need at least one probe pair, each of dimension {phi.dim}")
    return _restriction_degree(phi, pairs, _TOL)[0]


def default_probes(phi: LatticePoly) -> list[tuple[Vector, Vector]]:
    """Probe pairs from the origin along the probe directions, then the
    witness grid for phi's total degree, without repeats."""
    origin = (0,) * phi.dim
    seen: set[Vector] = set()
    dirs = probe_directions(phi.dim) + witness_grid(phi.dim, max(phi.total_degree(), 0))
    return [(origin, y) for y in dirs if not (y in seen or seen.add(y))]
