"""Finite-difference polynomial calculus on integer lattices.

A function is a polynomial of degree n exactly when every (n+1)-fold
difference vanishes while some n-fold difference survives.  This module
provides that criterion for symbolic lattice polynomials and for sampled
grids, the binomial expansion identity

    phi(x + m y) = sum_{j=0}^{m} C(m, j) (D_y^j phi)(x),

and the directional-restriction degree (the degree of t -> phi(x + t y)
maximised over probe pairs), which must agree with the difference
criterion.

Coefficient arithmetic is duck-typed: integer and Fraction inputs stay
exact, floats and complex values fall back to scale-aware zero tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import WindowError

Vector = tuple[int, ...]

#: Largest probe set (sign directions or witness-grid points) ever built; thm-3.4 needs 6^3.
MAX_PROBES = 2 ** 16


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

    def coeff_map(self) -> dict[Vector, complex]:
        return dict(self.coeffs)

    def total_degree(self) -> int:
        """Max |alpha| over non-zero coefficients; -1 for the zero polynomial."""
        return max((sum(a) for a, _ in self.coeffs), default=-1)

    def is_zero(self, tol: float = 0.0) -> bool:
        if tol == 0.0:
            return not self.coeffs
        scale = max((abs(c) for _, c in self.coeffs), default=0.0)
        return scale <= tol

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

    def shift(self, v: Sequence[int]) -> "LatticePoly":
        """p(x + v) by exact binomial expansion."""
        v = tuple(int(y) for y in v)
        out: dict[Vector, complex] = {}
        for alpha, c in self.coeffs:
            partial = [((), c)]
            for a_i, v_i in zip(alpha, v):
                nxt = []
                for beta, coeff in partial:
                    for k in range(a_i + 1):
                        nxt.append((beta + (k,), coeff * math.comb(a_i, k) * v_i ** (a_i - k)))
                partial = nxt
            for beta, coeff in partial:
                out[beta] = out.get(beta, 0) + coeff
        return LatticePoly(self.dim, out)

    def __sub__(self, other: "LatticePoly") -> "LatticePoly":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        merged = dict(self.coeffs)
        for alpha, c in other.coeffs:
            merged[alpha] = merged.get(alpha, 0) - c
        return LatticePoly(self.dim, merged)

    def difference(self, y: Sequence[int]) -> "LatticePoly":
        return self.shift(y) - self


@dataclass(frozen=True)
class GridSignal:
    """Complex samples on the box prod_i [origin_i, origin_i + extent_i - 1]."""

    dim: int
    origin: Vector
    extents: Vector
    values: np.ndarray

    def __init__(self, origin: Sequence[int], values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        origin = tuple(int(o) for o in origin)
        if values.ndim != len(origin):
            raise ValueError("origin dimension does not match value array")
        if any(e <= 0 for e in values.shape):
            raise ValueError("extents must be positive")
        object.__setattr__(self, "dim", values.ndim)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "extents", tuple(values.shape))
        object.__setattr__(self, "values", values)

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
    dirs = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    signs: list[Vector] = [()]
    for _ in range(dim):
        signs = [s + (e,) for s in signs for e in (1, -1)]
    seen = set(dirs)
    for s in signs:
        if s not in seen:
            dirs.append(s)
            seen.add(s)
    return dirs


def witness_grid(dim: int, bound: int) -> list[Vector]:
    """The grid {1..bound+1}^dim: a nonzero polynomial of per-variable degree
    <= bound cannot vanish on it, so it certifies degree decisions."""
    if dim >= MAX_PROBES.bit_length() or (bound + 1) ** dim > MAX_PROBES:
        raise ValueError(f"the witness grid's {bound + 1}^{dim} points are above {MAX_PROBES}")
    pts: list[Vector] = [()]
    for _ in range(dim):
        pts = [p + (v,) for p in pts for v in range(1, bound + 2)]
    return pts


# ---------------------------------------------------------------------------
# operations


def iterated_difference(phi: Lattice, directions: Sequence[Sequence[int]]) -> Lattice:
    """Apply D_{y_1} ... D_{y_k}; exact for polynomials, window-shrinking
    for grids."""
    out = phi
    for y in directions:
        if isinstance(y, int):
            y = (y,)
        out = out.difference(y)
    return out


def _lattice_is_zero(phi: Lattice, tol: float, scale: float) -> bool:
    if isinstance(phi, LatticePoly):
        return phi.is_zero(tol * scale)
    return phi.is_zero(tol * (1.0 + scale))


def _scale_of(phi: Lattice) -> float:
    if isinstance(phi, LatticePoly):
        return max((abs(c) for _, c in phi.coeffs), default=0.0)
    return float(np.max(np.abs(phi.values))) if phi.values.size else 0.0


def degree_with_witness(
    phi: Lattice, window: Optional[int] = None, tol: float = 1e-9
) -> tuple[Optional[int], Optional[Vector]]:
    """Degree by the difference criterion plus a witness direction.

    Along each probe direction y the cascade D_y, D_y^2, ... is run until it
    vanishes; with k_y the first vanishing order, the degree is
    max_y k_y - 1 (differences of zero stay zero, so this is exactly the
    smallest n with every (n+1)-fold probe difference zero and some n-fold
    difference alive).

    Returns (n, y) with y a maximising direction; (-1, None) for the zero
    input; (None, None) when a sampled grid never flattens before its
    window is exhausted.
    """
    if not tol >= 0:
        raise ValueError("tolerance must be >= 0")
    scale = _scale_of(phi)
    if _lattice_is_zero(phi, tol, scale):
        return -1, None
    if isinstance(phi, LatticePoly):
        bound = phi.total_degree()
        probes = probe_directions(phi.dim) + witness_grid(phi.dim, bound)
        cap = bound + 2
    else:
        cap = (min(phi.extents) - 1) if window is None else min(window, min(phi.extents) - 1)
        if cap < 1:
            raise WindowError("grid window too small to take any difference")
        probes = probe_directions(phi.dim)
    seen: set[Vector] = set()
    probes = [p for p in probes if not (p in seen or seen.add(p))]

    best_order = 0
    witness: Optional[Vector] = None
    for y in probes:
        cur: Lattice = phi
        k = 0
        vanished = False
        while k < cap:
            try:
                cur = cur.difference(y)
            except WindowError:
                break
            k += 1
            if _lattice_is_zero(cur, tol, scale):
                vanished = True
                break
        if not vanished:
            if isinstance(phi, GridSignal):
                return None, None  # cascade never flattened on this window
            # each difference drops the degree exactly, so only inf or nan coefficients get here
            raise ValueError(f"difference cascade along {y} did not vanish")
        if k > best_order:
            best_order, witness = k, y
    return best_order - 1, witness


def degree(phi: Lattice, window: Optional[int] = None, tol: float = 1e-9) -> Optional[int]:
    """Smallest n with all probed (n+1)-fold differences zero (see
    ``degree_with_witness``); None means "not polynomial on this window"."""
    n, _ = degree_with_witness(phi, window, tol)
    return n


def newton_expand(
    phi: LatticePoly, x: Sequence[int], y: Sequence[int], m: int
) -> tuple[complex, complex]:
    """Both sides of the binomial difference expansion at (x, y, m):
    left phi(x + m y), right sum_j C(m, j) (D_y^j phi)(x).  Exact inputs
    give exactly equal outputs."""
    if m < 0:
        raise ValueError("m must be >= 0")
    x = tuple(int(v) for v in x)
    y = tuple(int(v) for v in y)
    lhs = phi.evaluate(tuple(a + m * b for a, b in zip(x, y)))
    rhs = 0
    diff: Lattice = phi
    for j in range(m + 1):
        rhs = rhs + math.comb(m, j) * diff.evaluate(x)
        if j < m:
            diff = diff.difference(y)
    return lhs, rhs


def domar_degree(
    phi: LatticePoly, probes: Sequence[tuple[Sequence[int], Sequence[int]]]
) -> int:
    """Max over probe pairs (x, y) of the degree of t -> phi(x + t y).

    Each restriction is fitted by exact divided differences on
    t = 0..bound+1; with probes containing a witness direction this equals
    the difference-criterion degree.
    """
    if not probes:
        raise ValueError("need at least one probe pair")
    bound = max(phi.total_degree(), 0)
    best = -1
    for x, y in probes:
        x = tuple(int(v) for v in x)
        y = tuple(int(v) for v in y)
        samples = [
            phi.evaluate(tuple(a + t * b for a, b in zip(x, y)))
            for t in range(bound + 2)
        ]
        scale = max((abs(s) for s in samples), default=0.0)
        # unit-step differences of the sample sequence: degree = last
        # surviving order
        level = list(samples)
        deg_here = -1
        for k in range(len(samples)):
            if any(abs(v) > 1e-12 * scale if scale else v != 0 for v in level):
                deg_here = k
            level = [b - a for a, b in zip(level, level[1:])]
            if not level:
                break
        best = max(best, deg_here)
    return best


def default_probes(phi: LatticePoly) -> list[tuple[Vector, Vector]]:
    """Probe pairs from the origin along the certified witness directions."""
    origin = (0,) * phi.dim
    bound = max(phi.total_degree(), 0)
    dirs = probe_directions(phi.dim) + witness_grid(phi.dim, bound)
    seen: set[Vector] = set()
    out = []
    for y in dirs:
        if y not in seen:
            seen.add(y)
            out.append((origin, y))
    return out
