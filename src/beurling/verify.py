"""Named verification scenarios for the CLI.

Each scenario pins a worked construction to its expected outcome and
returns a report of pass/fail checks with the measured values.  The
scenario IDs are part of the CLI contract; ``run_suite("all", ...)`` runs
everything.  Scenarios are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import diff_calculus as dc
from .errors import IdealSaturationError, NotPrimaryError
from .finite_oracle import MAX_TRIALS, law_suite_finite
from .integration import boundedness_probe, cumulative_P
from .seq_algebra import (
    CirclePoint,
    FinSeq,
    angles_within,
    circle_distance,
    delta,
    difference_seq,
    fourier_grid,
)
from .signals import ExpPoly, Geometric, annihilate, constant_signal, sample_signal
from .spectra import (
    Empty,
    angles_of,
    check_calculus_laws,
    classify_primary_ideal,
    decompose_finite_spectrum,
    hull_of_generators,
    spectrum_exppoly,
)
from .weights import (
    ExponentialWeight,
    PowerWeight,
    check_beurling_domar,
    check_weight_axioms,
    classify_growth,
)


@dataclass
class SuiteReport:
    name: str
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    elapsed: float = 0.0
    note: str = ""

    def add(self, label: str, ok: bool, detail: str = ""):
        self.checks.append((label, bool(ok), detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "passed": self.passed,
            "elapsed": self.elapsed,
            "note": self.note,
            "checks": [
                {"check": label, "passed": ok, "detail": detail}
                for label, ok, detail in self.checks
            ],
        }


# ---------------------------------------------------------------------------
# randomized instance generators (shared with the test suite)


def random_exppoly(
    rng: np.random.Generator,
    max_freqs: int = 3,
    max_degree: int = 2,
    min_separation: float = 0.05,
    coeff_low: float = 0.1,
) -> ExpPoly:
    """Random exponential polynomial with well-separated frequencies and
    coefficient moduli in [coeff_low, 1] (so relative comparisons are
    meaningful)."""
    n_freqs = int(rng.integers(1, max_freqs + 1))
    freqs: list[float] = []
    while len(freqs) < n_freqs:
        t = float(rng.uniform(0, 2 * math.pi))
        if all(circle_distance(t, u) >= min_separation for u in freqs):
            freqs.append(t)
    terms = []
    for t in freqs:
        deg = int(rng.integers(0, max_degree + 1))
        coeffs = [
            complex(rng.uniform(coeff_low, 1.0) * np.exp(2j * math.pi * rng.random()))
            for _ in range(deg + 1)
        ]
        terms.append((CirclePoint(t), tuple(coeffs)))
    return ExpPoly(terms)


def random_lattice_poly(
    rng: np.random.Generator, max_dim: int = 3, max_degree: int = 5
) -> dc.LatticePoly:
    """Random integer-coefficient lattice polynomial (exact arithmetic)."""
    dim = int(rng.integers(1, max_dim + 1))
    target = int(rng.integers(0, max_degree + 1))
    coeffs: dict[tuple[int, ...], int] = {}
    for _ in range(int(rng.integers(1, 7))):
        alpha = tuple(rng.integers(0, target + 1, dim).tolist())
        if sum(alpha) > target:
            continue
        c = int(rng.integers(-5, 6))
        if c:
            coeffs[alpha] = coeffs.get(alpha, 0) + c
    # guarantee the intended total degree is hit
    lead = tuple(rng.multinomial(target, [1.0 / dim] * dim).tolist())
    coeffs[lead] = coeffs.get(lead, 0) + int(rng.integers(1, 6))
    return dc.LatticePoly(dim, coeffs)


# ---------------------------------------------------------------------------
# scenarios


def _suite_geometric_annihilation(seed: int, trials: int) -> SuiteReport:
    rep = SuiteReport("example-2.4")
    w = ExponentialWeight(2)
    f = FinSeq({-1: 2, 1: -0.5})
    phi = Geometric(2)

    result = annihilate(f, phi)
    rep.add("annihilation exact", result.is_zero and result.residual == 0.0,
            f"residual {result.residual}")
    _, vals = fourier_grid(f, 4096)
    min_mod = float(np.min(np.abs(vals)))
    rep.add("min transform modulus 1.5", abs(min_mod - 1.5) <= 1e-9,
            f"measured {min_mod!r}")
    hull = hull_of_generators([f])
    rep.add("hull empty", isinstance(hull, Empty),
            type(hull).__name__)
    axioms = check_weight_axioms(w, 50)
    rep.add("weight axioms on window 50", axioms.axioms_ok,
            f"{len(axioms.violations)} violations")
    bd = check_beurling_domar(w, 1, 10_000)
    rep.add("Beurling-Domar fails", bd.verdict == "fails", bd.verdict)
    return rep


def _suite_unbounded_single_freq(seed: int, trials: int) -> SuiteReport:
    rep = SuiteReport("remark-5.5a")
    s = ExpPoly([(1.0, (0, 1))])  # phi(n) = n e^{in}
    sp = spectrum_exppoly(s)
    angles = angles_of(sp)
    rep.add("spectrum is {1}", len(angles) == 1 and abs(angles[0] - 1.0) <= 1e-9,
            f"{angles}")
    rep.add("0 not in spectrum",
            all(circle_distance(t, 0.0) > 1e-6 for t in angles), f"{angles}")
    probe = boundedness_probe(s, [10, 100, 1000])
    rep.add("unbounded trend", probe.verdict == "unboundedTrend", probe.verdict)
    return rep


def _suite_planar_integral_demo(seed: int, trials: int) -> SuiteReport:
    # 2-D grid demo: phi(x, y) = e^{iy}; its running integral along the
    # first axis grows linearly even though (0,0) is not in the spectrum.
    # Finite grid, trend verdict only.
    rep = SuiteReport("remark-5.5b")
    rep.note = "finite-grid trend demo; not a certification"
    sups = []
    for w in (10, 30, 90):
        xs = np.arange(-w, w + 1)
        ys = np.arange(-w, w + 1)
        phi = np.exp(1j * ys)[None, :] * np.ones((len(xs), 1))
        # running sum along the first axis anchored at x = 0
        prefix = np.cumsum(phi, axis=0)
        anchor = prefix[w:w + 1, :]  # row x = 0
        integral = prefix - anchor
        sups.append(float(np.max(np.abs(integral))))
    growing = sups[2] - sups[1] >= 1.5 * (sups[1] - sups[0]) > 0
    rep.add("running integral grows superlinearly in log-window", growing,
            f"sups {sups}")
    return rep


def _suite_binomial_expansion(seed: int, trials: int) -> SuiteReport:
    rep = SuiteReport("prop-3.1")
    rng = np.random.default_rng(seed)
    bad = 0
    count = max(trials, 100)
    for _ in range(count):
        p = random_lattice_poly(rng)
        xy = rng.integers(-3, 4, 2 * p.dim).tolist()  # x, then y
        lhs, rhs = dc.newton_expand(p, xy[:p.dim], xy[p.dim:], 8)
        bad += sum(a != b for a, b in zip(lhs, rhs))
    rep.add(f"binomial expansion exact on {count} random polynomials",
            bad == 0, f"{bad} mismatches")
    return rep


def _suite_degree_equivalence(seed: int, trials: int) -> SuiteReport:
    rep = SuiteReport("thm-3.4")
    rng = np.random.default_rng(seed)
    # off-origin bases, from their own stream (at 0, q_d = p_d(y) restates the closed form)
    bases = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    bad = []
    count = max(trials, 100)
    for i in range(count):
        p = random_lattice_poly(rng)
        n_diff = dc.degree(p)
        ys = [y for _, y in dc.default_probes(p)]
        xs = bases.integers(-3, 4, (len(ys), p.dim))
        xs[~xs.any(axis=1), 0] = 1  # x != 0
        n_domar = dc.domar_degree(p, list(zip(xs.tolist(), ys)))
        if n_diff != n_domar:
            bad.append((i, n_diff, n_domar))
    rep.add(f"difference and restriction degrees agree on {count} polynomials",
            not bad, f"mismatches: {bad[:3]}")

    rng2 = np.random.default_rng(seed + 1)
    decay_ok = True
    for _ in range(20):
        p = random_lattice_poly(rng2)
        n = p.total_degree()
        y = tuple(int(v) for v in rng2.integers(-2, 3, p.dim)) or (1,) * p.dim
        ms = sorted({int(m) for m in np.geomspace(1, 10_000, 40)})
        vals = np.array([
            abs(p.evaluate(tuple(m * c for c in y))) / m ** (n + 0.5) for m in ms
        ])
        tail = vals[len(vals) // 2:]
        peak = float(np.max(vals))
        if peak > 0 and not (
            all(b <= a * (1 + 1e-12) for a, b in zip(tail, tail[1:]))
            and tail[-1] <= 0.1 * peak
        ):
            decay_ok = False
    rep.add("degree-N polynomials decay below m^(N+1/2)", decay_ok, "")
    return rep


def _suite_primary_ideals(seed: int, trials: int) -> SuiteReport:
    rep = SuiteReport("thm-4.1")
    growth = classify_growth(PowerWeight(2), 3, 1000)
    rep.add("quadratic weight classifies as N=2",
            growth is not None and growth.N == 2, f"{growth}")
    N = growth.N if growth else 2
    for order in (1, 2, 3):
        gen = difference_seq(delta(0), 1, order)
        cls = classify_primary_ideal([gen], N)
        rep.add(f"vanishing order {order} lands in class k={order - 1}",
                cls.k == order - 1, f"got k={cls.k}")
    try:
        classify_primary_ideal([difference_seq(delta(0), 1, 4)], N)
        rep.add("order beyond the chain reports saturation", False, "no error")
    except IdealSaturationError as exc:
        rep.add("order beyond the chain reports saturation", True, str(exc.order))
    try:
        classify_primary_ideal([delta(0)], N)
        rep.add("unit sequence is not primary", False, "no error")
    except NotPrimaryError:
        rep.add("unit sequence is not primary", True, "")
    return rep


def _suite_finite_spectrum_roundtrip(seed: int, trials: int) -> SuiteReport:
    rep = SuiteReport("thm-4.4")
    rng = np.random.default_rng(seed)
    count = trials if trials else 20
    worst_freq, worst_coeff, worst_res = 0.0, 0.0, 0.0
    failures = 0
    for _ in range(count):
        truth = random_exppoly(rng, max_freqs=3, max_degree=2)
        samples = sample_signal(truth, -60, 60)
        try:
            rec = decompose_finite_spectrum(samples, k_max=3, n_max=2, tol=1e-8)
        except ValueError:  # every package error, LinAlgError included; a bug propagates
            failures += 1
            continue
        fgap, cgap = roundtrip_gaps(truth, rec)
        res = float(np.max(np.abs(sample_signal(rec, -60, 60).values - samples.values)))
        worst_freq = max(worst_freq, fgap)
        worst_coeff = max(worst_coeff, cgap)
        worst_res = max(worst_res, res)
    rep.add(f"{count} synth/recover round trips", failures == 0,
            f"{failures} failures")
    rep.add("frequencies within 1e-8 rad", worst_freq <= 1e-8, f"worst {worst_freq:.3e}")
    rep.add("coefficients within 1e-6 relative", worst_coeff <= 1e-6,
            f"worst {worst_coeff:.3e}")
    rep.add("residual sup below 1e-8", worst_res < 1e-8, f"worst {worst_res:.3e}")
    return rep


def roundtrip_gaps(truth: ExpPoly, recovered: ExpPoly) -> tuple[float, float]:
    """(max frequency gap in radians, max relative coefficient gap) between
    two exponential polynomials, matching terms by frequency."""
    if len(truth.terms) != len(recovered.terms):
        return math.inf, math.inf
    freq_gap = 0.0
    coeff_gap = 0.0
    for term in truth.terms:
        best = min(recovered.terms,
                   key=lambda r: circle_distance(r.freq.t, term.freq.t))
        freq_gap = max(freq_gap, circle_distance(best.freq.t, term.freq.t))
        if len(best.coeffs) != len(term.coeffs):
            return math.inf, math.inf
        for a, b in zip(term.coeffs, best.coeffs):
            coeff_gap = max(coeff_gap, abs(a - b) / max(abs(a), 1e-300))
    return freq_gap, coeff_gap


def _suite_bounded_integrals(seed: int, trials: int) -> SuiteReport:
    rep = SuiteReport("cor-5.4")
    probe = boundedness_probe(cumulative_P(ExpPoly([(1.0, (1,))])),
                              [100, 1000, 10_000])
    closed = 2.0 / abs(np.exp(1j) - 1.0)
    sup = probe.sup_trace[-1][1]
    rep.add("running sum of e^{in} bounded", probe.verdict == "bounded",
            probe.verdict)
    rep.add("sup matches closed form 2/|e^i - 1|",
            abs(sup - closed) <= 1e-6 * closed, f"{sup} vs {closed}")

    rng = np.random.default_rng(seed)
    count = trials if trials else 20
    bad = 0
    for _ in range(count):
        s = random_exppoly(rng, max_freqs=3, max_degree=0, min_separation=0.05)
        if any(circle_distance(t.freq.t, 0.0) < 0.1 for t in s.terms):
            continue
        if boundedness_probe(cumulative_P(s), [100, 1000, 10_000]).verdict != "bounded":
            bad += 1
    rep.add(f"random zero-free-spectrum signals have bounded integrals ({count} draws)",
            bad == 0, f"{bad} failures")

    necessity = boundedness_probe(cumulative_P(constant_signal(1.0)),
                                  [100, 1000, 10_000])
    rep.add("constant integrand grows (hypothesis necessity)",
            necessity.verdict == "unboundedTrend", necessity.verdict)
    return rep


def _suite_calculus_laws(seed: int, trials: int) -> SuiteReport:
    rep = SuiteReport("thm-2.1-laws")
    count = trials if trials else 100
    for q in (8, 16, 64):
        oracle = law_suite_finite(q, count, seed)
        rep.add(f"finite oracle q={q} ({oracle.checks} checks)", oracle.ok,
                f"{len(oracle.failures)} failures")
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(count):
        s = random_exppoly(rng, max_freqs=4, max_degree=3)
        aux = random_exppoly(rng, max_freqs=4, max_degree=3)
        gamma = CirclePoint(float(rng.uniform(0, 2 * math.pi)))
        y = int(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1)
        k = complex(rng.uniform(0.5, 2.0) * np.exp(2j * math.pi * rng.random()))
        if not check_calculus_laws(s, aux, gamma, y, k).ok:
            failures += 1
    rep.add(f"symbolic law suite ({count} pairs)", failures == 0,
            f"{failures} failures")
    return rep


def _suite_sqrt_frequencies_truncated(seed: int, trials: int) -> SuiteReport:
    # Truncation of sum_n n^{-2} e^{i t sqrt(n)}: the recovered frequencies
    # must sit among the sqrt(n) mod 2 pi targets.  Consistency only: the
    # full series has infinitely many frequencies and is out of reach.
    rep = SuiteReport("example-3.9-truncated")
    rep.note = "consistency check on a truncation, not a proof"
    K = 6
    targets = [math.sqrt(n) % (2 * math.pi) for n in range(1, K + 1)]
    s = ExpPoly([(CirclePoint(math.sqrt(n)), (1.0 / n ** 2,))
                 for n in range(1, K + 1)])
    rec = decompose_finite_spectrum(sample_signal(s, -40, 40), k_max=8, n_max=0,
                                    tol=1e-6)
    recovered = angles_of(spectrum_exppoly(rec))
    ok = angles_within(recovered, targets, 1e-6)
    rep.add(f"recovered frequencies sit among the {K} truncation targets",
            ok and len(recovered) == K,
            f"recovered {[round(t, 6) for t in recovered]}")
    return rep


_SUITES = {
    "example-2.4": _suite_geometric_annihilation,
    "remark-5.5a": _suite_unbounded_single_freq,
    "remark-5.5b": _suite_planar_integral_demo,
    "prop-3.1": _suite_binomial_expansion,
    "thm-3.4": _suite_degree_equivalence,
    "thm-4.1": _suite_primary_ideals,
    "thm-4.4": _suite_finite_spectrum_roundtrip,
    "cor-5.4": _suite_bounded_integrals,
    "thm-2.1-laws": _suite_calculus_laws,
    "example-3.9-truncated": _suite_sqrt_frequencies_truncated,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(name: str, seed: int = 0, trials: int = 0) -> list[SuiteReport]:
    """Run one named scenario (or every one for "all"); trials = 0 keeps
    each scenario's default count.  Every scenario takes at most
    ``finite_oracle.MAX_TRIALS`` trials, checked before any draw."""
    if not 0 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must lie in 0..{MAX_TRIALS}, got {trials}")
    if name == "all":
        names = list(_SUITES)
    elif name in _SUITES:
        names = [name]
    else:
        raise ValueError(
            f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}"
        )
    reports = []
    for suite in names:
        start = time.perf_counter()
        report = _SUITES[suite](seed, trials)
        report.elapsed = time.perf_counter() - start
        reports.append(report)
    return reports
