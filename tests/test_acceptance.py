"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is pinned here, not deferred.
"""

import cmath
import math
import time

import numpy as np

from beurling.diff_calculus import default_probes, degree, domar_degree, newton_expand
from beurling.finite_oracle import CyclicSignal, law_suite_finite, spectrum_finite
from beurling.integration import boundedness_probe, cumulative_P
from beurling.seq_algebra import (
    CirclePoint,
    FinSeq,
    circle_distance,
    delta,
    difference_seq,
    fourier_grid,
    vanishing_order,
)
from beurling.signals import ExpPoly, Geometric, annihilate, constant_signal, sample_signal
from beurling.spectra import (
    Empty,
    angles_of,
    check_calculus_laws,
    classify_primary_ideal,
    decompose_finite_spectrum,
    hull_of_generators,
    spectrum_exppoly,
)
from beurling.verify import SUITE_NAMES, random_exppoly, random_lattice_poly, roundtrip_gaps, run_suite
from beurling.weights import ExponentialWeight, check_beurling_domar, check_weight_axioms


def report(n: int, ok: bool, detail: str):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_geometric_annihilation_reproduction():
    start = time.perf_counter()
    f = FinSeq({-1: 2, 1: -0.5})

    res = annihilate(f, Geometric(2))
    ok = res.is_zero and res.residual == 0.0

    _, vals = fourier_grid(f, 4096)
    min_mod = float(np.min(np.abs(vals)))
    ok &= abs(min_mod - 1.5) <= 1e-9

    ok &= isinstance(hull_of_generators([f]), Empty)

    w = ExponentialWeight(2)
    ok &= check_weight_axioms(w, 50).axioms_ok
    ok &= check_beurling_domar(w, 1, 10_000).verdict == "fails"

    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(1, ok, f"min |F f| = {min_mod!r}, hull empty, axioms ok, "
                  f"divergence detected, {elapsed:.3f}s")


def test_criterion_2_spectral_calculus_law_suites():
    start = time.perf_counter()
    failures = 0
    checks = 0
    for q in (8, 16, 64):
        rep = law_suite_finite(q, 200, seed=0)
        failures += len(rep.failures)
        checks += rep.checks

    rng = np.random.default_rng(0)
    symbolic_failures = []
    for i in range(200):
        s = random_exppoly(rng, max_freqs=4, max_degree=3)
        aux = random_exppoly(rng, max_freqs=4, max_degree=3)
        gamma = CirclePoint(float(rng.uniform(0, 2 * math.pi)))
        y = int(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1)
        k = complex(rng.uniform(0.5, 2.0) * np.exp(2j * math.pi * rng.random()))
        rep = check_calculus_laws(s, aux, gamma, y, k)
        if not rep.ok:
            symbolic_failures.append(i)
        checks += sum(1 for c in rep.checks if c.passed is not None)

    elapsed = time.perf_counter() - start
    ok = failures == 0 and not symbolic_failures and elapsed < 10.0
    report(2, ok, f"{checks} law checks, {failures} oracle failures, "
                  f"{len(symbolic_failures)} symbolic failures, {elapsed:.2f}s")


def test_criterion_3_difference_calculus():
    rng = np.random.default_rng(1)
    corpus = [random_lattice_poly(rng, max_dim=3, max_degree=5) for _ in range(100)]

    expansion_bad = 0
    for p in corpus:
        x = tuple(int(v) for v in rng.integers(-3, 4, p.dim))
        y = tuple(int(v) for v in rng.integers(-3, 4, p.dim))
        lhs, rhs = newton_expand(p, x, y, 8)
        expansion_bad += sum(a != b for a, b in zip(lhs, rhs))

    degree_bad = 0
    for p in corpus:
        if degree(p) != domar_degree(p, default_probes(p)):
            degree_bad += 1

    decay_bad = 0
    ms = sorted({int(m) for m in np.geomspace(1, 10_000, 60)})
    for p in corpus[:30]:
        n = p.total_degree()
        for y in ([1] * p.dim, [1] + [0] * (p.dim - 1)):
            vals = [abs(p.evaluate(tuple(m * c for c in y))) / m ** (n + 0.5)
                    for m in ms]
            peak = max(vals)
            if peak == 0:
                continue
            tail = vals[len(vals) // 2:]
            monotone = all(b <= a * (1 + 1e-12) for a, b in zip(tail, tail[1:]))
            if not (monotone and tail[-1] <= 0.1 * peak):
                decay_bad += 1

    ok = expansion_bad == 0 and degree_bad == 0 and decay_bad == 0
    report(3, ok, f"binomial expansion exact (100 polys, m <= 8), degree "
                  f"criteria agree, decay beyond degree: "
                  f"{expansion_bad}/{degree_bad}/{decay_bad} failures")


def test_criterion_4_primary_ideal_chain():
    ok = True
    details = []
    for order, want_k in ((1, 0), (2, 1), (3, 2)):
        got = classify_primary_ideal([difference_seq(delta(0), 1, order)], N=2).k
        ok &= got == want_k
        details.append(f"order {order} -> k={got}")

    for m in (1, 2, 3):
        for k in (0, 1, 2):
            g = difference_seq(delta(0), m, k + 1)
            ok &= vanishing_order(g, 0.0) >= k + 1

    for k in (0, 1, 2):
        gens = [difference_seq(delta(0), m, k + 1) for m in (1, 2, 3)]
        sig = ExpPoly([(0.0, tuple(float(j + 1) for j in range(k + 1)))])
        ok &= all(annihilate(g, sig).is_zero for g in gens)
        sp = spectrum_exppoly(sig)
        ok &= angles_of(sp) == (0.0,) and sp.points[0].multiplicity <= k + 1
        deeper = ExpPoly([(0.0, (0.0,) * (k + 1) + (1.0,))])
        ok &= not annihilate(gens[0], deeper).is_zero

    report(4, ok, "; ".join(details) + "; difference powers land in the "
                  "matching ideal; annihilated signals are polynomials of "
                  "bounded degree at the unit character")


def test_criterion_5_finite_spectrum_roundtrip():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_freq = worst_coeff = worst_res = 0.0
    failures = 0
    for _ in range(100):
        truth = random_exppoly(rng, max_freqs=3, max_degree=2,
                               min_separation=0.05)
        samples = sample_signal(truth, -60, 60)
        try:
            rec = decompose_finite_spectrum(samples, k_max=3, n_max=2, tol=1e-8)
        except Exception:
            failures += 1
            continue
        fgap, cgap = roundtrip_gaps(truth, rec)
        res = float(np.max(np.abs(
            np.asarray(sample_signal(rec, -60, 60).values)
            - np.asarray(samples.values))))
        worst_freq = max(worst_freq, fgap)
        worst_coeff = max(worst_coeff, cgap)
        worst_res = max(worst_res, res)
    elapsed = time.perf_counter() - start
    ok = (failures == 0 and worst_freq <= 1e-8 and worst_coeff <= 1e-6
          and worst_res < 1e-8 and elapsed < 30.0)
    report(5, ok, f"100 round trips: freq gap {worst_freq:.2e} rad, coeff gap "
                  f"{worst_coeff:.2e} rel, residual {worst_res:.2e}, "
                  f"{elapsed:.2f}s")


def test_criterion_6_indefinite_integral_probes():
    probe = boundedness_probe(cumulative_P(ExpPoly([(1.0, (1,))])),
                              [100, 1000, 10_000])
    closed = 2.0 / abs(cmath.exp(1j) - 1.0)
    sup = probe.sup_trace[-1][1]
    ok = probe.verdict == "bounded" and abs(sup - closed) <= 1e-6

    growth = ExpPoly([(1.0, (0, 1))])  # n e^{in}
    trend = boundedness_probe(growth, [10, 100, 1000])
    sp = angles_of(spectrum_exppoly(growth))
    ok &= trend.verdict == "unboundedTrend"
    ok &= len(sp) == 1 and abs(sp[0] - 1.0) <= 1e-9

    necessity = boundedness_probe(cumulative_P(constant_signal(1.0)),
                                  [100, 1000, 10_000])
    ok &= necessity.verdict == "unboundedTrend"
    report(6, ok, f"sup {sup:.9f} vs closed form {closed:.9f}; unbounded "
                  f"trend with spectrum {{1}}; constant integrand grows")


def test_criterion_7_oracle_root_consistency():
    q = 64
    rng = np.random.default_rng(3)
    mismatches = 0
    for _ in range(50):
        planted = sorted(int(k) for k in
                         rng.choice(q, size=int(rng.integers(1, 5)),
                                    replace=False))
        poly = np.array([1.0 + 0j])
        for k in planted:
            root = cmath.exp(-2j * math.pi * k / q)
            poly = np.convolve(poly, np.array([-root, 1.0]))
        deg = int(rng.integers(0, q - len(planted) - 1))
        noise = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        coeffs = np.convolve(poly, noise)
        f = FinSeq({n: coeffs[n] for n in range(len(coeffs))})

        hull = hull_of_generators([f])
        on_grid = set()
        for t in angles_of(hull):
            k = round(t * q / (2 * math.pi)) % q
            if circle_distance(t, 2 * math.pi * k / q) <= 1e-7:
                on_grid.add(k)
        vals = [complex(f[n]) for n in range(q)]
        dft_zeros = set(range(q)) - spectrum_finite(CyclicSignal(q, vals),
                                                    tol=1e-7)
        if on_grid != dft_zeros:
            mismatches += 1
    report(7, mismatches == 0,
           f"50 sequences: circle-root angles on the grid match the cyclic "
           f"transform zero set within 1e-7 ({mismatches} mismatches)")


def test_verify_all_passes():
    reports = run_suite("all", 0)
    failed = [(r.name, c) for r in reports for c in r.to_json()["checks"] if not c["passed"]]
    assert [r.name for r in reports] == list(SUITE_NAMES[:-1])
    assert all(r.passed for r in reports) and not failed, failed
