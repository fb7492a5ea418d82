import cmath
import math

import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from beurling import spectra
from beurling.diff_calculus import LatticePoly, degree
from beurling.errors import (
    AnnihilationError,
    DecompositionError,
    IdealSaturationError,
    NotPrimaryError,
)
from beurling.finite_oracle import CyclicSignal, spectrum_finite
from beurling.seq_algebra import (
    ANGULAR_TOL,
    CirclePoint,
    FinSeq,
    circle_distance,
    convolve,
    delta,
    difference_seq,
    vanishing_order,
)
from beurling.signals import (
    ExpPoly,
    Geometric,
    TableSignal,
    annihilate,
    constant_signal,
    sample_signal,
)
from beurling.spectra import (
    Empty,
    Finite,
    SpectrumPoint,
    UpperBound,
    angles_of,
    check_calculus_laws,
    classify_primary_ideal,
    decompose_finite_spectrum,
    hull_of_generators,
    polynomial_circle_roots,
    spectrum_exppoly,
    spectrum_upper_bound,
    symbolic_spectrum,
)
from beurling.verify import random_exppoly, roundtrip_gaps


class TestExpPolySpectrum:
    def test_single_polynomial_character(self):
        sp = spectrum_exppoly(ExpPoly([(1.0, (0, 1))]))  # n e^{in}
        assert isinstance(sp, Finite)
        assert angles_of(sp) == pytest.approx((1.0,))
        assert sp.points[0].multiplicity == 2

    def test_nonzero_constant(self):
        sp = spectrum_exppoly(constant_signal(3.0))
        assert angles_of(sp) == (0.0,)

    def test_two_characters(self):
        sp = spectrum_exppoly(ExpPoly([(0.5, (1,)), (1.2, (1,))]))
        assert angles_of(sp) == pytest.approx((0.5, 1.2))

    def test_zero_signal_is_empty(self):
        assert isinstance(spectrum_exppoly(ExpPoly()), Empty)

    def test_geometric_is_empty_with_certificate(self):
        sp = symbolic_spectrum(Geometric(2))
        assert isinstance(sp, Empty)
        assert sp.certificate.min_transform_modulus > 0

    def test_spectrum_never_consults_the_weight(self):
        # signals bounded relative to several admissible weights get the
        # same spectrum: the symbolic and hull pipelines take no weight
        # argument at all, so this is structural, and checked here on a
        # representative instance
        s = ExpPoly([(1.0, (0, 1))])
        assert spectrum_exppoly(s) == spectrum_exppoly(s)

    def test_dft_oracle_agrees_on_long_windows(self):
        # frequencies on the cyclic grid: sampled windows reduce exactly
        q = 64
        ks = (5, 17)
        s = ExpPoly([(2 * math.pi * k / q, (1.0,)) for k in ks])
        vals = [complex(v) for v in
                np.asarray(sample_signal(s, 0, q - 1).values)]
        assert spectrum_finite(CyclicSignal(q, vals)) == set(ks)


class TestCircleRoots:
    def test_simple_root(self):
        roots = polynomial_circle_roots([1, -1])  # 1 - z
        assert len(roots) == 1
        z, mult = roots[0]
        assert mult == 1 and abs(z - 1) <= 1e-12

    def test_triple_root_clusters(self):
        # (1 - z)^3: companion eigenvalues scatter ~1e-5 and must re-merge
        roots = polynomial_circle_roots([1, -3, 3, -1])
        assert len(roots) == 1
        z, mult = roots[0]
        assert mult == 3 and abs(z - 1) <= 1e-9

    def test_off_circle_roots_dropped(self):
        assert polynomial_circle_roots([2, 0, -0.5]) == []  # roots at +-2

    def test_mixed(self):
        # (z - 1)(z - 2): only the unit root survives
        roots = polynomial_circle_roots([2, -3, 1])
        assert len(roots) == 1 and abs(roots[0][0] - 1) <= 1e-12


class TestHull:
    def test_never_vanishing_transform(self):
        hull = hull_of_generators([FinSeq({-1: 2, 1: -0.5})])
        assert isinstance(hull, Empty)
        assert hull.certificate.min_transform_modulus == pytest.approx(2.25)

    def test_simple_difference(self):
        hull = hull_of_generators([delta(0) - delta(1)])
        assert angles_of(hull) == (0.0,)
        assert hull.points[0].multiplicity == 1

    def test_intersection(self):
        # {0} from 1 - e^{-it} intersected with {0, pi} from 1 - e^{-2it}
        hull = hull_of_generators([delta(0) - delta(1), delta(0) - delta(2)])
        assert angles_of(hull) == (0.0,)

    def test_multiplicity_is_min_vanishing_order(self):
        f2 = difference_seq(delta(0), 1, 2)
        f3 = difference_seq(delta(0), 1, 3)
        hull = hull_of_generators([f2, f3])
        assert hull.points[0].multiplicity == 2

    def test_band_roots_of_every_generator_are_common(self):
        # zeros at radius 1 + 5e-9 in both generators: the proposer's root
        # test and a Newton step for the other accept t = 0 and t = pi
        near = FinSeq({0: 1, 2: -(1 + 5e-9)})
        hull = hull_of_generators([near, FinSeq({0: 1, 4: -(1 + 5e-9)})])
        assert angles_of(hull) == pytest.approx((0.0, math.pi))
        assert [p.multiplicity for p in hull.points] == [1, 1]
        assert isinstance(hull_of_generators([near, delta(0) + delta(2)]), Empty)

    @pytest.mark.parametrize("gap, common", [(5e-9, True), (2e-8, False), (1e-7, False)])
    def test_long_generator_zero_off_the_band(self, gap, common):
        # a zero-free factor of span 200 times a zero at radius 1 + gap
        factor = FinSeq({0: 1, 200: 0.5})
        long = convolve(FinSeq({0: 1, 1: -(1 + gap)}), factor)
        hull = hull_of_generators([long, delta(0) - delta(1)])
        assert isinstance(hull, Finite if common else Empty)

    def test_disjoint_roots_give_empty(self):
        # 1 - e^{-it} vanishes at 0 only; e^{it} + 1 pattern at pi only
        hull = hull_of_generators([delta(0) - delta(1), delta(0) + delta(1)])
        assert isinstance(hull, Empty)
        assert hull.certificate.min_transform_modulus > 0

    def test_zero_generator_rejected(self):
        with pytest.raises(ValueError):
            hull_of_generators([FinSeq()])

    def test_oracle_cross_check_planted_roots(self):
        # sequences supported in [0, q) whose transforms vanish exactly at
        # planted grid angles: the circle roots on the grid must match the
        # cyclic-group transform's zero set
        q = 64
        rng = np.random.default_rng(12)
        for _ in range(50):
            planted = sorted(int(k) for k in
                             rng.choice(q, size=int(rng.integers(1, 5)),
                                        replace=False))
            poly = np.array([1.0 + 0j])
            for k in planted:
                root = cmath.exp(-2j * math.pi * k / q)
                poly = np.convolve(poly, np.array([-root, 1.0]))
            rand_deg = int(rng.integers(0, q - len(planted) - 1))
            noise = rng.standard_normal(rand_deg + 1) \
                + 1j * rng.standard_normal(rand_deg + 1)
            coeffs = np.convolve(poly, noise)
            f = FinSeq({n: coeffs[n] for n in range(len(coeffs))})

            hull = hull_of_generators([f])
            on_grid = set()
            for t in angles_of(hull):
                k = round(t * q / (2 * math.pi)) % q
                if circle_distance(t, 2 * math.pi * k / q) <= 1e-7:
                    on_grid.add(k)
            vals = [complex(f[n]) for n in range(q)]
            dft_zeros = set(range(q)) - spectrum_finite(
                CyclicSignal(q, vals), tol=1e-7
            )
            assert on_grid == dft_zeros


class TestUpperBound:
    def test_geometric_samples_empty(self):
        table = sample_signal(Geometric(2), -20, 20)
        result = spectrum_upper_bound(table, [FinSeq({-1: 2, 1: -0.5})])
        assert isinstance(result, Empty)

    def test_constant_samples(self):
        table = sample_signal(constant_signal(1.0), -20, 20)
        result = spectrum_upper_bound(table, [delta(0) - delta(1)])
        assert isinstance(result, UpperBound)
        assert angles_of(result) == (0.0,)

    def test_character_recurrence(self):
        table = sample_signal(ExpPoly([(1.0, (1,))]), -20, 20)
        f = FinSeq({0: 1, 1: -cmath.exp(1j)})
        result = spectrum_upper_bound(table, [f])
        assert isinstance(result, UpperBound)
        assert angles_of(result) == pytest.approx((1.0,))

    def test_root_inside_the_circle_band_is_kept(self):
        # the annihilation verdict and the root band both accept a zero at
        # radius 1 + 5e-9, while vanishing_order's own test reads order 0
        table = TableSignal(0, [1.0] * 40)
        f = FinSeq({0: 1, 1: -(1 + 5e-9)})
        assert annihilate(f, table, 1e-8).is_zero
        assert vanishing_order(f, 0.0) == 0
        result = spectrum_upper_bound(table, [f])
        assert isinstance(result, UpperBound)
        assert result.points == (SpectrumPoint(CirclePoint(0.0), 1),)

    def test_failing_candidate_rejected(self):
        table = sample_signal(constant_signal(1.0), -10, 10)
        with pytest.raises(AnnihilationError):
            spectrum_upper_bound(table, [delta(0) + delta(1)])


class TestPrimaryIdeals:
    @pytest.mark.parametrize("order,expected_k", [(1, 0), (2, 1), (3, 2)])
    def test_vanishing_orders_classify(self, order, expected_k):
        gen = difference_seq(delta(0), 1, order)
        assert classify_primary_ideal([gen], N=2).k == expected_k

    def test_explicit_double_zero(self):
        f = FinSeq({0: 1, 1: -2, 2: 1})  # transform (1 - e^{-it})^2
        assert classify_primary_ideal([f], N=2).k == 1

    def test_unit_is_not_primary(self):
        with pytest.raises(NotPrimaryError):
            classify_primary_ideal([delta(0)], N=2)

    def test_wide_hull_is_not_primary(self):
        with pytest.raises(NotPrimaryError):
            classify_primary_ideal([delta(0) - delta(2)], N=2)

    def test_saturation(self):
        gen = difference_seq(delta(0), 1, 4)
        with pytest.raises(IdealSaturationError):
            classify_primary_ideal([gen], N=2)

    def test_min_order_over_family(self):
        fam = [difference_seq(delta(0), 1, 3), difference_seq(delta(0), 1, 2)]
        assert classify_primary_ideal(fam, N=2).k == 1

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_difference_sequences_land_in_ideal(self, m, k):
        g = difference_seq(delta(0), m, k + 1)
        assert vanishing_order(g, 0.0) >= k + 1

    def test_annihilated_exppoly_is_polynomial_of_matching_degree(self):
        # generators vanishing to order k+1 at 0 kill exactly the signals
        # with single frequency 0 and degree <= k
        for k in (0, 1, 2):
            gens = [difference_seq(delta(0), m, k + 1) for m in (1, 2, 3)]
            good = ExpPoly([(0.0, tuple(range(1, k + 2)))])  # degree k
            assert all(annihilate(g, good).is_zero for g in gens)
            sp = spectrum_exppoly(good)
            assert angles_of(sp) == (0.0,)
            poly = LatticePoly(1, {(j,): c for j, c in
                                   enumerate(good.terms[0].coeffs)})
            assert degree(poly) <= k
            too_deep = ExpPoly([(0.0, (0,) * (k + 1) + (1,))])  # degree k+1
            assert not annihilate(gens[0], too_deep).is_zero
            off_freq = ExpPoly([(0.5, (1,))])
            assert not annihilate(gens[0], off_freq).is_zero


class TestDecompose:
    def test_worked_example(self):
        truth = ExpPoly([(0.5, (3, 1)), (1.2, (2,))])
        rec = decompose_finite_spectrum(sample_signal(truth, -40, 40), 3, 2)
        fgap, cgap = roundtrip_gaps(truth, rec)
        assert fgap <= 1e-8 and cgap <= 1e-6

    def test_constant(self):
        rec = decompose_finite_spectrum(sample_signal(constant_signal(7), -10, 10), 1, 0)
        assert angles_of(spectrum_exppoly(rec)) == (0.0,)
        assert rec.terms[0].coeffs[0] == pytest.approx(7.0)

    def test_pure_square(self):
        truth = ExpPoly([(0.0, (0, 0, 1))])
        rec = decompose_finite_spectrum(sample_signal(truth, -30, 30), 3, 3)
        assert len(rec.terms) == 1
        assert rec.terms[0].freq.t == 0.0
        assert len(rec.terms[0].coeffs) == 3

    def test_zero_signal(self):
        rec = decompose_finite_spectrum(sample_signal(ExpPoly(), -20, 20), 2, 1)
        assert rec.terms == ()

    def test_window_precondition(self):
        with pytest.raises(ValueError):
            decompose_finite_spectrum(sample_signal(constant_signal(1), 0, 5), 2, 2)

    def test_outside_model_class(self):
        table = sample_signal(Geometric(2), -20, 20)
        with pytest.raises(DecompositionError):
            decompose_finite_spectrum(table, 2, 1)

    def test_randomized_round_trips(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            truth = random_exppoly(rng, max_freqs=3, max_degree=2)
            rec = decompose_finite_spectrum(sample_signal(truth, -60, 60), 3, 2)
            fgap, cgap = roundtrip_gaps(truth, rec)
            assert fgap <= 1e-8 and cgap <= 1e-6


# The recovery pipeline as it stood before the design matrix became one
# function: a per-term column builder with a (term, power) layout, a
# Jacobian summed column by column, np.linalg.cond, and a second, full SVD
# at the accepted recurrence order.  The library must reproduce it bit for bit.


def _ref_build(ts, ns, sigma):
    columns, layout = [], []
    for idx, (t, mult) in enumerate(ts):
        char = np.exp(1j * t * ns)
        for j in range(mult):
            columns.append((ns / sigma) ** j * char)
            layout.append((idx, j))
    return np.column_stack(columns), layout


def _ref_recurrence(samples, max_order):
    for r in range(1, max_order + 1):
        if len(samples) - r < r + 1:
            break
        H = np.lib.stride_tricks.sliding_window_view(samples, r + 1)
        svals = np.linalg.svd(H, compute_uv=False)
        if svals[-1] <= spectra.HANKEL_NULL_REL * svals[0]:
            return np.linalg.svd(H)[2][-1].conj()
    raise DecompositionError(f"no annihilating recurrence of order <= {max_order} fits the window")


def _ref_polish(merged, ns, vals, sigma):
    ts = [t for t, _ in merged]
    mults = [m for _, m in merged]
    for _ in range(3):
        A, layout = _ref_build(list(zip(ts, mults)), ns, sigma)
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
        try:
            dt = np.linalg.solve(np.real(J.conj().T @ J), np.real(J.conj().T @ r))
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(dt)) or np.max(np.abs(dt)) > 1e-3:
            break
        ts = [t + float(d) for t, d in zip(ts, dt)]
        if np.max(np.abs(dt)) < 1e-16:
            break
    return list(zip((t % (2 * math.pi) for t in ts), mults))


def _ref_decompose(samples, k_max, n_max, tol):
    vals = samples.values
    h = _ref_recurrence(vals, k_max * (n_max + 1))
    roots = polynomial_circle_roots(h, unimod_tol=1e-6)
    total_mult = sum(m for _, m in roots)
    if total_mult != len(h) - 1:
        raise DecompositionError(
            f"characteristic polynomial has {len(h) - 1 - total_mult} roots off "
            "the unit circle; the samples are outside the model class")
    merged = []
    for z, mult in sorted(roots, key=lambda rm: cmath.phase(rm[0]) % (2 * math.pi)):
        t = cmath.phase(z) % (2 * math.pi)
        if merged and circle_distance(merged[-1][0], t) <= 10 * ANGULAR_TOL:
            merged[-1] = (merged[-1][0], merged[-1][1] + mult)
        else:
            merged.append((t, mult))
    if len(merged) > k_max or any(m - 1 > n_max for _, m in merged):
        raise DecompositionError(
            "recovered structure exceeds the requested frequency or degree "
            f"bounds: {[(t, m - 1) for t, m in merged]}")
    ns = np.arange(samples.start, samples.end + 1)
    sigma = max(1.0, float(np.max(np.abs(ns))))
    merged = _ref_polish(merged, ns, vals, sigma)
    A, layout = _ref_build(merged, ns, sigma)
    cond = float(np.linalg.cond(A))
    if cond > spectra.COND_THRESHOLD:
        raise DecompositionError(f"recovery system condition {cond:.3e} above threshold "
                                 f"{spectra.COND_THRESHOLD:.1e}")
    coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
    residual = float(np.max(np.abs(A @ coef - vals)))
    if residual >= tol:
        raise DecompositionError(f"residual sup {residual:.3e} is not below tolerance {tol:.1e}")
    terms = [(CirclePoint(t), [0j] * mult) for t, mult in merged]
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


def _outcome(decompose, samples):
    try:
        return repr(decompose(samples, 3, 2, 1e-8))
    except DecompositionError as exc:
        return repr(exc)


class TestDesignParity:
    @pytest.mark.parametrize("start, length", [(-60, 121), (-7, 151), (0, 40)])
    def test_design_matches_the_per_term_builder(self, start, length):
        rng = np.random.default_rng(start + length)
        ns = np.arange(start, start + length)
        sigma = max(1.0, float(np.max(np.abs(ns))))
        ts, mults = rng.uniform(0, 2 * math.pi, 3).tolist(), [3, 1, 2]
        want, _ = _ref_build(list(zip(ts, mults)), ns, sigma)
        got = spectra._design(ts, mults, ns, sigma)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_decompose_matches_the_reference_pipeline(self):
        outcomes = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            for _ in range(5):
                samples = sample_signal(random_exppoly(rng, 3, 2), -60, 60)
                want = _outcome(_ref_decompose, samples)
                assert _outcome(decompose_finite_spectrum, samples) == want, seed
                outcomes.append(want)
        assert any(o.startswith("DecompositionError") for o in outcomes)  # errors are compared too

    @pytest.mark.parametrize("amplitude", [1e-3, 0.1, 3.0, 1e3])
    def test_scaled_recovery_matches_the_unscaled_reference(self, amplitude):
        # recovery divides the samples by a power of two near their peak;
        # at ordinary amplitudes that changes no bit of any outcome
        for seed in range(20):
            rng = np.random.default_rng(seed)
            for _ in range(3):
                table = sample_signal(random_exppoly(rng, 3, 2), -60, 60)
                samples = TableSignal(table.start, table.values * amplitude)
                assert _outcome(decompose_finite_spectrum, samples) == _outcome(_ref_decompose, samples), seed


class TestCalculusLaws:
    def test_polynomial_character_laws(self):
        s = ExpPoly([(1.0, (0, 1))])
        aux = ExpPoly([(0.5, (1,))])
        rep = check_calculus_laws(s, aux, CirclePoint(0.7), 1, 2.0)
        assert rep.ok
        assert {c.law for c in rep.checks} == set("abcdef")

    def test_modulation_shift(self):
        s = ExpPoly([(0.5, (1,))])
        rep = check_calculus_laws(s, s, CirclePoint(0.7), 1, 1.0)
        law_d = next(c for c in rep.checks if c.law == "d")
        assert law_d.passed

    def test_zero_signal(self):
        rep = check_calculus_laws(ExpPoly(), ExpPoly(), CirclePoint(0.3), 1, 1.0)
        assert rep.ok

    def test_geometric_laws_partially_applicable(self):
        rep = check_calculus_laws(Geometric(2), Geometric(2), CirclePoint(0.3), 2, 3.0)
        law_d = next(c for c in rep.checks if c.law == "d")
        assert law_d.passed is None  # not representable
        assert rep.ok  # everything applicable passes

    def test_scalar_must_be_nonzero(self):
        with pytest.raises(ValueError):
            check_calculus_laws(ExpPoly(), ExpPoly(), CirclePoint(0.0), 1, 0.0)

    def test_randomized_pairs(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            s = random_exppoly(rng, max_freqs=4, max_degree=3)
            aux = random_exppoly(rng, max_freqs=4, max_degree=3)
            gamma = CirclePoint(float(rng.uniform(0, 2 * math.pi)))
            y = int(rng.integers(1, 4))
            rep = check_calculus_laws(s, aux, gamma, y, 1.5 - 0.5j)
            assert rep.ok, [c for c in rep.checks if c.passed is False]


# ---------------------------------------------------------------------------
# parity with the per-generator intersection the hull used to be built on


def _ref_poly_derivative(coeffs):
    if len(coeffs) <= 1:
        return np.zeros(1, dtype=complex)
    return coeffs[1:] * np.arange(1, len(coeffs))


def _ref_poly_value(coeffs, z):
    acc = 0j
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def _ref_refine_root(coeffs, z0, mult):
    d = coeffs
    for _ in range(mult - 1):
        d = _ref_poly_derivative(d)
    dd = _ref_poly_derivative(d)
    z = z0
    with np.errstate(over="ignore", invalid="ignore"):  # far off the circle: the step is not finite
        for _ in range(8):
            fz = _ref_poly_value(d, z)
            dz = _ref_poly_value(dd, z)
            if dz == 0:
                break
            step = fz / dz
            if not cmath.isfinite(step) or abs(step) > 0.5:
                break
            z -= step
            if abs(step) < 1e-15 * max(1.0, abs(z)):
                break
    return z if abs(z - z0) <= 2 * spectra.ROOT_CLUSTER_RADIUS else z0


def _ref_polished(coeffs):
    """Every cluster centre Newton-polished, with Horner written out; the
    circle filter is left to the caller."""
    c = np.asarray(coeffs, dtype=complex)
    c = c / float(np.max(np.abs(c)))
    nz = np.nonzero(np.abs(c) > 1e-14)[0]
    c = c[nz[0]: nz[-1] + 1]
    if len(c) <= 1:
        return []
    return [(_ref_refine_root(c, center, mult), mult)
            for center, mult in spectra._cluster_roots(np.roots(c[::-1]))]


def _on_circle(polished, unimod_tol=spectra.UNIMODULAR_TOL):
    return [(z, m) for z, m in polished if abs(abs(z) - 1.0) < unimod_tol]


def _assert_same_roots(got, want):
    """Equal as multisets: the same multiplicities, each root within
    ANGULAR_TOL of its partner (the local problems change the last bits)."""
    assert len(got) == len(want), (got, want)
    unmatched = list(got)
    for z, m in want:
        near = [i for i, (w, k) in enumerate(unmatched) if k == m and abs(w - z) <= ANGULAR_TOL]
        assert near, (z, m, got)
        unmatched.pop(near[0])


def _ref_hull(gens, polished):
    """Intersect every generator's root angles within ANGULAR_TOL; returns
    [(t, min vanishing order)], the order before the clamp to 1."""
    common = None
    for f, roots in zip(gens, polished):
        angles = [(-cmath.phase(z)) % (2 * math.pi) for z, _ in _on_circle(roots)]
        common = angles if common is None else [
            t for t in common
            if any(circle_distance(t, u) <= ANGULAR_TOL for u in angles)]
        if not common:
            return []
    return [(t, min(vanishing_order(f, t) for f in gens)) for t in sorted(common)]


def _planted(rng, support, roots):
    """A zero-free factor 1 + sum c_k u^k (sum |c_k| < 1) times the factors
    (delta_0 - r e^{it} delta_1)^m of roots = [(t, m, r), ...]."""
    free = support - sum(m for _, m, _ in roots)
    c = rng.normal(size=free - 1) + 1j * rng.normal(size=free - 1)
    c *= rng.uniform(0.5, 0.9) / np.sum(np.abs(c))
    coeffs = np.concatenate(([1.0 + 0j], c))
    for t, m, r in roots:
        for _ in range(m):
            coeffs = np.convolve(coeffs, [1.0, -r * cmath.exp(1j * t)])
    lo = int(rng.integers(-support, support))
    return FinSeq({lo + i: complex(v) for i, v in enumerate(coeffs)})


def _parity_family(rng, band):
    """1-3 generators, longest first, sharing 0-2 angles (multiplicities
    1-3 each), each with an angle of its own and roots at radius 1 +- 1e-3
    and 1 +- 3e-3, just inside and just past a cluster centre's reach.  With
    ``band`` the shared and own roots sit at radius 1 +- 5e-9, inside the
    root acceptance band but where vanishing_order can read order 0."""
    n_gens = int(rng.integers(1, 4))
    angles = []
    while len(angles) < 2 + 3 * n_gens:
        t = float(rng.uniform(0, 2 * math.pi))
        if all(circle_distance(t, u) >= 0.2 for u in angles):
            angles.append(t)
    radius = (lambda: 1.0 + float(rng.choice([-5e-9, 5e-9]))) if band else (lambda: 1.0)
    shared = [(t, radius()) for t in angles[: int(rng.integers(0, 3))]]
    rest = iter(angles[2:])
    supports = sorted(rng.integers(40, 231, n_gens), reverse=True)
    gens = []
    for support in supports:
        roots = [(t, int(rng.integers(1, 4)), r) for t, r in shared]
        roots.append((next(rest), int(rng.integers(1, 3)), radius()))
        roots.append((next(rest), 1, 1.0 + float(rng.choice([-1e-3, 1e-3]))))
        roots.append((next(rest), 1, 1.0 + float(rng.choice([-3e-3, 3e-3]))))
        gens.append(_planted(rng, int(support), roots))
    return gens


class TestHullParity:
    @pytest.mark.parametrize("band", [False, True])
    def test_matches_per_generator_intersection(self, band):
        order_zero = 0  # points the root band keeps although vanishing_order reads 0
        for seed in range(4):
            rng = np.random.default_rng(seed)
            for _ in range(5):
                gens = _parity_family(rng, band)
                polished = [_ref_polished(f._dense()[1]) for f in gens]
                for f, roots in zip(gens, polished):
                    for tol in (spectra.UNIMODULAR_TOL, 1e-6):
                        _assert_same_roots(polynomial_circle_roots(f._dense()[1], tol),
                                           _on_circle(roots, tol))
                want = _ref_hull(gens, polished)
                order_zero += sum(m == 0 for _, m in want)
                got = hull_of_generators(gens)
                if not want:
                    assert isinstance(got, Empty)
                    continue
                assert isinstance(got, Finite)
                assert [p.multiplicity for p in got.points] == [max(m, 1) for _, m in want]
                for p, (t, _) in zip(got.points, want):
                    assert circle_distance(p.angle.t, t) <= ANGULAR_TOL
        assert (order_zero > 0) == band

    def test_one_root_finding_per_hull(self, monkeypatch):
        calls = []
        real = spectra.polynomial_circle_roots

        def counted(coeffs, *args):
            calls.append(len(coeffs))
            return real(coeffs, *args)

        monkeypatch.setattr(spectra, "polynomial_circle_roots", counted)
        gens = [delta(0) - delta(4), delta(0) - delta(1), delta(0) - delta(2)]
        assert angles_of(hull_of_generators(gens)) == (0.0,)
        assert calls == [2]  # the shortest generator alone


# ---------------------------------------------------------------------------
# the grid test and local problems above LOCAL_ORDER, against the companion
# finder above and against planted roots


J = spectra.LOCAL_ORDER


def _cell_width(support):
    """Cell width h = 2 pi / G of the grid test for this support."""
    return 2 * math.pi / (1 << (spectra.GRID_PER_DEGREE * (support - 1) - 1).bit_length())


def _planted_coeffs(rng, support, roots):
    """Coefficients, low first, of a zero-free factor times factors with a
    root at angle t, radius r, multiplicity m for each (t, m, r) in roots."""
    f = _planted(rng, support, [(-t, m, 1 / r) for t, m, r in roots])
    return f._dense()[1]


def _assert_planted(got, roots, tol=1e-6):
    assert sorted(m for _, m in got) == sorted(m for _, m, _ in roots), got
    for t, m, r in roots:
        assert any(k == m and abs(z - r * cmath.exp(1j * t)) <= tol for z, k in got), (t, m, got)


def _item_2(reason):
    return pytest.mark.xfail(strict=True, reason="ROADMAP item 2: " + reason)


_LOW, _HIGH = 1 - 5e-9, 1 + 5e-9
_SCATTERED = "the triple roots at 1.0 and 1.203 scatter past ROOT_CLUSTER_RADIUS: 2 of the 4 clusters"
_COMPANION_LOSES = "all 3 triple roots come back, the companion finder gives 2"
_POLISH = ("a triple root lands 1.2e-9-1.4e-9 from its planted root, past ANGULAR_TOL "
           "from the companion finder's")
_ITEM_2_EXAMPLES = [
    pytest.param(295, [(1.0, 3, _LOW), (0.5, 3, 1.0), (1.90625, 3, 1.0), (1.203125, 3, 1.0)], 0,
                 marks=_item_2(_SCATTERED), id="295-four-triples"),
    pytest.param(284, [(2.0, 3, _LOW), (2.5, 3, _HIGH), (3.90625, 2, _LOW), (2.203125, 3, _LOW)], 1,
                 marks=_item_2("3 of the 4 clusters, the companion finder 2"), id="284-four-clusters"),
    pytest.param(281, [(3.0, 3, _LOW), (2.5, 3, _LOW), (3.90625, 1, _HIGH), (2.203125, 2, 1.0)], 7,
                 marks=_item_2(_POLISH), id="281-four-clusters"),
    pytest.param(30, [(0.0, 3, 1.0), (0.25, 3, 1.0), (0.5, 3, 1.0)], 0,
                 marks=_item_2(_COMPANION_LOSES), id="30-from-0-r1"),
    pytest.param(30, [(0.0, 3, _LOW), (0.25, 3, _LOW), (0.5, 3, _LOW)], 0, id="30-from-0-inside"),
    pytest.param(30, [(0.0, 3, _HIGH), (0.25, 3, _HIGH), (0.5, 3, _HIGH)], 0,
                 marks=_item_2(_COMPANION_LOSES), id="30-from-0-outside"),
    pytest.param(30, [(1.5, 3, 1.0), (1.75, 3, 1.0), (2.0, 3, 1.0)], 0,
                 marks=_item_2("2 of the 3 clusters, from both finders"), id="30-from-1.5-r1"),
    pytest.param(30, [(1.5, 3, _LOW), (1.75, 3, _LOW), (2.0, 3, _LOW)], 0,
                 marks=_item_2(_COMPANION_LOSES), id="30-from-1.5-inside"),
    pytest.param(30, [(1.5, 3, _HIGH), (1.75, 3, _HIGH), (2.0, 3, _HIGH)], 0,
                 marks=_item_2(_COMPANION_LOSES), id="30-from-1.5-outside"),
    pytest.param(210, [(1.5, 3, _LOW), (1.0, 3, _HIGH), (1.25, 3, _LOW)], 14,
                 marks=_item_2(_COMPANION_LOSES), id="210-three-triples"),
    pytest.param(207, [(1.5, 3, _LOW), (2.0, 3, _LOW), (1.25, 3, _LOW)], 15,
                 marks=_item_2("the triple root at 1.5 lands 5.1e-9 from its planted root, past "
                               "ANGULAR_TOL from the companion finder's"), id="207-three-triples"),
    pytest.param(194, [(0.15194866117357494, 3, _LOW), (0.5285052183405863, 3, _LOW),
                       (6.130604331190337, 3, _LOW)], 724,
                 marks=_item_2("the triple root at 0.152 lands 4.1e-9 from its planted root and "
                               "2e-9 from the companion finder's"), id="194-three-triples"),
    pytest.param(29, [(1.5, 3, 1.0), (1.8311181321428476, 3, 1.0), (2.0789531162854655, 3, 1.0)], 232,
                 marks=_item_2("2 of the 3 clusters from the whole polynomial's companion matrix"),
                 id="29-three-triples"),
] + [
    pytest.param(56, [(0.0, 3, r), (6.0, 3, r), (5.5, 3, r)], 0, marks=_item_2(_POLISH), id=f"56-{name}")
    for name, r in [("r1", 1.0), ("inside", _LOW), ("outside", _HIGH)]
]


class TestLocalCircleRoots:
    @pytest.mark.parametrize("support", [J + 2, 100, 257])
    def test_simple_root_on_a_half_cell(self, support):
        # t = (j + 1/2) h sits on the edge of cells j and j + 1, where one
        # of them can be closed or a piece can end
        rng = np.random.default_rng(support)
        h = _cell_width(support)
        for j in rng.integers(0, int(2 * math.pi / h), 10):
            t = (int(j) + 0.5) * h
            coeffs = _planted_coeffs(rng, support, [(t, 1, 1.0)])
            got = polynomial_circle_roots(coeffs)
            _assert_planted(got, [(t, 1, 1.0)], tol=1e-12)
            _assert_same_roots(got, _on_circle(_ref_polished(coeffs)))

    @pytest.mark.parametrize("support", [J + 2, 60, 100, 200])
    def test_two_roots_in_one_open_run(self, support):
        # a triple root's flat valley opens a long run; a simple root 3.5
        # cells away (more than 2 ROOT_CLUSTER_RADIUS) falls in the same run,
        # and on the grid |F| has no local minimum next to it
        h = _cell_width(support)
        roots = [(100 * h, 3, 1.0), (103.5 * h, 1, 1.0)]
        assert 3.5 * h > 2 * spectra.ROOT_CLUSTER_RADIUS
        coeffs = _planted_coeffs(np.random.default_rng(support), support, roots)
        c = coeffs / np.max(np.abs(coeffs))
        runs = spectra._open_runs(spectra._open_cells(c, spectra.UNIMODULAR_TOL))
        G = round(2 * math.pi / h)
        assert any({100, 103, 104} <= set(run % G) for run in runs)
        # the simple root's position is conditioned by the triple root next
        # to it: both finders can land 1e-8 from it, so planted truth decides
        _assert_planted(polynomial_circle_roots(coeffs), roots)

    @pytest.mark.parametrize("cells", [0.0, 15.5])
    @pytest.mark.parametrize("tol", [spectra.UNIMODULAR_TOL, 1e-2])
    def test_z64_minus_one(self, cells, tol):
        # z^64 = e^{64 i phi}; with phi = 15.5 h every root is on a cut
        # between two pieces, and at tol 1e-2 no cell is closed
        phi = cells * _cell_width(65)
        coeffs = np.zeros(65, dtype=complex)
        coeffs[0], coeffs[64] = -cmath.exp(64j * phi), 1.0
        assert spectra._open_cells(coeffs, tol).all() == (tol > spectra.UNIMODULAR_TOL)
        got = polynomial_circle_roots(coeffs, tol)
        _assert_planted(got, [(phi + 2 * math.pi * k / 64, 1, 1.0) for k in range(64)], tol=1e-12)

    def test_circle_with_no_closed_cell_is_one_run(self):
        runs = spectra._open_runs(np.ones(64, dtype=bool))
        assert [list(r) for r in runs] == [list(range(64))]
        mask = np.zeros(64, dtype=bool)
        mask[[62, 63, 0, 1, 5]] = True
        assert [list(r) for r in spectra._open_runs(mask)] == [[5], [62, 63, 64, 65]]
        assert spectra._open_runs(np.zeros(64, dtype=bool)) == []

    def test_same_roots_at_degree_j_and_j_plus_1(self):
        roots = [(0.5, 2, 1.0), (2.0, 1, 1 + 5e-9), (4.0, 3, 1.0)]
        for support in (J + 1, J + 2):  # the whole polynomial, then local problems
            coeffs = _planted_coeffs(np.random.default_rng(3), support, roots)
            got = polynomial_circle_roots(coeffs)
            _assert_planted(got, roots)
            _assert_same_roots(got, _on_circle(_ref_polished(coeffs)))

    def test_support_1000_round_trip(self):
        roots = [(0.3, 2, 1.0), (1.0, 1, 1.0), (4.0, 2, 1.0)]
        coeffs = _planted_coeffs(np.random.default_rng(1), 1000, roots)
        f = FinSeq({n: complex(v) for n, v in enumerate(coeffs)})
        start = time.perf_counter()
        hull = hull_of_generators([f])
        elapsed = time.perf_counter() - start
        # the transform's variable is u = e^{-it}, so a root at angle t is the point -t
        want = sorted(((-t) % (2 * math.pi), m) for t, m, _ in roots)
        assert angles_of(hull) == pytest.approx([t for t, _ in want], abs=1e-8)
        assert [p.multiplicity for p in hull.points] == [m for _, m in want]
        assert elapsed < 0.3

    def test_three_triple_roots_at_support_47(self):
        # a falsifying example of the companion-finder property below: the
        # companion finder misplaces the root at 6.0 by 1.5e-9, but every
        # cluster found here is within 1e-6 of its planted root
        roots = [(0.0, 3, 1 + 5e-9), (5.75, 3, 1.0), (6.0, 3, 1.0)]
        coeffs = _planted_coeffs(np.random.default_rng(1), 47, roots)
        _assert_planted(polynomial_circle_roots(coeffs), roots)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: two triple roots 0.25 apart at "
                                           "support 30 come back as 2 of the 3 clusters")
    def test_three_triple_roots_at_support_30(self):
        roots = [(0.0, 3, 1.0), (5.75, 3, 1.0), (6.0, 3, 1.0)]
        coeffs = _planted_coeffs(np.random.default_rng(0), 30, roots)
        _assert_planted(polynomial_circle_roots(coeffs), roots)

    @pytest.mark.parametrize("support, roots, seed", _ITEM_2_EXAMPLES)
    def test_recorded_companion_finder_examples(self, support, roots, seed):
        # falsifying examples of the property below, listed under ROADMAP
        # item 2, with the property's two assertions
        coeffs = _planted_coeffs(np.random.default_rng(seed), support, roots)
        got = polynomial_circle_roots(coeffs)
        _assert_same_roots(got, _on_circle(_ref_polished(coeffs)))
        _assert_planted(got, roots)

    @settings(max_examples=40, deadline=None)
    @given(
        support=st.integers(J + 1, 300),
        roots=st.lists(st.tuples(st.floats(0, 2 * math.pi), st.integers(1, 3),
                                 st.sampled_from([1.0, 1 + 5e-9, 1 - 5e-9])),
                       min_size=1, max_size=4),
        seed=st.integers(0, 2 ** 16),
    )
    def test_matches_the_companion_finder(self, support, roots, seed):
        assume(all(circle_distance(a[0], b[0]) >= 0.2
                   for i, a in enumerate(roots) for b in roots[:i]))
        coeffs = _planted_coeffs(np.random.default_rng(seed), support, roots)
        got = polynomial_circle_roots(coeffs)
        _assert_same_roots(got, _on_circle(_ref_polished(coeffs)))
        _assert_planted(got, roots)


# ---------------------------------------------------------------------------
# the third-order cell test and the per-piece Taylor order


def _band(c, tol=spectra.UNIMODULAR_TOL):
    """The level |p| stays above on a closed cell: twice what a root within
    tol of the circle allows, 2 tol sum n |c_n| (1 + tol)^(D - 1)."""
    D = len(c) - 1
    return 2 * float(np.sum(np.arange(D + 1) * np.abs(c))) * tol * (1 + tol) ** (D - 1)


def _fault_shape(t, m, support=128):
    """A zero-free factor times (1 - e^{it} u)^m expanded first, drawn with
    default_rng(m): one generator of the shape whose multiple root defeats
    the hull."""
    rng = np.random.default_rng(m)
    c = rng.normal(size=support - m - 1) + 1j * rng.normal(size=support - m - 1)
    c *= rng.uniform(0.5, 0.9) / np.sum(np.abs(c))
    factor = np.ones(1, dtype=complex)
    for _ in range(m):
        factor = np.convolve(factor, [1.0, -cmath.exp(1j * t)])
    return np.convolve(np.concatenate(([1.0 + 0j], c)), factor)


def _count_eigenproblems(monkeypatch):
    """Record the order of every eigenproblem np.roots or np.linalg.eigvals
    solves from here on, one entry per matrix of a stack."""
    orders = []
    real_eigvals, real_roots = np.linalg.eigvals, np.roots

    def eigvals(a):
        orders.extend([a.shape[-1]] * int(np.prod(a.shape[:-2])))
        return real_eigvals(a)

    def roots(p):
        orders.append(len(np.trim_zeros(np.asarray(p), "f")) - 1)
        return real_roots(p)

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    monkeypatch.setattr(np, "roots", roots)
    return orders


def _record_local_problems(monkeypatch):
    """Record [local, reach, counts] for every _local_roots call from here
    on: its Taylor rows, their reaches and each row's contour count, -1 for
    a row that fell back to its companion matrix."""
    calls = []
    real_roots, real_counts = spectra._local_roots, spectra._contour_counts

    def local_roots(local, reach):
        calls.append([local.copy(), list(reach), None])
        return real_roots(local, reach)

    def contour_counts(scaled):
        sigma, counts = real_counts(scaled)
        calls[-1][2] = counts.tolist()
        return sigma, counts

    monkeypatch.setattr(spectra, "_local_roots", local_roots)
    monkeypatch.setattr(spectra, "_contour_counts", contour_counts)
    return calls


class TestCellTestAndTaylorOrder:
    @settings(max_examples=30, deadline=None)
    @given(
        support=st.integers(30, 400),
        roots=st.lists(st.tuples(st.floats(0, 2 * math.pi), st.integers(1, 6),
                                 st.sampled_from([1 + 5e-9, 1 - 5e-9])),
                       min_size=1, max_size=4),
        seed=st.integers(0, 2 ** 16),
    )
    def test_every_closed_cell_is_root_free(self, support, roots, seed):
        coeffs = _planted_coeffs(np.random.default_rng(seed), support, roots)
        c = coeffs / np.max(np.abs(coeffs))
        open_cells = spectra._open_cells(c, spectra.UNIMODULAR_TOL)
        G = open_cells.size
        h = 2 * math.pi / G
        # |p| at 8 points a cell, both cell edges included, by one FFT
        S = 8
        p = np.abs(np.fft.ifft(c, S * G)) * (S * G)
        closed = np.flatnonzero(~open_cells)
        samples = p[(S * closed[:, None] + np.arange(-S // 2, S // 2 + 1)) % (S * G)]
        assert samples.min(initial=np.inf) > _band(c)
        for t, _, _ in roots:
            assert open_cells[round(t / h) % G]

    @pytest.mark.parametrize("reach", [0.01, 0.05, 0.3, 0.55, 1.0, 1.7, 2.0, 2.29, 2.3, 2.31, 4.0])
    def test_least_order_whose_tail_is_within_the_cap(self, reach):
        K = spectra._taylor_order(reach)
        tail = [reach ** (k + 1) / math.factorial(k + 1) for k in range(J + 1)]
        assert 1 <= K <= J
        if reach <= 2.3:
            assert tail[K] <= spectra._LOCAL_TAIL * (1 + 1e-12)
        assert tail[K - 1] > spectra._LOCAL_TAIL * (1 - 1e-12)
        # the cap binds from the reach where order J's tail reaches _LOCAL_TAIL
        assert K == J or reach < (spectra._LOCAL_TAIL * math.factorial(J + 1)) ** (1 / (J + 1))

    @pytest.mark.parametrize("support", [J + 2, 60, 128, 200, 257])
    def test_every_piece_solves_its_own_order(self, support, monkeypatch):
        # up to degree 256 every piece has D rho <= 2.3, so every order,
        # capped ones included, leaves a tail within _LOCAL_TAIL; a piece
        # with a trusted contour count M solves degree M (nothing for M = 0),
        # one that fell back its Taylor order
        calls = _record_local_problems(monkeypatch)
        orders = _count_eigenproblems(monkeypatch)
        roots = [(0.5, 2, 1.0), (2.0, 1, 1 + 5e-9), (4.0, 5, 1.0)]
        coeffs = _planted_coeffs(np.random.default_rng(support), support, roots)
        polynomial_circle_roots(coeffs)
        reaches = [x for _, reach, _ in calls for x in reach]
        counts = [M for _, _, c in calls for M in c]
        want = [spectra._taylor_order(x) for x in reaches]
        assert sorted(orders) == sorted([M for M in counts if M > 0]
                                        + [K for K, M in zip(want, counts) if M < 0])
        assert all(x <= 2.3 for x in reaches)
        assert all(x ** (K + 1) / math.factorial(K + 1) <= spectra._LOCAL_TAIL * (1 + 1e-12)
                   for x, K in zip(reaches, want))
        assert min(want) < J

    def test_local_roots_match_np_roots_with_a_zero_leading_coefficient(self):
        rng = np.random.default_rng(5)
        local = rng.normal(size=(3, J + 1)) + 1j * rng.normal(size=(3, J + 1))
        reach = [0.3, 0.3, 1.0]
        K = spectra._taylor_order(0.3)
        local[1, K] = 0  # np.roots drops it: one root fewer
        got = spectra._local_roots(local, reach)
        for row, x, v in zip(local, reach, got):
            want = np.roots(row[spectra._taylor_order(x)::-1])
            want = want[np.abs(want) < x]  # only the roots inside the contour come back
            assert len(v) == len(want)
            assert np.allclose(np.sort_complex(v), np.sort_complex(want), rtol=1e-9, atol=1e-12)
        # no root inside, one inside, and five inside with one 3% from the contour
        assert [len(v) for v in got] == [0, 1, 5]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), n_gens=st.integers(1, 2))
    def test_hull_verdicts_match_the_companion_reference(self, seed, n_gens):
        rng = np.random.default_rng(seed)
        angles = []
        while len(angles) < 2 + n_gens:
            t = float(rng.uniform(0, 2 * math.pi))
            if all(circle_distance(t, u) >= 0.2 for u in angles):
                angles.append(t)
        radius = lambda: float(rng.choice([1.0, 1 + 5e-9, 1 - 5e-9]))
        shared = [(t, radius()) for t in angles[: int(rng.integers(0, 3))]]
        gens = [_planted(rng, int(rng.integers(J + 1, 241)),
                         [(t, int(rng.integers(1, 3)), r) for t, r in shared]
                         + [(angles[2 + i], int(rng.integers(1, 3)), radius())])
                for i in range(n_gens)]
        want = _ref_hull(gens, [_ref_polished(f._dense()[1]) for f in gens])
        got = hull_of_generators(gens)
        if not want:
            assert isinstance(got, Empty)
            return
        assert isinstance(got, Finite)
        assert [p.multiplicity for p in got.points] == [max(m, 1) for _, m in want]
        for p, (t, _) in zip(got.points, want):
            assert circle_distance(p.angle.t, t) <= ANGULAR_TOL

    def test_multiple_roots_solve_few_local_eigenproblems(self, monkeypatch):
        # a work count, not a timing: multiplicities 5 and 6 at support 128
        # solved 27 local eigenproblems of orders 23-24 when every piece took
        # its Taylor order, though 25 of them held no root inside their reach;
        # with contour counts they solve orders 5, 5 and 6, and the one piece
        # that falls back its order 23
        calls = _record_local_problems(monkeypatch)
        orders = _count_eigenproblems(monkeypatch)
        for t, m in [(1.0, 5), (2.5, 6)]:
            polynomial_circle_roots(_fault_shape(t, m))
        fell_back = sum(M < 0 for _, _, c in calls for M in c)
        assert fell_back <= 1
        assert len(orders) <= 4
        assert sum(k > 6 for k in orders) <= fell_back
        assert max(orders) <= J

    def test_horner_is_polyval_bit_for_bit(self):
        rng = np.random.default_rng(11)
        c = rng.normal(size=241) + 1j * rng.normal(size=241)
        high_first = c.tolist()[::-1]
        for t in rng.uniform(0, 2 * math.pi, 20):
            z = cmath.exp(1j * t) * (1 + float(rng.normal()) * 1e-3)
            want = P.polyval(np.complex128(z), c)
            got = spectra._horner(high_first, z)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


# ---------------------------------------------------------------------------
# contour counts against the companion matrix of each local problem


def _companion_inside(row, x):
    """Roots of the row's order-K Taylor polynomial, K = _taylor_order(x),
    from its companion matrix, that lie within the reach x."""
    v = np.roots(row[spectra._taylor_order(x)::-1])
    return v[np.abs(v) <= x]


def _cut_problems(support, seed, m, r):
    """Taylor rows, reaches and degree of the two 16-cell pieces that
    _local_circle_roots would build around the cut at (j - 1/2) h, with a
    root of multiplicity m at radius r planted on that cut."""
    h = _cell_width(support)
    G, D = round(2 * math.pi / h), support - 1
    j = int(np.random.default_rng(seed).integers(16, G - 16))
    coeffs = _planted_coeffs(np.random.default_rng(seed), support, [((j - 0.5) * h, m, r)])
    c = coeffs / np.max(np.abs(coeffs))
    reach = [D * (8 * h + h + 2 * spectra.ROOT_CLUSTER_RADIUS)] * 2
    q = np.array([2 * j - 17, 2 * j + 15])  # cells j - 16..j - 1 and j..j + 15
    local, _ = spectra._local_expansions(c, q, G, spectra._taylor_order(reach[0]))
    return local, reach, D


def _local_problems(coeffs, unimod_tol=spectra.UNIMODULAR_TOL):
    """The (local, reach) pairs polynomial_circle_roots hands to _local_roots."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _record_local_problems(monkeypatch)
        polynomial_circle_roots(coeffs, unimod_tol)
    return [(local, reach) for local, reach, _ in calls]


def _contour_corpus():
    """(name, local problems, D, tight): the Taylor rows polynomial_circle_roots
    hands to _local_roots for planted roots of multiplicity 1-6 at radii 1
    and 1 -+ 5e-9, for two pieces cut at a planted root, and for
    z^64 = e^{64 i phi}, phi = 15.5 h, at tol 1e-2, where no cell is closed
    and every root lies on a cut.  tight marks the cases whose clusters are
    well conditioned: multiplicities 1-4."""
    for m in range(1, 7):
        for r in (1.0, 1 - 5e-9, 1 + 5e-9):
            for support in (40, 128, 300):
                coeffs = _planted_coeffs(np.random.default_rng(m), support, [(0.7, m, r), (3.0, 1, 1.0)])
                yield f"m{m}-r{r}-support{support}", _local_problems(coeffs), support - 1, m <= 4
    for m in range(1, 5):
        for r in (1.0, 1 - 5e-9, 1 + 5e-9):
            local, reach, D = _cut_problems(100 + 37 * m, m, m, r)
            yield f"cut-m{m}-r{r}", [(local, reach)], D, True
    coeffs = np.zeros(65, dtype=complex)
    coeffs[0], coeffs[64] = -cmath.exp(64j * 15.5 * _cell_width(65)), 1.0
    yield "z64-on-cuts", _local_problems(coeffs, 1e-2), 64, True


class TestContourRoots:
    @pytest.mark.parametrize("calls, D, tight",
                             [pytest.param(*case, id=name) for name, *case in _contour_corpus()])
    def test_same_roots_as_the_companion_inside_the_reach(self, calls, D, tight):
        # the same count and root sum in every disc, and clusters of the
        # same sizes; their centres agree to rounding where the clusters are
        # well conditioned (measured: 1.4e-15 and 4.3e-13 reach at most)
        for local, reach in calls:
            for row, x, v in zip(local, reach, spectra._local_roots(local, reach)):
                want = _companion_inside(row, x)
                assert len(v) == len(want), x
                assert abs(v.sum() - want.sum()) <= 1e-10 * x
                got_clusters = spectra._cluster_roots(v / D)
                want_clusters = spectra._cluster_roots(want / D)
                assert sorted(k for _, k in got_clusters) == sorted(k for _, k in want_clusters)
                if tight:
                    for z, k in want_clusters:
                        assert any(kk == k and abs(z - w) <= 1e-12 for w, kk in got_clusters), (z, k)

    @pytest.mark.parametrize("radius", [1 - 1e-4, 1 + 1e-4])
    def test_root_next_to_the_contour_falls_back_to_the_companion(self, radius, monkeypatch):
        x = 1.0
        K = spectra._taylor_order(x)
        rng = np.random.default_rng(7)
        v = np.concatenate(([x * radius * cmath.exp(0.4j)],
                            0.4 * np.exp(2j * math.pi * rng.uniform(size=2)),
                            3.0 * np.exp(2j * math.pi * rng.uniform(size=K - 3))))
        local = np.zeros((1, J + 1), dtype=complex)
        local[0, :K + 1] = np.poly(v)[::-1]
        calls = _record_local_problems(monkeypatch)
        (got,) = spectra._local_roots(local, [x])
        assert calls[0][2] == [-1]
        want = _companion_inside(local[0], x)
        assert len(got) == (3 if radius < 1 else 2)
        assert np.array_equal(np.sort_complex(got), np.sort_complex(want))


# ---------------------------------------------------------------------------
# the two-level grid test against the single-level one it replaced


def _ref_open_cells(c, unimod_tol):
    """The single-level grid test: every cell's third-order bound from four
    G-point FFTs."""
    D = len(c) - 1
    G = 1 << (spectra.GRID_PER_DEGREE * D - 1).bit_length()
    h = 2 * math.pi / G
    a = np.abs(c)
    n = np.arange(D + 1) - D / 2
    f0, f1, f2, f3 = (np.abs(np.fft.ifft(c * n ** k, G)) * G for k in range(4))
    lower = (f0 - f1 * h / 2 - f2 * h ** 2 / 8 - f3 * h ** 3 / 48
             - float(np.sum(a * n ** 4)) * h ** 4 / 384)
    growth = math.exp(min((D - 1) * math.log1p(unimod_tol), 700.0))
    band = 2 * float(np.sum(np.arange(D + 1) * a)) * unimod_tol * growth
    return lower <= band + G * np.finfo(float).eps * float(np.sum(a))


def _delta_difference(m):
    """delta_0 - delta_m: all m roots on the circle."""
    c = np.zeros(m + 1, dtype=complex)
    c[0], c[m] = 1.0, -1.0
    return c


def _coarse_edge_roots(support, coarse_cells):
    """Simple roots at (8 J + 4) h, on the edges between coarse cells."""
    h = _cell_width(support)
    return _planted_coeffs(np.random.default_rng(support), support,
                           [((8 * k + 4) * h, 1, 1.0) for k in coarse_cells])


def _grid_corpus():
    rng = np.random.default_rng(21)
    for support in (29, 30, 64, 100, 173, 257, 400, 1000):
        for mults in ((1, 2), (3, 4), (5, 6)):
            angles = [0.4 + 2.1 * i + float(rng.uniform(0, 0.5)) for i in range(len(mults))]
            roots = [(t, m, float(rng.choice([1.0, 1 + 5e-9, 1 - 5e-9]))) for t, m in zip(angles, mults)]
            yield f"planted-{support}-{mults}", _planted_coeffs(rng, support, roots), spectra.UNIMODULAR_TOL
    for support in (60, 128, 257):
        yield f"coarse-edges-{support}", _coarse_edge_roots(support, [3, 40, 41, 97]), spectra.UNIMODULAR_TOL
    for t, m in [(1.0, 5), (2.5, 6)]:
        yield f"fault-{m}", _fault_shape(t, m), spectra.UNIMODULAR_TOL
    yield "z64-1", _delta_difference(64), 1e-2
    for m in (64, 256, 1000):
        yield f"delta-{m}", _delta_difference(m), spectra.UNIMODULAR_TOL


GRID_CORPUS = list(_grid_corpus())


def _count_ffts(monkeypatch):
    """Record (length, transforms) of every np.fft.ifft from here on."""
    calls = []
    real = np.fft.ifft

    def ifft(a, n=None, *args, **kwargs):
        calls.append((n, int(np.prod(np.shape(a)[:-1]))))
        return real(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", ifft)
    return calls


class TestTwoLevelGridTest:
    @pytest.mark.parametrize("name, coeffs, tol", GRID_CORPUS, ids=[case[0] for case in GRID_CORPUS])
    def test_same_mask_as_the_single_level_test(self, name, coeffs, tol, monkeypatch):
        c = coeffs / np.max(np.abs(coeffs))
        want = _ref_open_cells(c, tol)
        assert np.array_equal(spectra._open_cells(c, tol), want)
        # either way of summing the cells the coarse level leaves open; the
        # gather is forced only up to degree 300, where its matrix of terms
        # stays under 10 MB even with every cell open
        monkeypatch.setattr(spectra, "_GATHER_LIMIT", 0)
        assert np.array_equal(spectra._open_cells(c, tol), want)
        if len(c) <= 301:
            monkeypatch.setattr(spectra, "_GATHER_LIMIT", math.inf)
            assert np.array_equal(spectra._open_cells(c, tol), want)

    def test_few_open_cells_run_no_full_length_fft(self, monkeypatch):
        coeffs = _planted_coeffs(np.random.default_rng(4), 200, [(1.0, 2, 1.0), (4.0, 1, 1.0)])
        c = coeffs / np.max(np.abs(coeffs))
        G = round(2 * math.pi / _cell_width(200))
        calls = _count_ffts(monkeypatch)
        assert 0 < spectra._open_cells(c, spectra.UNIMODULAR_TOL).sum() < 32
        assert calls == [(G // 8, 7)]  # the coarse level alone

    def test_all_open_fine_level_costs_no_more_than_full_length_ffts(self, monkeypatch):
        c = _delta_difference(256)
        G = round(2 * math.pi / _cell_width(257))
        calls = _count_ffts(monkeypatch)
        assert spectra._open_cells(c, spectra.UNIMODULAR_TOL).sum() == 256
        coarse, *fine = calls
        assert coarse == (G // 8, 7)
        assert fine and all(n == G // 8 for n, _ in fine)
        assert sum(n * k for n, k in fine) <= 4 * G  # the four G-point FFTs of one level


# ---------------------------------------------------------------------------
# local expansions with exact phases, and Newton on them


def _exact_phase_expansion(c, q, G, K):
    """b_k = z0^-k sum_n C(n, k) D^-k c_n z0^n at z0 = e^{i pi q / G}: each
    phase reduced exactly in integers, each sum correctly rounded."""
    D = len(c) - 1
    out = np.empty((len(q), K + 1), dtype=complex)
    for i, qi in enumerate(int(x) for x in q):
        zn = [cmath.exp(1j * math.pi * (n * qi % (2 * G)) / G) for n in range(D + 1)]
        for k in range(K + 1):
            terms = [math.comb(n, k) / D ** k * c[n] * zn[n] for n in range(k, D + 1)]
            total = complex(math.fsum(x.real for x in terms), math.fsum(x.imag for x in terms))
            out[i, k] = total * cmath.exp(-1j * math.pi * (k * qi % (2 * G)) / G)
    return out


class TestExactPhaseExpansions:
    def test_triple_roots_at_support_173_land_within_1e_10(self):
        roots = [(2.0, 1, 1.0), (3.0, 3, 1.0), (3.25, 3, 1.0)]
        coeffs = _planted_coeffs(np.random.default_rng(0), 173, roots)
        _assert_planted(polynomial_circle_roots(coeffs), roots, tol=1e-10)

    @pytest.mark.parametrize("coherent", [False, True])
    def test_rows_match_exactly_reduced_phases(self, coherent):
        # D = 255, centres near 2 pi and past it (a run across cell 0
        # continues past G - 1); a coherent c, whose terms all add at z0,
        # left 6.7e-14 sum |c| when phases came from the rounded n t0
        D, K = 255, J
        G = round(2 * math.pi / _cell_width(D + 1))
        q = np.array([2 * G - 1, 2 * G - 17, 2 * G + 9, G + 1, 3])
        if coherent:
            c = np.exp(-1j * math.pi / G * (np.arange(D + 1) * q[0] % (2 * G))) * np.linspace(0.5, 1.0, D + 1)
        else:
            rng = np.random.default_rng(2)
            c = rng.normal(size=D + 1) + 1j * rng.normal(size=D + 1)
        local, z0 = spectra._local_expansions(c, q, G, K)
        want = _exact_phase_expansion(c, q, G, K)
        assert np.max(np.abs(local - want)) <= 1e-14 * np.sum(np.abs(c))
        assert np.allclose(z0, [cmath.exp(1j * math.pi * (int(x) % (2 * G)) / G) for x in q], rtol=0, atol=1e-16)
