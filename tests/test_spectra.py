import cmath
import math

import numpy as np
import pytest

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
        from beurling.signals import weighted_sup
        from beurling.weights import PowerWeight, ProductWeight

        s = ExpPoly([(1.0, (0, 1))])
        w1 = PowerWeight(1)
        w2 = ProductWeight(PowerWeight(1), PowerWeight(0.5))
        assert weighted_sup(s, w1, 200) <= 1.0
        assert weighted_sup(s, w2, 200) <= 1.0
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

            hull = hull_of_generators([f], tol=1e-8)
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
                        assert polynomial_circle_roots(f._dense()[1], tol) == _on_circle(roots, tol)
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
