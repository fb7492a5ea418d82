import math

import numpy as np
import pytest

from beurling.finite_oracle import (
    CyclicSignal,
    convolve_cyclic,
    dft,
    idft,
    law_suite_finite,
    parseval_gap,
    random_cyclic_signal,
    spectrum_finite,
)


def direct_dft(x):
    """Reference: hat(k) = sum_n x(n) e^{-2 pi i k n / q} as an O(q^2) sum."""
    q = len(x)
    n = np.arange(q)
    return np.exp(-2j * math.pi * np.outer(n, n) / q) @ x


def direct_idft(hat):
    """Reference: x(n) = (1/q) sum_k hat(k) e^{+2 pi i k n / q}."""
    q = len(hat)
    n = np.arange(q)
    return np.exp(2j * math.pi * np.outer(n, n) / q) @ hat / q


class TestDft:
    @pytest.mark.parametrize("q", [1, 2, 3, 7, 64, 100, 255, 256])
    def test_matches_direct_sum(self, q):
        rng = np.random.default_rng(q)
        x = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        tol = 1e-12 * np.sum(np.abs(x))
        assert np.max(np.abs(dft(CyclicSignal(q, x)) - direct_dft(x))) <= tol
        assert np.max(np.abs(idft(x).array() - direct_idft(x))) <= tol

    def test_constant(self):
        hat = dft(CyclicSignal(4, [1, 1, 1, 1]))
        assert np.allclose(hat, [4, 0, 0, 0])

    def test_alternating(self):
        hat = dft(CyclicSignal(4, [1, -1, 1, -1]))
        assert np.allclose(hat, [0, 0, 4, 0])

    def test_two_point(self):
        assert np.allclose(dft(CyclicSignal(2, [1, 0])), [1, 1])

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(5)
        phi = CyclicSignal(16, rng.standard_normal(16) + 1j * rng.standard_normal(16))
        back = idft(dft(phi))
        assert np.max(np.abs(back.array() - phi.array())) <= 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(6)
        for q in (3, 8, 33, 128):
            phi = CyclicSignal(q, rng.standard_normal(q) + 1j * rng.standard_normal(q))
            assert parseval_gap(phi) <= 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            CyclicSignal(3, [1, 2])
        with pytest.raises(ValueError):
            CyclicSignal(5000, [0] * 5000)


class TestSpectrumFinite:
    def test_constant_spectrum(self):
        assert spectrum_finite(CyclicSignal(8, [2.5] * 8)) == {0}

    def test_zero_signal(self):
        assert spectrum_finite(CyclicSignal(8, [0] * 8)) == frozenset()

    def test_two_characters(self):
        q = 6
        ns = np.arange(q)
        vals = np.exp(2j * math.pi * ns / q) + np.exp(2j * math.pi * 2 * ns / q)
        assert spectrum_finite(CyclicSignal(q, vals)) == {1, 2}

    def test_floor_suppresses_noise(self):
        noise = CyclicSignal(8, 1e-16 * np.ones(8))
        assert spectrum_finite(noise, floor=1e-9) == frozenset()


class TestConvolution:
    def test_transform_multiplies(self):
        rng = np.random.default_rng(9)
        q = 12
        f = CyclicSignal(q, rng.standard_normal(q) + 1j * rng.standard_normal(q))
        g = CyclicSignal(q, rng.standard_normal(q) + 1j * rng.standard_normal(q))
        lhs = dft(convolve_cyclic(f, g))
        rhs = dft(f) * dft(g)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.max(np.abs(rhs))

    def test_support_intersects(self):
        rng = np.random.default_rng(10)
        q = 16
        for _ in range(20):
            f = random_cyclic_signal(q, rng)
            g = random_cyclic_signal(q, rng)
            sp = spectrum_finite(convolve_cyclic(f, g))
            assert sp <= (spectrum_finite(f) & spectrum_finite(g))


class TestLawSuite:
    def test_all_laws_pass(self):
        report = law_suite_finite(8, 100, seed=1)
        assert report.ok and report.checks == 100 * 8

    def test_various_group_orders(self):
        for q in (2, 3, 16, 64):
            assert law_suite_finite(q, 25, seed=2).ok

    def test_deterministic_given_seed(self):
        a = law_suite_finite(8, 10, seed=3)
        b = law_suite_finite(8, 10, seed=3)
        assert a == b

    def test_modulation_rotates_support(self):
        q = 8
        rng = np.random.default_rng(4)
        phi = random_cyclic_signal(q, rng)
        sp = spectrum_finite(phi)
        ns = np.arange(q)
        rotated = CyclicSignal(q, np.exp(2j * math.pi * 3 * ns / q) * phi.array())
        assert spectrum_finite(rotated) == {(k + 3) % q for k in sp}

    def test_difference_by_half_period(self):
        q = 8
        rng = np.random.default_rng(8)
        phi = random_cyclic_signal(q, rng, zero_prob=0.3)
        sp = spectrum_finite(phi)
        diff = CyclicSignal(q, np.roll(phi.array(), -q // 2) - phi.array())
        floor = 1e-9 * float(np.max(np.abs(dft(phi))))
        # step q/2 kills exactly the even-index characters
        expected = {k for k in sp if (k * (q // 2)) % q != 0}
        assert spectrum_finite(diff, floor=floor) == expected
