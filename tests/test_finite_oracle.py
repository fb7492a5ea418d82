import math

import numpy as np
import pytest

from beurling import finite_oracle
from beurling.finite_oracle import (
    MAX_Q,
    MAX_TRIALS,
    CyclicSignal,
    LawFailure,
    convolve_cyclic,
    dft,
    idft,
    law_suite_finite,
    spectrum_finite,
)


def random_cyclic_signal(q, rng, zero_prob=0.5):  # drawn through its transform, as the law suite draws
    return idft(finite_oracle._random_transform(rng, q, zero_prob))


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


def looped_law_suite(q, trials, seed):
    """Reference: the law suite one trial at a time with index sets, on the
    draws the blocked suite makes (same generator calls, block by block)."""
    tol = finite_oracle.SUPPORT_TOL
    block = max(1, finite_oracle.BLOCK_ELEMENTS // q)
    rng = np.random.default_rng(seed)
    failures = []
    for start in range(0, trials, block):
        count = min(block, trials - start)
        phis = np.fft.ifft(finite_oracle._random_transform(rng, (count, q), 0.5), axis=1)
        psis = np.fft.ifft(finite_oracle._random_transform(rng, (count, q), 0.5), axis=1)
        ys = rng.integers(0, q, count)
        ks = finite_oracle._polar(rng, count)
        js = rng.integers(0, q, count)
        ms = rng.integers(1, q, count) if q > 1 else np.ones(count, dtype=int)
        cs = finite_oracle._polar(rng, count)
        for i in range(count):
            trial, phi, psi = start + i, CyclicSignal(q, phis[i]), CyclicSignal(q, psis[i])
            y, k, j, m = int(ys[i]), complex(ks[i]), int(js[i]), int(ms[i])

            def expect(law, ok, detail):
                if not ok:
                    failures.append(LawFailure(law, trial, detail))

            sp_phi = spectrum_finite(phi, tol)
            sp_psi = spectrum_finite(psi, tol)
            sp_a = spectrum_finite(CyclicSignal(q, np.roll(phi.array(), -y)), tol)
            expect("a", sp_a == sp_phi, f"translate by {y}: {sorted(sp_a)} != {sorted(sp_phi)}")
            expect("b", spectrum_finite(CyclicSignal(q, k * phi.array()), tol) == sp_phi,
                   f"scale by {k}")
            sp_c = spectrum_finite(CyclicSignal(q, phi.array() + psi.array()), tol)
            expect("c", sp_c <= (sp_phi | sp_psi), f"sum spectrum {sorted(sp_c)} escapes union")
            chars = np.exp(2j * math.pi * (j * np.arange(q) % q) / q)
            expect("d", spectrum_finite(CyclicSignal(q, chars * phi.array()), tol)
                   == {(k0 + j) % q for k0 in sp_phi}, f"character multiply by {j}")
            diff = CyclicSignal(q, np.roll(phi.array(), -m) - phi.array())
            floor = tol * float(np.max(np.abs(dft(phi))))
            sp_e = spectrum_finite(diff, tol, floor=floor)
            expect("e", sp_e == {k0 for k0 in sp_phi if (k0 * m) % q}, f"difference by {m}")
            expect("e", sp_e <= sp_phi, f"difference by {m} grew")
            expect("f", spectrum_finite(CyclicSignal(q, [cs[i]] * q), tol) == {0},
                   "non-zero constant")
            expect("f", spectrum_finite(CyclicSignal(q, [0] * q), tol) == set(), "zero signal")
    return tuple(failures)


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
            lhs, rhs = np.sum(np.abs(phi.array()) ** 2), np.sum(np.abs(dft(phi)) ** 2) / q
            assert abs(lhs - rhs) <= 1e-9 * max(lhs, rhs)

    def test_validation(self):
        with pytest.raises(ValueError):
            CyclicSignal(3, [1, 2])
        with pytest.raises(ValueError):
            CyclicSignal(5000, [0] * 5000)


class TestCyclicSignal:
    def test_array_is_read_only(self):
        phi = CyclicSignal(4, [1, 2, 3, 4])
        with pytest.raises(ValueError):
            phi.array()[0] = 7
        assert phi.array()[0] == 1

    def test_source_is_copied(self):
        source = np.array([1.0, 2.0, 3.0])
        phi = CyclicSignal(3, source)
        source[0] = 9.0
        assert phi.array().tolist() == [1, 2, 3]

    def test_equality_and_hash_agree(self):
        a = CyclicSignal(3, [1, 2j, 0.0])
        b = CyclicSignal(3, np.array([1, 2j, -0.0]))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != CyclicSignal(3, [1, 2j, 1e-300])
        assert CyclicSignal(1, [0]) != CyclicSignal(2, [0, 0])
        assert a != (1, 2j, 0.0)

    def test_two_dimensional_input_refused(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            CyclicSignal(2, [[1], [2]])


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

    def test_input_validated(self):
        for q, trials in ((0, 1), (MAX_Q + 1, 0), (8, -3)):
            with pytest.raises(ValueError):
                law_suite_finite(q, trials, seed=0)
        empty = law_suite_finite(8, 0, seed=0)
        assert empty.ok and empty.checks == 0

    def test_trial_cap(self, monkeypatch):
        # a stub block keeps the run at the cap cheap; above it nothing is drawn
        counts = []

        def stub_block(rng, q, count):
            counts.append(count)
            return [("a", np.ones(count, dtype=bool), lambda i: "")]

        monkeypatch.setattr(finite_oracle, "_law_block", stub_block)
        with pytest.raises(ValueError, match=str(MAX_TRIALS)):
            law_suite_finite(MAX_Q, MAX_TRIALS + 1, seed=0)
        assert counts == []
        report = law_suite_finite(1, MAX_TRIALS, seed=0)
        assert report.ok and report.trials == sum(counts) == report.checks == MAX_TRIALS

    @pytest.mark.parametrize("q, trials", [
        (1, 20),
        (MAX_Q, 2 * (finite_oracle.BLOCK_ELEMENTS // MAX_Q) + 3),  # three blocks
    ])
    def test_extreme_group_orders(self, q, trials):
        report = law_suite_finite(q, trials, seed=5)
        assert report.ok and report.checks == 8 * trials

    def test_failures_name_law_and_global_trial(self, monkeypatch):
        # above the largest magnitude every support is empty, so only the
        # non-zero constant law fails, and it fails in every trial
        monkeypatch.setattr(finite_oracle, "SUPPORT_TOL", 2.0)
        q = 1024
        trials = 2 * (finite_oracle.BLOCK_ELEMENTS // q) + 5
        report = law_suite_finite(q, trials, seed=7)
        assert report.checks == trials * 8
        assert report.failures == tuple(
            LawFailure("f", t, "non-zero constant") for t in range(trials))

    @pytest.mark.parametrize("tol", [1e-9, 0.3, 0.6, 0.9])
    @pytest.mark.parametrize("q", [1, 2, 7, 64, 1024])
    def test_matches_looped_reference(self, monkeypatch, q, tol):
        # above 1e-9 the tolerance drops transform entries unevenly, so
        # sums and differences break their laws in some trials
        monkeypatch.setattr(finite_oracle, "SUPPORT_TOL", tol)
        monkeypatch.setattr(finite_oracle, "BLOCK_ELEMENTS", 4 * q)  # 4 trials a block
        trials = 14
        report = law_suite_finite(q, trials, seed=q)
        assert report.checks == 8 * trials
        assert report.failures == looped_law_suite(q, trials, seed=q)
        if tol == 1e-9:
            assert report.ok
        if tol == 0.6 and q >= 64:
            assert {f.law for f in report.failures} == {"c", "e"}
            assert max(f.trial for f in report.failures) >= 8

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
