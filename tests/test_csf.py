import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import erf

import oracle_csf
from vobsim.csf import (
    BartenParams,
    FieldGeometry,
    csf,
    detection_probability,
    low_freq_attenuation,
    optical_mtf,
    pupil_diameter,
    retinal_illuminance,
    temporal_filter,
)
from vobsim.errors import DomainError

# Frozen from tests/oracle_csf.py (mpmath, 50 digits), (u, w, l_avg, x0) -> S.
GOLDEN_S = {
    (4, 0, 150, 64 / 7): 657.83090382318762,
    (0.5, 0, 150, 64 / 7): 216.37873866495101,
    (1, 2, 150, 64 / 7): 398.74358474493815,
    (2, 5, 300, 64 / 7): 577.75341218763687,
    (4, 12.5, 148.5, 64 / 7): 362.38676698974421,
    (8, 0, 100, 10): 433.67365767842842,
    (8, 25, 100, 10): 46.227743205246151,
    (16, 3, 50, 5): 145.88784339637295,
    (30, 30, 500, 20): 3.2796205593970642,
    (60, 60, 1000, 40): 0.0015912781157989049,
    (0.1, 0.1, 0.5, 2): 12.153739188328299,
    (12, 1, 300, 64 / 3): 311.51266616847365,
}


class TestBartenParams:
    def test_defaults(self):
        p = BartenParams()
        assert p.k_crozier == 3.0
        assert p.eta == 0.03
        assert p.phi0 == 3e-8
        assert p.x_max == 12.0
        assert p.n_max == 15.0
        assert p.t_int == 0.1
        assert p.p_photon == 1.285e6
        assert p.sigma0 == 0.5
        assert p.c_ab == 0.08
        assert p.u0 == 7.0
        assert p.n1 == 7.0
        assert p.n2 == 4.0
        assert p.tau10 == 0.032
        assert p.tau20 == 0.018

    @pytest.mark.parametrize("x0, l_avg, message", [
        (0.0, 100.0, "FieldGeometry.x0 must be in (0, 180] deg and its square non-zero, got 0.0"),
        (10.0, -5.0, "FieldGeometry.l_avg must be positive, got -5.0"),
    ], ids=["x0", "l_avg"])
    def test_geometry_validation(self, x0, l_avg, message):
        with pytest.raises(DomainError) as raised:
            FieldGeometry(x0=x0, l_avg=l_avg)
        assert str(raised.value) == message


class TestPupilDiameter:
    def test_neutral_point_is_5mm(self):
        # L * X0^2 = 1600 makes the tanh argument ln(1) = 0.
        assert pupil_diameter(150.0, np.sqrt(1600.0 / 150.0)) == pytest.approx(5.0, abs=1e-12)

    def test_bright_limit_is_2mm(self):
        assert pupil_diameter(1e12, 10.0) == pytest.approx(2.0, abs=1e-6)

    def test_golden(self):
        got = pupil_diameter(150.0, 9.1428)
        want = float(oracle_csf.pupil_diameter(150, "9.1428"))
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(2.969050079923677, rel=1e-12)

    def test_range(self):
        for l_avg in (0.1, 1, 10, 100, 1000):
            for x0 in (0.5, 2, 10, 40):
                assert 2.0 < pupil_diameter(l_avg, x0) < 8.0

    @pytest.mark.parametrize("l_avg, x0, message", [
        (0.0, 10.0, "l_avg must be positive, got 0.0"),
        (100.0, -1.0, "x0 must be positive, got -1.0"),
    ], ids=["l_avg", "x0"])
    def test_domain_errors(self, l_avg, x0, message):
        with pytest.raises(DomainError) as raised:
            pupil_diameter(l_avg, x0)
        assert str(raised.value) == message


class TestRetinalIlluminance:
    def test_golden(self):
        got = retinal_illuminance(100.0, 5.0)
        assert got == pytest.approx(1493.6953590865335, rel=1e-12)
        assert got == pytest.approx(float(oracle_csf.retinal_illuminance(100, 5)), rel=1e-12)

    def test_linear_in_luminance(self):
        assert retinal_illuminance(200.0, 4.0) == pytest.approx(
            2.0 * retinal_illuminance(100.0, 4.0), rel=1e-12
        )

    @pytest.mark.parametrize("l_avg, d_pupil, message", [
        (0.0, 5.0, "l_avg must be positive, got 0.0"),
        (100.0, 9.7, "d_pupil must be in (0, 9) mm, got 9.7"),
        (100.0, -1.0, "d_pupil must be in (0, 9) mm, got -1.0"),
    ], ids=["l_avg", "d_pupil above", "d_pupil below"])
    def test_domain_errors(self, l_avg, d_pupil, message):
        with pytest.raises(DomainError) as raised:
            retinal_illuminance(l_avg, d_pupil)
        assert str(raised.value) == message


class TestSensitivity:
    def test_subterm_anchors(self):
        assert optical_mtf(0.0, 0.01) == 1.0
        assert low_freq_attenuation(0.0) == 1.0
        assert temporal_filter(0.0, 0.02, 7) == 1.0
        assert temporal_filter(0.0, 0.015, 4) == 1.0

    def test_golden_grid(self):
        for (u, w, l_avg, x0), want in GOLDEN_S.items():
            geom = FieldGeometry(x0=x0, l_avg=l_avg)
            assert csf(u, w, geom) == pytest.approx(want, rel=1e-9), (u, w, l_avg, x0)

    def test_live_oracle_agreement(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = rng.uniform(0.05, 50)
            w = rng.uniform(0, 50)
            l_avg = rng.uniform(0.5, 800)
            x0 = rng.uniform(1, 30)
            got = csf(u, w, FieldGeometry(x0=x0, l_avg=l_avg))
            want = float(oracle_csf.sensitivity(u, w, l_avg, x0))
            assert got == pytest.approx(want, rel=1e-9)

    def test_luminance_ordering(self):
        # Higher average luminance gives pointwise higher sensitivity on the
        # sampled range (the reversal below ~1 cyc/deg is outside it).
        u = np.linspace(1.0, 30, 25)
        w = np.linspace(0.0, 30, 25)
        uu, ww = np.meshgrid(u, w)
        lo = csf(uu, ww, FieldGeometry(x0=10.0, l_avg=10.0))
        hi = csf(uu, ww, FieldGeometry(x0=10.0, l_avg=300.0))
        assert np.all(hi > lo)

    def test_stress_grid_finite_nonnegative(self):
        u = np.linspace(0, 60, 13)
        w = np.linspace(0, 60, 13)
        for l_avg in (0.1, 1, 10, 100, 1000):
            for x0 in (0.5, 2, 10, 40):
                uu, ww = np.meshgrid(u, w)
                s = csf(uu, ww, FieldGeometry(x0=x0, l_avg=l_avg))
                assert np.all(np.isfinite(s))
                assert np.all(s >= 0)

    @pytest.mark.parametrize("u, w, message", [
        (-1.0, 0.0, "spatial frequency u must be finite and non-negative"),
        (1.0, -2.0, "temporal frequency w must be finite and non-negative"),
    ], ids=["u", "w"])
    def test_rejects_negative_frequencies(self, u, w, message):
        with pytest.raises(DomainError) as raised:
            csf(u, w, FieldGeometry(x0=10.0, l_avg=100.0))
        assert str(raised.value) == message


class TestDetectionProbability:
    def test_threshold_is_half(self):
        assert detection_probability(0.25, 4.0) == pytest.approx(0.5, abs=1e-15)
        assert detection_probability(1e-3, 1e3) == pytest.approx(0.5, abs=1e-12)

    def test_zero_modulation(self):
        # z = -3; standard normal CDF at -3.
        assert detection_probability(0.0, 100.0) == pytest.approx(
            0.0013498980316300933, rel=1e-10
        )

    def test_saturates_at_one(self):
        assert detection_probability(10.0, 1000.0) == pytest.approx(1.0, abs=1e-15)

    def test_open_interval(self):
        assert 0.0 < detection_probability(0.0, 0.0) < 1.0

    def test_matches_oracle(self):
        for m, s in [(0.1, 5.0), (0.2, 5.0), (0.01, 300.0), (0.5, 1.9)]:
            assert detection_probability(m, s) == pytest.approx(
                float(oracle_csf.detection_probability(m, s)), abs=1e-12
            )

    def test_monotone_grid(self):
        ms = np.linspace(0, 5, 1000)
        p = detection_probability(ms, np.ones_like(ms))
        assert np.all(np.diff(p) >= 0)
        assert np.all(np.diff(p[ms < 3]) > 0)

    @given(
        m=st.floats(0, 10, allow_nan=False),
        s=st.floats(0, 1000, allow_nan=False),
        bump=st.floats(1e-6, 1.0),
    )
    def test_monotone_property(self, m, s, bump):
        base = detection_probability(m, s)
        assert detection_probability(m + bump, s) >= base
        assert detection_probability(m, s + bump) >= base

    def test_rejects_negative_modulation(self):
        with pytest.raises(DomainError):
            detection_probability(-0.1, 5.0)

    @pytest.mark.parametrize("m, s, word", [
        (np.inf, 0.0, "modulation"), (np.inf, 5.0, "modulation"),
        ([0.1, np.inf], 5.0, "modulation"), (0.1, np.inf, "sensitivity"),
    ])
    def test_rejects_infinite_arguments(self, m, s, word):
        # inf * 0 would be a NaN probability.
        with pytest.raises(DomainError, match=f"{word} . must be finite"):
            detection_probability(m, s)

    def test_inputs_untouched_and_scalars_give_float(self):
        m, s = np.linspace(0.0, 1.0, 50), np.linspace(0.0, 20.0, 50)
        m0, s0 = m.copy(), s.copy()
        p = detection_probability(m, s)
        assert np.array_equal(m, m0) and np.array_equal(s, s0)
        assert not np.shares_memory(p, m) and not np.shares_memory(p, s)
        assert np.array_equal(p, 0.5 + 0.5 * erf(3.0 * (m0 * s0 - 1.0) / np.sqrt(2.0)))
        assert type(detection_probability(0.1, 5.0)) is float
        assert type(detection_probability(np.float64(0.1), np.array(5.0))) is float
