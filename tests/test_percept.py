import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings, strategies as st

import oracle_csf
from vobsim import observer, percept
from vobsim.csf import FieldGeometry, csf, detection_probability
from vobsim.errors import DegenerateStackError, DimensionMismatchError, DomainError
from vobsim.percept import (
    McSource,
    SpectralStack,
    apply_lf,
    apply_mc,
    apply_pm,
    forward,
    inverse,
    modulation,
    perceive,
    sensitivity,
)
from vobsim.stackgen import ImageStack, ViewingConditions, normalize_to_display


def cosine_stack(dims, k, amplitude, mean, phase=0.0):
    """mean + amplitude * cos(2*pi*(k . n)/N + phase) on an integer grid."""
    nx, ny, nt = dims
    x, y, t = np.indices(dims)
    arg = 2 * np.pi * (k[0] * x / nx + k[1] * y / ny + k[2] * t / nt) + phase
    return ImageStack(data=mean + amplitude * np.cos(arg))


def conj_mirror(coeffs):
    nx, ny, nt = coeffs.shape
    return np.conj(coeffs[(-np.arange(nx)) % nx][:, (-np.arange(ny)) % ny][:, :, (-np.arange(nt)) % nt])



class TestForwardInverse:
    def test_constant_stack_is_dc_only(self):
        stack = ImageStack(data=np.full((8, 8, 8), 4.5))
        spec = forward(stack)
        assert spec.mean_lum == pytest.approx(4.5, rel=1e-12)
        off_dc = spec.coeffs.copy()
        off_dc[0, 0, 0] = 0
        assert np.abs(off_dc).max() < 1e-9

    def test_single_cosine_one_pair(self):
        stack = cosine_stack((8, 8, 8), (0, 0, 2), 1.0, 10.0)
        spec = forward(stack)
        mags = np.abs(spec.coeffs)
        hot = np.argwhere(mags > 1e-6 * mags.max())
        assert sorted(map(tuple, hot)) == [(0, 0, 0), (0, 0, 2), (0, 0, 6)]

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        data = rng.random((16, 16, 8))
        stack = ImageStack(data=data)
        assert np.abs(inverse(forward(stack)) - data).max() < 1e-10

    def test_parseval(self):
        rng = np.random.default_rng(1)
        data = rng.random((16, 16, 8))
        spec = forward(ImageStack(data=data))
        lhs = np.sum(data**2)
        rhs = np.sum(np.abs(spec.coeffs) ** 2) / data.size
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_odd_dims_rejected(self):
        with pytest.raises(DimensionMismatchError):
            forward(ImageStack(data=np.zeros((9, 9, 8))))


class TestModulation:
    def test_two_cosine_effective_contrast(self):
        # The two-cosine excitation between l_max and l_min has modulation
        # (1 - 1/C) / (2 * (1 + 1/C)) at both components, independent of l_max.
        dims = (16, 16, 8)
        for l_max, c in [(300.0, 200.0), (100.0, 200.0), (500.0, 50.0)]:
            l_min = l_max / c
            x, y, t = np.indices(dims)
            cos1 = np.cos(2 * np.pi * (2 * x / 16 + 1 * y / 16 + 1 * t / 8))
            cos2 = np.cos(2 * np.pi * (5 * x / 16 + 3 * y / 16 + 2 * t / 8))
            data = (2 + cos1 + cos2) / 4 * (l_max - l_min) + l_min
            spec = forward(ImageStack(data=data))
            want = (1 - 1 / c) / (2 * (1 + 1 / c))
            assert modulation(spec, (2, 1, 1)) == pytest.approx(want, rel=1e-9)
            assert modulation(spec, (5, 3, 2)) == pytest.approx(want, rel=1e-9)

    def test_pinned_value_at_c200(self):
        assert (1 - 1 / 200) / (2 * (1 + 1 / 200)) == pytest.approx(0.995 / 2.01, rel=1e-12)

    def test_zero_bin(self):
        stack = ImageStack(data=np.full((8, 8, 8), 2.0))
        assert modulation(forward(stack), (1, 2, 3)) == 0.0

    def test_dc_rejected(self):
        spec = forward(ImageStack(data=np.full((8, 8, 8), 2.0)))
        with pytest.raises(DomainError):
            modulation(spec, (0, 0, 0))

    def test_self_conjugate_weight(self):
        # A Nyquist-only cosine: amplitude counted once, not twice.
        stack = cosine_stack((8, 8, 8), (4, 0, 0), 0.5, 10.0)
        spec = forward(stack)
        assert modulation(spec, (4, 0, 0)) == pytest.approx(0.05, rel=1e-9)


def _sensitivity_of(s):
    """A stand-in for ``percept.sensitivity`` that gives ``s`` on every bin."""
    return lambda spec, vc: s


class TestApplyLf:
    def test_identity_with_unit_csf(self, monkeypatch):
        rng = np.random.default_rng(2)
        stack = ImageStack(data=rng.random((8, 8, 8)) + 1.0)
        vc = ViewingConditions()
        spec = forward(stack)
        monkeypatch.setattr(percept, "sensitivity", _sensitivity_of(1.0))
        out = apply_lf(spec, vc)
        assert np.abs(out.coeffs - spec.coeffs).max() < 1e-9 * np.abs(spec.coeffs).max()

    def test_real_output(self):
        rng = np.random.default_rng(3)
        stack = ImageStack(data=rng.random((16, 16, 8)) + 0.5)
        out = perceive(stack, "LF", ViewingConditions())
        assert np.all(np.isreal(out.data))

    def test_single_bin_gain_matches_oracle(self):
        vc = ViewingConditions(ssr=7.0, browse_speed=25.0)
        dims = (64, 64, 32)
        k = (4, 3, 2)
        stack = cosine_stack(dims, k, 5.0, 150.0)
        spec = forward(stack)
        out = apply_lf(spec, vc)
        u = math.hypot(4 / 64 * 7.0, 3 / 64 * 7.0)
        w = 2 / 32 * 25.0
        s = float(oracle_csf.sensitivity(u, w, spec.mean_lum, 64 / 7.0))
        got = np.abs(out.coeffs[k]) / np.abs(spec.coeffs[k])
        assert got == pytest.approx(s, rel=1e-9)


class TestApplyPm:
    def test_threshold_bin_gets_half(self, monkeypatch):
        stack = cosine_stack((8, 8, 8), (1, 0, 0), 1.0, 10.0)
        spec = forward(stack)
        m = modulation(spec, (1, 0, 0))
        monkeypatch.setattr(percept, "sensitivity", _sensitivity_of(1.0 / m))
        out = apply_pm(spec, ViewingConditions())
        assert modulation(out, (1, 0, 0)) == pytest.approx(0.5, rel=1e-9)

    def test_saturation_limits(self, monkeypatch):
        stack = cosine_stack((8, 8, 8), (1, 0, 0), 1.0, 10.0)
        spec = forward(stack)
        monkeypatch.setattr(percept, "sensitivity", _sensitivity_of(1e6))
        strong = apply_pm(spec, ViewingConditions())
        monkeypatch.setattr(percept, "sensitivity", _sensitivity_of(1e-9))
        weak = apply_pm(spec, ViewingConditions())
        assert modulation(strong, (1, 0, 0)) == pytest.approx(1.0, abs=1e-12)
        m_weak = modulation(weak, (1, 0, 0))
        assert 0.0 < m_weak < 0.01

    def test_matches_scalar_loop_reference(self):
        rng = np.random.default_rng(4)
        stack = ImageStack(data=rng.random((8, 8, 8)) * 298.5 + 1.5)
        vc = ViewingConditions()
        out = apply_pm(forward(stack), vc)
        ref = _pm_scalar_reference(stack.data, vc)
        assert np.abs(out.coeffs - ref).max() <= 1e-9 * np.abs(ref).max()


class TestApplyMc:
    def test_keep_all(self):
        rng = np.random.default_rng(5)
        stack = ImageStack(data=rng.random((8, 8, 8)) + 1.0)
        spec = forward(stack)
        out = McSource(1.0, McSource.of(spec, ViewingConditions()).phasor).draw(0)
        canonical = np.abs(out.coeffs).ravel()
        n = spec.coeffs.size
        # every non-DC pair at unit modulation
        for k in [(1, 0, 0), (3, 2, 1), (0, 0, 2)]:
            assert modulation(out, k) == pytest.approx(1.0, rel=1e-12)
        assert out.coeffs[0, 0, 0] == spec.coeffs[0, 0, 0]

    def test_discard_all(self):
        rng = np.random.default_rng(6)
        stack = ImageStack(data=rng.random((8, 8, 8)) + 1.0)
        spec = forward(stack)
        out = McSource(0.0, McSource.of(spec, ViewingConditions()).phasor).draw(0)
        off_dc = out.coeffs.copy()
        off_dc[0, 0, 0] = 0
        assert np.abs(off_dc).max() == 0.0

    def test_requires_seed(self):
        stack = ImageStack(data=np.random.default_rng(7).random((8, 8, 8)) + 1.0)
        with pytest.raises(DomainError):
            apply_mc(forward(stack), ViewingConditions(), None)

    def test_keep_fraction(self):
        stack = cosine_stack((8, 8, 8), (1, 0, 0), 1.0, 10.0)
        spec = forward(stack)
        p_target = 0.3
        source = McSource(p_target, McSource.of(spec, ViewingConditions()).phasor)
        kept = 0
        trials = 10_000
        for i in range(trials):
            out = source.draw(i)
            if np.abs(out.coeffs[1, 0, 0]) > 0:
                kept += 1
        sigma = math.sqrt(p_target * (1 - p_target) / trials)
        assert abs(kept / trials - p_target) < 3 * sigma

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        stack = ImageStack(data=rng.random((16, 16, 8)) * 100 + 1)
        vc = ViewingConditions()
        a = perceive(stack, "MC", vc, mc_seed=123)
        b = perceive(stack, "MC", vc, mc_seed=123)
        c = perceive(stack, "MC", vc, mc_seed=124)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)


class TestPerceive:
    def test_lf_unit_csf_is_identity(self, monkeypatch):
        rng = np.random.default_rng(9)
        stack = ImageStack(data=rng.random((16, 16, 8)) + 1.0)
        monkeypatch.setattr(percept, "sensitivity", _sensitivity_of(1.0))
        out = inverse(apply_lf(forward(stack), ViewingConditions()))
        assert np.abs(out - stack.data).max() < 1e-10

    def test_unknown_method(self):
        stack = ImageStack(data=np.ones((8, 8, 8)))
        with pytest.raises(DomainError):
            perceive(stack, "XX", ViewingConditions())

    @pytest.mark.parametrize("method", ["LF", "PM", "MC"])
    def test_dc_preserved(self, method):
        rng = np.random.default_rng(10)
        stack = ImageStack(data=rng.random((16, 16, 8)) * 298.5 + 1.5)
        out = perceive(stack, method, ViewingConditions(), mc_seed=5)
        assert out.data.mean() == pytest.approx(stack.data.mean(), rel=1e-12)

    @pytest.mark.parametrize("method", ["LF", "PM", "MC"])
    def test_exact_conjugate_symmetry(self, method):
        rng = np.random.default_rng(11)
        stack = ImageStack(data=rng.random((16, 16, 8)) * 100 + 1)
        spec = forward(stack)
        vc = ViewingConditions()
        if method == "LF":
            out = apply_lf(spec, vc)
        elif method == "PM":
            out = apply_pm(spec, vc)
        else:
            out = apply_mc(spec, vc, seed=3)
        assert np.array_equal(out.coeffs, conj_mirror(out.coeffs))

    def test_visit_counter_half_of_bins(self):
        # One MC uniform per conjugate pair; S and p agree on the two bins of
        # every pair that the half spectrum stores twice (kt = 0 and nt/2).
        dims = (16, 16, 8)
        n = 16 * 16 * 8
        assert percept._pair_table(dims)[0] == (n - 8) // 2 + 7
        rng = np.random.default_rng(12)
        spec = forward(ImageStack(data=rng.random(dims) + 1))
        vc = ViewingConditions()
        for per_bin in (sensitivity(spec, vc), McSource.of(spec, vc).p):
            assert per_bin.shape == spec.half.shape
            planes = per_bin[:, :, [0, -1]]
            assert np.array_equal(planes, np.roll(planes[::-1, ::-1], 1, axis=(0, 1)))

    def test_lf_linearity(self, monkeypatch):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((8, 8, 8))
        y = rng.standard_normal((8, 8, 8))
        x -= x.mean()
        y -= y.mean()
        vc = ViewingConditions()
        # x and y have zero mean, so S is that of a uniform 150 cd/m^2 field.
        s = sensitivity(forward(ImageStack(data=np.full((8, 8, 8), 150.0))), vc)
        monkeypatch.setattr(percept, "sensitivity", _sensitivity_of(s))

        def lf(data):
            spec = forward(ImageStack(data=data))
            return inverse(apply_lf(spec, vc))

        combined = lf(2.0 * x + 3.0 * y)
        separate = 2.0 * lf(x) + 3.0 * lf(y)
        assert np.abs(combined - separate).max() < 1e-9 * max(1.0, np.abs(separate).max())

    def test_pm_nonlinearity_witness(self):
        rng = np.random.default_rng(14)
        base = rng.random((8, 8, 8)) + 1.0
        vc = ViewingConditions()
        one = perceive(ImageStack(data=base), "PM", vc).data
        two = perceive(ImageStack(data=2.0 * base), "PM", vc).data
        assert np.abs(two - 2.0 * one).max() > 1e-6 * np.abs(two).max()

    def test_pm_mc_need_positive_mean(self, monkeypatch):
        data = np.random.default_rng(15).standard_normal((8, 8, 8))
        data -= data.mean()
        spec = forward(ImageStack(data=data))
        monkeypatch.setattr(percept, "sensitivity", _sensitivity_of(1.0))
        with pytest.raises(DegenerateStackError):
            apply_pm(spec, ViewingConditions())


class TestSensitivity:
    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.tuples(*[st.integers(2, 20).map(lambda n: 2 * n)] * 3),
        ssr=st.floats(0.5, 600.0),
        browse_speed=st.floats(0.5, 4000.0),
        l_avg=st.floats(0.1, 1000.0),
    )
    @example(dims=(8, 8, 8), ssr=7.0, browse_speed=25.0, l_avg=150.0)
    def test_table_equals_per_bin_csf(self, dims, ssr, browse_speed, l_avg):
        vc = ViewingConditions(ssr=ssr, browse_speed=browse_speed)
        spec = SpectralStack(half=np.zeros(dims, dtype=complex), dims=dims, mean_lum=l_avg)
        assert np.array_equal(sensitivity(spec, vc), _per_bin_csf(dims, vc, l_avg))

    def test_cache_follows_viewing_point(self):
        # The frequency tables are cached per (dims, ssr, browse_speed):
        # A, then B, then A again must each match a per-bin evaluation.
        dims = (16, 16, 8)
        spec = SpectralStack(half=np.zeros(dims, dtype=complex), dims=dims, mean_lum=120.0)
        a, b = ViewingConditions(), ViewingConditions(ssr=30.0, browse_speed=200.0)
        for vc in (a, b, a):
            assert np.array_equal(sensitivity(spec, vc), _per_bin_csf(dims, vc, 120.0))

    def test_cached_tables_are_read_only(self):
        dims = (16, 16, 8)
        sensitivity(SpectralStack(np.zeros(dims, dtype=complex), dims, 120.0), ViewingConditions())
        tables = [*percept._frequency_table(dims, 7.0, 25.0), *percept._pair_table(dims)]
        arrays = [t for t in tables if isinstance(t, np.ndarray)]
        assert len(arrays) == 5
        for table in arrays:
            with pytest.raises(ValueError):
                table[...] = 0


def _per_bin_csf(dims, vc, l_avg):
    """S on every bin of the half spectrum (rfftn layout), bin by bin."""
    nx, ny, nt = dims
    kx, ky, kt = np.indices((nx, ny, nt // 2 + 1))

    def folded(k, n, rate):
        # |signed DFT frequency|: index n - k is -k, and the Nyquist index n/2 stays n/2.
        return np.abs((k + n // 2) % n - n // 2) / n * rate

    u = np.sqrt(folded(kx, nx, vc.ssr) ** 2 + folded(ky, ny, vc.ssr) ** 2)
    w = folded(kt, nt, vc.browse_speed)
    return csf(u, w, FieldGeometry(x0=nx / vc.ssr, l_avg=l_avg))


class TestPerceivedLayout:
    @pytest.mark.parametrize("method", ["LF", "PM", "MC"])
    def test_contiguous_owned_float64(self, method):
        rng = np.random.default_rng(16)
        stack = ImageStack(data=rng.random((16, 16, 8)) * 100 + 1)
        data = perceive(stack, method, ViewingConditions(), mc_seed=1).data
        assert data.dtype == np.float64
        assert data.flags.c_contiguous and data.flags.owndata

    def test_mc_source_draw_matches_perceive(self):
        # The sweep draws each reader from one McSource per stack; the
        # result must equal perceiving the stack with the same seed.
        rng = np.random.default_rng(17)
        stack = ImageStack(data=rng.random((16, 16, 8)) * 100 + 1)
        vc = ViewingConditions()
        source = McSource.of(forward(stack), vc)
        for seed in ([3, 0, 1, 2], 99):
            want = perceive(stack, "MC", vc, mc_seed=seed).data
            assert np.array_equal(inverse(source.draw(seed)), want)


def _bits(a):
    """The bytes of a float or complex array as uint64 words: equal means bit-identical."""
    return np.ascontiguousarray(a).view(np.uint64)


def _plain_sensitivity(spec, vc):
    """S as one CSF table over (distinct |u|, w) and an elementwise gather of flat indices."""
    nx, ny, nt = spec.dims
    u1 = np.minimum(np.arange(nx), nx - np.arange(nx)) / nx * vc.ssr
    u2 = np.minimum(np.arange(ny), ny - np.arange(ny)) / ny * vc.ssr
    u, iu = np.unique(np.sqrt(u1[:, None] ** 2 + u2[None, :] ** 2), return_inverse=True)
    w = np.arange(nt // 2 + 1) / nt * vc.browse_speed
    flat = iu.reshape(nx, ny, 1) * w.size + np.arange(w.size)
    geom = FieldGeometry(x0=nx / vc.ssr, l_avg=spec.mean_lum)
    return csf(u[:, None], w[None, :], geom).take(flat)


def _plain_polar(spec):
    """m, the full-size unit-modulation scale array and the phase, one array each."""
    n, c = math.prod(spec.dims), spec.half
    scale = np.full(c.shape, n * spec.mean_lum / 2.0)
    scale[tuple(slice(None, None, k // 2) for k in spec.dims)] = n * spec.mean_lum
    m = np.abs(c)
    phase = np.divide(c, m, out=np.ones_like(c), where=m > 0)
    return m / scale, scale, phase


def _with_dc(spec, half):
    half[0, 0, 0] = spec.half[0, 0, 0]
    return half


class TestKernelsBitIdentical:
    """The per-stack kernels equal the plain full-size expressions bit for bit, signed
    zeros included, on random stacks and on cosine stacks (whose spectra hold exact zeros)."""

    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.sampled_from([(8, 8, 8), (16, 16, 8), (8, 8, 16)]),
        vc=st.sampled_from([ViewingConditions(), ViewingConditions(contrast=800.0, ssr=30.0,
                                                                   browse_speed=800.0)]),
        cosine=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernels_match_plain_expressions(self, dims, vc, cosine, seed):
        rng = np.random.default_rng(seed)
        if cosine:
            k = tuple(int(rng.integers(0, n)) for n in dims)
            stack = cosine_stack(dims, k, amplitude=float(rng.uniform(0, 50)),
                                 mean=float(rng.uniform(60, 200)), phase=float(rng.uniform(0, 7)))
        else:
            stack = normalize_to_display(ImageStack(data=rng.random(dims)), vc)
        spec = forward(stack)
        s = _plain_sensitivity(spec, vc)
        m, scale, phase = _plain_polar(spec)
        p = detection_probability(m, s)
        assert np.array_equal(_bits(sensitivity(spec, vc)), _bits(s))
        assert np.array_equal(_bits(apply_lf(spec, vc).half), _bits(_with_dc(spec, spec.half * s)))
        assert np.array_equal(_bits(apply_pm(spec, vc).half),
                              _bits(_with_dc(spec, p * scale * phase)))
        source = McSource.of(spec, vc)
        phasor = _with_dc(spec, scale * phase)
        assert np.array_equal(_bits(source.p), _bits(p))
        assert np.array_equal(_bits(source.phasor.half), _bits(phasor))
        n_pairs, rank = percept._pair_table(dims)[:2]
        u = np.empty(n_pairs + 1)
        u[0] = -1.0
        np.random.default_rng(seed).random(out=u[1:])
        drawn = np.where(u[rank] < p, phasor, 0)
        assert np.array_equal(_bits(source.draw(seed).half), _bits(drawn))
        nx, ny, nt = dims
        channels = observer.make_channels(nx, ny, 5, spread=3.0)
        spectral = channels.spectral
        plain = np.conj(scipy.fft.fft2(channels.matrix.T.reshape(-1, nx, ny))).reshape(5, -1)
        assert np.array_equal(_bits(spectral), _bits(plain / (nx * ny)))
        for half in (spec.half, drawn):
            got = observer.channelize_spectrum(replace(spec, half=half), channels)
            want = scipy.fft.irfft(spectral @ half.reshape(nx * ny, -1), n=nt, axis=1).T
            assert np.array_equal(_bits(got), _bits(want))


def _pm_scalar_reference(data, vc):
    """Independent scalar-loop probability-map reference (no shared library code)."""
    nx, ny, nt = data.shape
    coeffs = np.fft.fftn(data)
    n = nx * ny * nt
    l_bar = coeffs[0, 0, 0].real / n
    x0 = nx / vc.ssr
    out = np.zeros_like(coeffs)
    out[0, 0, 0] = coeffs[0, 0, 0]
    done = np.zeros(data.shape, dtype=bool)
    done[0, 0, 0] = True
    for kx in range(nx):
        for ky in range(ny):
            for kt in range(nt):
                if done[kx, ky, kt]:
                    continue
                px, py, pt = (-kx) % nx, (-ky) % ny, (-kt) % nt
                self_pair = (px, py, pt) == (kx, ky, kt)
                u = math.hypot(min(kx, nx - kx) / nx * vc.ssr, min(ky, ny - ky) / ny * vc.ssr)
                w = min(kt, nt - kt) / nt * vc.browse_speed
                s = _scalar_sensitivity(u, w, l_bar, x0)
                c = coeffs[kx, ky, kt]
                amp = abs(c)
                scale = n * l_bar if self_pair else n * l_bar / 2.0
                m = amp / scale
                z = 3.0 * (m * s - 1.0)
                p = 0.5 + 0.5 * math.erf(z / math.sqrt(2.0))
                if self_pair:
                    sign = -1.0 if c.real < 0 else 1.0
                    out[kx, ky, kt] = p * scale * sign
                else:
                    phase = c / amp if amp > 0 else 1.0
                    out[kx, ky, kt] = p * scale * phase
                    out[px, py, pt] = np.conj(out[kx, ky, kt])
                done[kx, ky, kt] = True
                done[px, py, pt] = True
    return out


def _scalar_sensitivity(u, w, l_avg, x0):
    d = 5.0 - 3.0 * math.tanh(0.4 * math.log(l_avg * x0 * x0 / 1600.0))
    e = (math.pi * d * d * l_avg / 4.0) * (1.0 - (d / 9.7) ** 2 + (d / 12.4) ** 4)
    big_d = 2.0 * x0 / math.sqrt(math.pi)
    tau1 = 0.032 / (1.0 + 0.55 * math.log(1.0 + (1.0 + big_d) ** 0.6 * e / 3.5))
    tau2 = 0.018 / (1.0 + 0.37 * math.log(1.0 + (1.0 + big_d / 3.2) ** 5 * e / 120.0))
    sigma = math.sqrt(0.25 + (0.08 * d) ** 2) / 60.0
    m_opt = math.exp(-2.0 * (math.pi * sigma * u) ** 2)
    f_u = 1.0 - math.sqrt(1.0 - math.exp(-((u / 7.0) ** 2)))
    h1 = (1.0 + (2.0 * math.pi * tau1 * w) ** 2) ** (-3.5)
    h2 = (1.0 + (2.0 * math.pi * tau2 * w) ** 2) ** (-2.0)
    gain = h1 * (1.0 - h2 * f_u)
    if gain == 0.0:
        return 0.0
    noise = 1.0 / (0.03 * 1.285e6 * e) + 3e-8 / (gain * gain)
    band = 20.0 * (1.0 / (x0 * x0) + 1.0 / 144.0 + u * u / 225.0)
    return m_opt / (3.0 * math.sqrt(band * noise))
