"""The half-spectrum (real FFT) layout of percept against full complex FFTs."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vobsim import percept
from vobsim.errors import DomainError
from vobsim.observer import channelize_spectrum, channelize_stack, make_channels
from vobsim.percept import (
    McSource,
    SpectralStack,
    apply_lf,
    apply_mc,
    apply_pm,
    check_symmetric,
    forward,
    inverse,
)
from vobsim.stackgen import ImageStack, ViewingConditions

even = st.integers(1, 8).map(lambda n: 2 * n)


def _stack(dims, seed):
    # Positive mean, so PM and MC are defined.
    return ImageStack(data=np.random.default_rng(seed).random(dims) * 100 + 1)


@settings(max_examples=40, deadline=None)
@given(dims=st.tuples(even, even, even), seed=st.integers(0, 2**32 - 1))
@example(dims=(4, 6, 2), seed=0)
@example(dims=(2, 2, 2), seed=1)
@example(dims=(8, 4, 16), seed=2)
def test_half_spectrum_matches_full_fft(dims, seed):
    stack = _stack(dims, seed)
    spec = forward(stack)
    assert spec.half.shape == (dims[0], dims[1], dims[2] // 2 + 1)
    want = np.fft.fftn(stack.data)
    assert np.abs(spec.coeffs - want).max() <= 1e-12 * np.abs(want).max()
    # The kt = 0 and nt/2 planes are exactly Hermitian: conjugate pairs and
    # real self-conjugate bins.
    planes = spec.half[:, :, [0, -1]]
    assert np.array_equal(planes, np.conj(np.roll(planes[::-1, ::-1], 1, axis=(0, 1))))

    vc = ViewingConditions()
    outs = {"LF": apply_lf(spec, vc), "PM": apply_pm(spec, vc), "MC": apply_mc(spec, vc, seed=seed)}
    for name, out in outs.items():
        full = np.fft.ifftn(out.coeffs)
        scale = np.abs(full).max()
        assert np.abs(inverse(out) - full.real).max() <= 1e-12 * scale, name
        assert np.abs(full.imag).max() <= 1e-12 * scale, name

    drawn = McSource.of(spec, vc).draw(seed)
    assert np.array_equal(drawn.half, outs["MC"].half)
    assert np.array_equal(inverse(drawn), inverse(outs["MC"]))
    # One uniform per pair, drawn in the order of the pair's smaller full-layout
    # flat index; the DC is always kept.
    flat = np.arange(np.prod(dims)).reshape(dims)
    first = np.minimum(flat, np.roll(flat[::-1, ::-1, ::-1], 1, axis=(0, 1, 2)))
    pairs = np.unique(first)[1:]
    u = np.full(flat.size, -1.0)
    u[pairs] = np.random.default_rng(seed).random(pairs.size)
    p = SpectralStack(half=McSource.of(spec, vc).p + 0j, dims=dims).coeffs.real
    assert np.array_equal(drawn.coeffs != 0, u[first] < p)
    # A draw keeps each pair at unit modulation: PM with p set to the keep mask.
    keep = drawn.half != 0
    with mock.patch.object(percept, "detection_probability", lambda m, s: keep * 1.0):
        assert np.array_equal(inverse(drawn), inverse(apply_pm(spec, vc)))


@settings(max_examples=40, deadline=None)
@given(dims=st.tuples(even, even, even), n_channels=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
@example(dims=(16, 8, 6), n_channels=5, seed=0)
@example(dims=(2, 2, 2), n_channels=1, seed=1)
def test_spectral_features_match_channelized_inverse(dims, n_channels, seed):
    n_channels = min(n_channels, dims[0] * dims[1])  # make_channels allows one per pixel
    spec = forward(_stack(dims, seed))
    channels = make_channels(dims[0], dims[1], n_channels, spread=2.0)
    vc = ViewingConditions()
    for name, out in (("LF", apply_lf(spec, vc)), ("PM", apply_pm(spec, vc)),
                      ("MC", McSource.of(spec, vc).draw(seed))):
        want = channelize_stack(ImageStack(data=inverse(out)), channels)
        got = channelize_spectrum(out, channels)
        assert got.shape == (dims[2], n_channels), name
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


def _hermitian_half(dims, seed):
    return forward(_stack(dims, seed))


@pytest.mark.parametrize("dims", [(8, 8, 8), (6, 4, 2), (4, 8, 16)])
@pytest.mark.parametrize("where", ["kt=0 plane", "kt=nt/2 plane", "self-conjugate bin"])
def test_non_hermitian_half_is_rejected(dims, where):
    spec = _hermitian_half(dims, 3)
    half = spec.half.copy()
    bump = 1e-3 * np.abs(half).max()
    if where == "kt=0 plane":
        half[1, 0, 0] += bump  # its partner (-1, 0, 0) is left alone
    elif where == "kt=nt/2 plane":
        half[0, 1, -1] += 1j * bump
    else:
        half[dims[0] // 2, 0, 0] += 1j * bump  # a Nyquist corner, its own conjugate
    bad = SpectralStack(half=half, dims=dims)
    assert np.abs(np.fft.ifftn(bad.coeffs).imag).max() > 1e-9 * np.abs(np.fft.ifftn(bad.coeffs)).max()
    with pytest.raises(DomainError, match="imaginary"):
        inverse(bad)
    channels = make_channels(dims[0], dims[1], 3, spread=2.0)
    with pytest.raises(DomainError, match="imaginary"):
        channelize_spectrum(bad, channels)


@settings(max_examples=60, deadline=None)
@given(dims=st.tuples(even, even, even), seed=st.integers(0, 2**32 - 1), data=st.data())
@example(dims=(12, 10, 6), seed=0, data=None)  # rfftn leaves rounding noise here
@example(dims=(2, 2, 2), seed=1, data=None)
def test_every_spectrum_is_exactly_symmetric_and_one_ulp_off_is_rejected(dims, seed, data):
    spec = forward(_stack(dims, seed))
    vc = ViewingConditions()
    outs = [spec, apply_lf(spec, vc), apply_pm(spec, vc), apply_mc(spec, vc, seed=seed),
            McSource.of(spec, vc).draw(seed)]
    for out in outs:
        check_symmetric(out)
    if data is None:
        return
    # One ulp on one bin of the kt = 0 or nt/2 plane: either part of a
    # paired bin, or the imaginary part of a self-conjugate bin.
    kx, ky = data.draw(st.integers(0, dims[0] - 1)), data.draw(st.integers(0, dims[1] - 1))
    kt = data.draw(st.sampled_from([0, -1]))
    self_conj = kx % (dims[0] // 2) == 0 and ky % (dims[1] // 2) == 0
    part = "imag" if self_conj else data.draw(st.sampled_from(["real", "imag"]))
    half = data.draw(st.sampled_from(outs)).half.copy()
    values = getattr(half, part)
    toward = data.draw(st.sampled_from([-np.inf, np.inf]))
    values[kx, ky, kt] = np.nextafter(values[kx, ky, kt], toward)
    bad = SpectralStack(half=half, dims=dims)
    with pytest.raises(DomainError, match="imaginary"):
        inverse(bad)
    channels = make_channels(dims[0], dims[1], 2, spread=2.0)
    with pytest.raises(DomainError, match="imaginary"):
        channelize_spectrum(bad, channels)


@pytest.mark.parametrize("factor", [0.01, 0.5, 0.8, 1.25, 2.0, 100.0])
@pytest.mark.parametrize("planes", ["kt=0", "kt=nt/2", "both", "opposite"])
@settings(max_examples=5, deadline=None)
@given(dims=st.tuples(even, even, even), seed=st.integers(0, 2**32 - 1))
def test_residue_check_agrees_with_full_inverse(factor, planes, dims, seed):
    # Noise on the kt = 0 and/or kt = nt/2 planes, scaled so that the
    # imaginary part of ifftn(coeffs) is `factor` * 1e-9 of its largest
    # magnitude: inverse and the channelization of the spectrum reject it at
    # every size.  "opposite" puts the negated kt = 0 noise on the kt = nt/2
    # plane, so the residue vanishes on even slices and doubles on odd ones.
    spec = _hermitian_half(dims, seed)
    rng = np.random.default_rng(seed)
    shape = (dims[0], dims[1], 2)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    noise = {"kt=0": noise * [1, 0], "kt=nt/2": noise * [0, 1], "both": noise,
             "opposite": noise[:, :, :1] * [1, -1]}[planes]

    def perturbed(size):
        half = spec.half.copy()
        half[:, :, [0, -1]] += size * noise
        return SpectralStack(half=half, dims=dims)

    def imag_ratio(s):
        full = np.fft.ifftn(s.coeffs)
        return np.abs(full.imag).max() / np.abs(full).max()

    unit = 1e-9 * np.abs(spec.half).max()
    bad = perturbed(unit * factor * 1e-9 / imag_ratio(perturbed(unit)))
    assert imag_ratio(bad) == pytest.approx(factor * 1e-9, rel=1e-3)
    with pytest.raises(DomainError):
        inverse(bad)
    with pytest.raises(DomainError):
        channelize_spectrum(bad, make_channels(dims[0], dims[1], 2, spread=2.0))


def test_zero_mean_stack_has_no_mean_luminance():
    # The DC of a zero-mean stack is rounding noise of either sign; it must
    # not pass for a positive mean luminance.
    for seed in range(20):
        data = np.random.default_rng(seed).standard_normal((8, 8, 8))
        data -= data.mean()
        assert forward(ImageStack(data=data)).mean_lum == 0.0


def _mirror_symmetric(half):
    """The symmetry test as first written: both planes against their conjugated (-kx, -ky)
    mirror, every bin compared (each pair twice)."""
    planes = half[:, :, [0, -1]]
    return np.array_equal(planes, np.conj(np.roll(planes[::-1, ::-1], 1, axis=(0, 1))))


def _agrees_with_mirror(half, dims):
    bad = SpectralStack(half=half, dims=dims)
    if _mirror_symmetric(half):
        check_symmetric(bad)
    else:
        with pytest.raises(DomainError, match="imaginary"):
            check_symmetric(bad)
    return _mirror_symmetric(half)


@settings(max_examples=300, deadline=None)
@given(dims=st.tuples(even, even, even), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["pair", "self-conjugate imag", "nan", "any"]), data=st.data())
def test_symmetry_check_agrees_with_mirror_expression(dims, seed, kind, data):
    # check_symmetric compares each in-plane pair once through cached indices; it must
    # accept and refuse exactly what the mirrored comparison does, float equality included
    # (NaN fails, -0 equals +0), with one part of one bin of a Hermitian spectrum changed:
    # a bin of the kt = 0 or nt/2 plane, a self-conjugate bin's imaginary part, a NaN
    # anywhere in those planes, or any bin of the half spectrum.
    nx, ny, nt = dims
    half = forward(_stack(dims, seed)).half.copy()
    kt = data.draw(st.sampled_from([0, nt // 2]))
    if kind == "self-conjugate imag":
        kx, ky = data.draw(st.sampled_from([0, nx // 2])), data.draw(st.sampled_from([0, ny // 2]))
    else:
        kx, ky = data.draw(st.integers(0, nx - 1)), data.draw(st.integers(0, ny - 1))
        kt = data.draw(st.integers(0, nt // 2)) if kind == "any" else kt
    part = "imag" if kind == "self-conjugate imag" else data.draw(st.sampled_from(["real", "imag"]))
    old = getattr(half, part)[kx, ky, kt]
    value = np.nan if kind == "nan" else data.draw(
        st.floats(allow_nan=True, allow_infinity=True)
        | st.sampled_from([0.0, -0.0, -old, np.nextafter(old, np.inf)]))
    getattr(half, part)[kx, ky, kt] = value
    _agrees_with_mirror(half, dims)


@pytest.mark.parametrize("dims", [(8, 8, 8), (4, 6, 2), (16, 8, 4)])
@pytest.mark.parametrize("kx, ky, kt, part, value", [
    (1, 0, 0, "real", 1.0),  # a pair bin of the kt = 0 plane, its partner left alone
    (1, 1, -1, "imag", 1.0),  # a pair bin of the kt = nt/2 plane
    (0, 0, -1, "imag", 1.0),  # a self-conjugate bin's imaginary part
    (1, 1, 0, "real", np.nan),  # a NaN on a pair bin
    (0, 0, 0, "real", np.nan),  # a NaN on the DC, its own conjugate
])
def test_symmetry_check_refuses_one_changed_bin(dims, kx, ky, kt, part, value):
    half = forward(_stack(dims, 4)).half.copy()
    kx, ky = kx % dims[0], ky % dims[1]
    getattr(half, part)[kx, ky, kt] += value
    assert not _agrees_with_mirror(half, dims)


@pytest.mark.parametrize("dims", [(8, 8, 8), (16, 8, 4)])
def test_symmetry_check_takes_signed_zeros_as_equal(dims):
    # A self-conjugate bin with imaginary part -0.0, and a pair whose two imaginary parts
    # are both -0.0, are conjugate-symmetric under float equality.
    half = forward(_stack(dims, 5)).half.copy()
    half.imag[dims[0] // 2, 0, 0] = -0.0
    half[1, 0, -1] = half[-1, 0, -1] = complex(half[1, 0, -1].real, 0.0)
    half.imag[1, 0, -1] = half.imag[-1, 0, -1] = -0.0
    assert _agrees_with_mirror(half, dims)
