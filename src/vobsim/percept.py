"""Frequency-domain perception of a displayed stack.

A displayed stack is taken to the spatiotemporal frequency domain with a 3D
real FFT, each component is reweighted by one of three methods, and the
result is inverse-transformed:

* LF  -- linear filtering: each component is multiplied by the contrast
  sensitivity S at its frequency.
* PM  -- probability map: each component's modulation is replaced by its
  detection probability p, phase preserved.
* MC  -- Monte Carlo: each component is kept (at unit modulation) with
  probability p or zeroed, one draw per conjugate pair.

Because the input is real, coefficients come in conjugate pairs and only the
half spectrum is stored (``scipy.fft.rfftn`` layout: 1.1 MB, not 2.1 MB, at
64x64x32).  Only its kt = 0 and kt = nt/2 planes hold both bins of a pair or
a self-conjugate bin; ``forward`` makes them exactly Hermitian.  Every
per-bin array (S, m, phase, p, the MC keep mask) has the half spectrum's
shape and the methods are elementwise on it, so every spectrum the program
makes is exactly conjugate-symmetric, with the DC (mean luminance) passed
through untouched.  ``inverse`` and ``observer.channelize_spectrum`` reject
any other spectrum (``check_symmetric``).

PM and MC both start from p: one pass over the half spectrum yields each
bin's modulation m (which p needs), its unit-modulation scale and its
phase; PM scales the bin to p and MC keeps it with probability p, one draw
per conjugate pair.  The field's apparent size comes from the pixel count
and sampling rate (orthogonal viewing) and its luminance from the stack's
mean, with the default Barten constants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import prod

import numpy as np
import scipy.fft

from .csf import FieldGeometry, csf, detection_probability
from .errors import DegenerateStackError, DimensionMismatchError, DomainError
from .stackgen import ImageStack, ViewingConditions

__all__ = [
    "SpectralStack",
    "METHODS",
    "forward",
    "inverse",
    "check_symmetric",
    "modulation",
    "sensitivity",
    "McSource",
    "apply_lf",
    "apply_pm",
    "apply_mc",
    "perceive",
]

METHODS = ("LF", "PM", "MC")


@dataclass
class SpectralStack:
    """Half 3D spectrum of a real stack (rfftn layout), plus its mean luminance (DC / N)."""

    half: np.ndarray
    dims: tuple[int, int, int]
    mean_lum: float

    @property
    def coeffs(self) -> np.ndarray:
        """The full spectrum in ``np.fft.fftn`` layout, mirrored from ``half``."""
        upper = np.conj(_mirror_xy(self.half)[:, :, self.dims[2] // 2 - 1:0:-1])
        return np.concatenate([self.half, upper], axis=2)


def _mirror_xy(a: np.ndarray) -> np.ndarray:
    # b[kx, ky] = a[-kx mod nx, -ky mod ny]
    return np.roll(a[::-1, ::-1], 1, axis=(0, 1))


@lru_cache(maxsize=8)
def _pair_table(dims: tuple[int, int, int]):
    """The conjugate pairs of the half spectrum.

    Returns (n_pairs, rank, self_conj, later): rank numbers each bin's pair by
    the smaller full-layout flat index of its two bins (0 for the DC, 1 to
    n_pairs for the others); self_conj indexes the self-conjugate bins; later
    marks the (kx, ky) of the kt = 0 and nt/2 planes whose partner in the same
    plane comes first.
    """
    nx, ny, nt = dims
    kx, ky, kt = np.indices((nx, ny, nt // 2 + 1))
    flat = (kx * ny + ky) * nt + kt
    partner = (((-kx) % nx) * ny + (-ky) % ny) * nt + (-kt) % nt
    pairs, rank = np.unique(np.minimum(flat, partner).ravel(), return_inverse=True)
    rank, later = rank.reshape(flat.shape), flat[:, :, 0] > partner[:, :, 0]
    rank.flags.writeable = later.flags.writeable = False
    return pairs.size - 1, rank, tuple(slice(None, None, n // 2) for n in dims), later


def forward(stack: ImageStack) -> SpectralStack:
    """3D FFT of a real stack.  Dimensions must be even and every bin finite.

    In the kt = 0 and nt/2 planes, each bin whose partner comes first becomes
    the exact conjugate of that partner and each self-conjugate bin becomes
    real, so that elementwise maths on the half spectrum keeps it Hermitian.
    """
    data = stack.data
    if any(n % 2 for n in data.shape):
        raise DimensionMismatchError(f"stack dimensions must be even, got {data.shape}")
    n, peak = prod(data.shape), float(max(data.max(), -data.min()))
    if not n * peak < np.finfo(float).max:  # bounds every bin; NaN compares false
        raise DomainError(f"stack values: {n} x max |x| = {n * peak!r} must be a finite float")
    half = scipy.fft.rfftn(data)
    _, _, self_conj, later = _pair_table(data.shape)
    for plane in (half[:, :, 0], half[:, :, -1]):
        np.copyto(plane, np.conj(_mirror_xy(plane)), where=later)
    half.imag[self_conj] = 0.0
    # A DC within rounding of zero has no sign: the stack has no positive mean.
    dc = half[0, 0, 0].real
    zero = abs(dc) <= n * np.finfo(float).eps * peak
    return SpectralStack(half=half, dims=data.shape, mean_lum=0.0 if zero else dc / n)


def inverse(spec: SpectralStack) -> np.ndarray:
    """Inverse 3D real FFT as a contiguous real array, after ``check_symmetric``."""
    check_symmetric(spec)
    return scipy.fft.irfftn(spec.half, s=spec.dims)


def check_symmetric(spec: SpectralStack) -> None:
    """Raise unless ``spec`` is exactly the spectrum of a real stack.

    The half spectrum stores both bins of a pair only in its kt = 0 and nt/2
    planes, so those must equal the conjugate of their (-kx, -ky) mirror bit for bit.
    """
    planes = spec.half[:, :, [0, -1]]
    if not np.array_equal(planes, np.conj(_mirror_xy(planes))):
        raise DomainError("spectrum is not conjugate-symmetric: "
                          "its inverse transform would have an imaginary part")


def modulation(spec: SpectralStack, k: tuple[int, int, int]) -> float:
    """Modulation of the component at index k: amplitude over mean luminance.

    A bin and its conjugate partner form one cosine with one modulation,
    read from ``_polar`` at whichever of the two the half spectrum stores.
    The DC bin has no modulation.
    """
    nx, ny, nt = spec.dims
    kx, ky, kt = (int(k[0]) % nx, int(k[1]) % ny, int(k[2]) % nt)
    if (kx, ky, kt) == (0, 0, 0):
        raise DomainError("the DC component has no modulation")
    if kt > nt // 2:  # the half spectrum stores its partner
        kx, ky, kt = (-kx) % nx, (-ky) % ny, nt - kt
    return _polar(spec)[0][kx, ky, kt]


def sensitivity(spec: SpectralStack, vc: ViewingConditions) -> np.ndarray:
    """Sensitivity S(u, w) on every bin of the half spectrum.

    Signed DFT indices fold onto frequency magnitudes; |u| depends only on
    (kx, ky) and w only on kt, so the CSF is evaluated once per distinct |u|
    and kt and gathered onto the bins (both cached per dims and viewing point).
    The formula is elementwise, so the values equal a per-bin evaluation bit for bit.
    """
    geom = FieldGeometry(x0=spec.dims[0] / vc.ssr, l_avg=spec.mean_lum)
    u, w, at = _frequency_table(spec.dims, vc.ssr, vc.browse_speed)
    return csf(u, w, geom).take(at)


@lru_cache(maxsize=8)
def _frequency_table(dims: tuple[int, int, int], ssr: float, browse_speed: float):
    """Distinct |u| (a column), w per kt (a row), and each half bin's flat index into
    their table; all read-only."""
    nx, ny, nt = dims
    kx, ky = np.arange(nx), np.arange(ny)
    u1 = np.minimum(kx, nx - kx) / nx * ssr
    u2 = np.minimum(ky, ny - ky) / ny * ssr
    u, iu = np.unique(np.sqrt(u1[:, None] ** 2 + u2[None, :] ** 2), return_inverse=True)
    w = np.arange(nt // 2 + 1) / nt * browse_speed
    tables = (u[:, None], w[None, :], iu.reshape(nx, ny, 1) * w.size + np.arange(w.size))
    for a in tables:
        a.flags.writeable = False
    return tables


def _polar(spec: SpectralStack):
    """Modulation m, unit-modulation amplitude and phase on every half-spectrum bin.

    A paired bin carries half of its cosine, a self-conjugate bin all of it.
    """
    if spec.mean_lum <= 0:
        raise DegenerateStackError("PM/MC need a positive mean luminance")
    self_conj = _pair_table(spec.dims)[2]
    n = prod(spec.dims)
    c = spec.half
    scale = np.full(c.shape, n * spec.mean_lum / 2.0)
    scale[self_conj] = n * spec.mean_lum
    m = np.abs(c)
    phase = np.divide(c, m, out=np.ones_like(c), where=m > 0)
    return np.divide(m, scale, out=m), scale, phase


def _keep_dc(spec: SpectralStack, half: np.ndarray) -> SpectralStack:
    # `half` as the spectrum of `spec`, whose DC (mean luminance) it takes over.
    half[0, 0, 0] = spec.half[0, 0, 0]
    return replace(spec, half=half)


@dataclass(frozen=True)
class McSource:
    """One stack's MC inputs, shared by all its draws.

    ``p`` holds the keep probability of every half-spectrum bin (equal on the
    two bins of a pair), and ``phasor`` the stack's spectrum with every pair
    kept at unit modulation.
    """

    p: np.ndarray
    phasor: SpectralStack

    @classmethod
    def of(cls, spec: SpectralStack, vc: ViewingConditions) -> "McSource":
        m, scale, phase = _polar(spec)
        return cls(detection_probability(m, sensitivity(spec, vc)), _keep_dc(spec, scale * phase))

    def draw(self, seed) -> SpectralStack:
        """Keep each conjugate pair with probability p, at unit modulation; one uniform per pair."""
        n_pairs, rank = _pair_table(self.phasor.dims)[:2]
        u = np.empty(n_pairs + 1)
        u[0] = -1.0  # the DC's, so it is always kept
        np.random.default_rng(seed).random(out=u[1:])
        return replace(self.phasor, half=np.where(u[rank] < self.p, self.phasor.half, 0))


def apply_lf(spec: SpectralStack, vc: ViewingConditions) -> SpectralStack:
    """Scale every non-DC component by the sensitivity at its frequency."""
    return _keep_dc(spec, spec.half * sensitivity(spec, vc))


def apply_pm(spec: SpectralStack, vc: ViewingConditions) -> SpectralStack:
    """Replace every non-DC component's modulation by its detection probability."""
    m, scale, phase = _polar(spec)
    return _keep_dc(spec, detection_probability(m, sensitivity(spec, vc)) * scale * phase)


def apply_mc(spec: SpectralStack, vc: ViewingConditions, seed) -> SpectralStack:
    """Bernoulli keep/discard per conjugate pair; kept pairs get unit modulation."""
    if seed is None or np.any(np.asarray(seed) < 0):
        raise DomainError(f"the MC method requires an explicit non-negative seed, got {seed!r}")
    return McSource.of(spec, vc).draw(seed)


def perceive(stack: ImageStack, method: str, vc: ViewingConditions, *, mc_seed=None) -> ImageStack:
    """Forward transform, apply one method, inverse transform back to space-time."""
    method = method.upper()
    if method not in METHODS:
        raise DomainError(f"unknown perception method {method!r}")
    spec = forward(stack)
    if method == "LF":
        spec = apply_lf(spec, vc)
    elif method == "PM":
        spec = apply_pm(spec, vc)
    else:
        spec = apply_mc(spec, vc, seed=mc_seed)
    data = inverse(spec)
    if not np.isfinite(data).all():  # LF scales bins by S > 1, so the sum can overflow
        raise DomainError(f"{method} output has non-finite voxels: the stack values are too large")
    return replace(stack, data=data)
