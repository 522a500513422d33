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
through untouched.  ``inverse`` and the observer's spectral projections
reject any other spectrum (``check_symmetric``).

PM and MC both start from p: one pass over the half spectrum yields each
bin's modulation m (which p needs) and its phase; PM scales the phase to p
times the bin's unit-modulation amplitude, MC keeps the unit-modulation bin
with probability p, one draw per conjugate pair.  The field's apparent size
comes from the pixel count and sampling rate (orthogonal viewing) and its
luminance from the stack's mean, with the default Barten constants.
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
    "displayed",
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
    """Half 3D spectrum of a real stack (rfftn layout); its mean luminance is read off the DC."""

    half: np.ndarray
    dims: tuple[int, int, int]

    @property
    def mean_lum(self) -> float:  # the DC's real part over the voxel count
        return self.half[0, 0, 0].real / prod(self.dims)

    @property
    def coeffs(self) -> np.ndarray:
        """The full spectrum in ``np.fft.fftn`` layout, mirrored from ``half``."""
        mirror = np.roll(self.half[::-1, ::-1], 1, axis=(0, 1))  # [kx, ky] is half[-kx, -ky]
        upper = np.conj(mirror[:, :, self.dims[2] // 2 - 1:0:-1])
        return np.concatenate([self.half, upper], axis=2)


@lru_cache(maxsize=8)
def _pair_table(dims: tuple[int, int, int]):
    """The conjugate pairs of the half spectrum.

    Returns (n_pairs, rank, self_conj, later): rank numbers each bin's pair by
    the smaller full-layout flat index of its two bins (0 for the DC, 1 to
    n_pairs for the others); self_conj indexes the self-conjugate bins; later
    holds two rows of flat half-spectrum indices: the bins of the kt = 0 and
    nt/2 planes whose partner, in the same plane, comes first or is
    themselves, and those partners.
    """
    nx, ny, nt = dims
    kx, ky, kt = np.indices((nx, ny, nt // 2 + 1))
    flat = (kx * ny + ky) * nt + kt
    partner = (((-kx) % nx) * ny + (-ky) % ny) * nt + (-kt) % nt
    pairs, rank = np.unique(np.minimum(flat, partner).ravel(), return_inverse=True)
    later = np.flatnonzero((flat >= partner) & (kt % (nt // 2) == 0))
    mirror = np.ravel_multi_index(((-kx) % nx, (-ky) % ny, kt), kt.shape).ravel()
    rank, later = rank.reshape(flat.shape), np.stack([later, mirror[later]])
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
    _, _, self_conj, (later, partner) = _pair_table(data.shape)
    np.put(half, later, np.conj(half.take(partner)))
    half.imag[self_conj] = 0.0
    # A DC within rounding of zero has no sign: the stack has no positive mean.
    if abs(half[0, 0, 0].real) <= n * np.finfo(float).eps * peak:
        half[0, 0, 0] = 0.0
    return SpectralStack(half=half, dims=data.shape)


def displayed(spec: SpectralStack, base: ViewingConditions, vc: ViewingConditions) -> SpectralStack:
    """``spec``, of a stack displayed at ``base``, as displayed at ``vc``: every bin scales by
    the span ratio k (real, so pairs stay exact conjugates) and the DC also moves with l_min."""
    if (vc.l_max, vc.l_min) == (base.l_max, base.l_min):
        return spec
    k, n = (vc.l_max - vc.l_min) / (base.l_max - base.l_min), prod(spec.dims)
    half = spec.half * k
    half[0, 0, 0] = k * (spec.half[0, 0, 0] - n * base.l_min) + n * vc.l_min
    return replace(spec, half=half)


def inverse(spec: SpectralStack) -> np.ndarray:
    """Inverse 3D real FFT as a contiguous real array, after ``check_symmetric``."""
    check_symmetric(spec)
    return scipy.fft.irfftn(spec.half, s=spec.dims)


def check_symmetric(spec: SpectralStack) -> None:
    """Raise unless ``spec`` is exactly the spectrum of a real stack.

    The half spectrum stores both bins of a pair only in its kt = 0 and nt/2
    planes, so those must equal the conjugate of their (-kx, -ky) partner bit for bit.
    """
    later, partner = _pair_table(spec.dims)[3]  # each pair once, and the self-conjugate bins
    if not np.array_equal(spec.half.take(later), np.conj(spec.half.take(partner))):
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
    u, w, iu = _frequency_table(spec.dims, vc.ssr, vc.browse_speed)
    return csf(u, w, geom)[iu]


@lru_cache(maxsize=8)
def _frequency_table(dims: tuple[int, int, int], ssr: float, browse_speed: float):
    """Distinct |u| (a column), w per kt (a row), and the (nx, ny) row index of each
    (kx, ky)'s |u| in their table; all read-only."""
    nx, ny, nt = dims
    kx, ky = np.arange(nx), np.arange(ny)
    u1 = np.minimum(kx, nx - kx) / nx * ssr
    u2 = np.minimum(ky, ny - ky) / ny * ssr
    u, iu = np.unique(np.sqrt(u1[:, None] ** 2 + u2[None, :] ** 2), return_inverse=True)
    w = np.arange(nt // 2 + 1) / nt * browse_speed
    tables = (u[:, None], w[None, :], iu.reshape(nx, ny))
    for a in tables:
        a.flags.writeable = False
    return tables


def _polar(spec: SpectralStack):
    """Modulation m and phase on every half-spectrum bin (m is |bin| / ``_unit``)."""
    if spec.mean_lum <= 0:
        raise DegenerateStackError("PM/MC need a positive mean luminance")
    c = spec.half
    m = np.abs(c)
    phase = np.divide(c, m, out=np.ones_like(c), where=m > 0)
    return _unit(np.divide, m, spec), phase


def _unit(op, a: np.ndarray, spec: SpectralStack) -> np.ndarray:
    """``op(a, amplitude)`` in place; a unit-modulation cosine's amplitude is N * mean / 2 on
    a paired bin (half of the cosine) and N * mean on a self-conjugate bin (all of it)."""
    self_conj = _pair_table(spec.dims)[2]
    op(a, prod(spec.dims) * spec.mean_lum / 2.0, out=a)
    op(a[self_conj], 2.0, out=a[self_conj])  # exact: a power of two
    return a


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
        m, phase = _polar(spec)
        return cls(detection_probability(m, sensitivity(spec, vc)),
                   _keep_dc(spec, _unit(np.multiply, phase, spec)))

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
    m, phase = _polar(spec)
    phase *= _unit(np.multiply, detection_probability(m, sensitivity(spec, vc)), spec)
    return _keep_dc(spec, phase)


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
