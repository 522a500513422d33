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
64x64x32).  Each method processes each pair once, on its canonical bin; a
per-dims table gathers the results onto the half spectrum, conjugated where
it holds the partner, so the output is exactly conjugate-symmetric and the
DC (mean luminance) passes through untouched.  ``check_residue`` takes the
imaginary residue of an inverse transform from the kt = 0 and kt = nt/2
planes alone; ``inverse`` and ``observer.channelize_spectrum`` both run it.

Per stack, the sensitivity S and the detection probability p are arrays over
the canonical bins (one per conjugate pair).  PM and MC both start from p:
one pass gathers the canonical values and yields each pair's modulation m
(which p needs), its unit-modulation scale and its phase; PM scales the pair
to p and MC keeps it with probability p.  The field's apparent size comes
from the pixel count and sampling rate (orthogonal viewing) and its
luminance from the stack's mean, with the default Barten constants.  The
``s=``/``p=`` arguments of ``apply_lf``/``apply_pm`` replace S or p with any
array or scalar that broadcasts onto the canonical bins.
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
    "check_residue",
    "modulation",
    "sensitivity",
    "McSource",
    "apply_lf",
    "apply_pm",
    "apply_mc",
    "perceive",
]

METHODS = ("LF", "PM", "MC")

_IMAG_RESIDUE_TOL = 1e-9


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
    """Canonical bins, one per conjugate pair (DC excluded), and their half-spectrum layout.

    Returns (canonical, self_conj, src, flip, at, at_flip): canonical holds the
    smaller full-layout flat index of each pair, sorted; self_conj the positions of the
    self-conjugate ones; half bin h holds value src[h] of the canonical values with the
    DC appended, conjugated where flip[h]; canonical bin i is read from half bin at[i],
    conjugated where at_flip[i].
    """
    nx, ny, nt = dims
    # Every pair has a member in the half spectrum, so its bins list all pairs.
    kx, ky, kt = (a.ravel()[1:] for a in np.indices((nx, ny, nt // 2 + 1)))
    flat = (kx * ny + ky) * nt + kt
    partner = (((-kx) % nx) * ny + (-ky) % ny) * nt + (-kt) % nt
    canonical, src = np.unique(np.minimum(flat, partner), return_inverse=True)
    flip = flat > partner
    # Read a canonical bin where the half holds it as itself; one with
    # kt > nt/2 is held only as its partner's conjugate.
    at = np.empty(canonical.size, dtype=np.intp)
    at[src[flip]] = np.flatnonzero(flip) + 1
    at[src[~flip]] = np.flatnonzero(~flip) + 1
    tables = (canonical, np.flatnonzero(flat[at - 1] == partner[at - 1]),
              np.concatenate(([canonical.size], src)), np.concatenate(([False], flip)),
              at, flip[at - 1])
    for a in tables:
        a.flags.writeable = False
    return tables


def forward(stack: ImageStack) -> SpectralStack:
    """3D FFT of a real stack.  Dimensions must be even."""
    data = stack.data
    if np.iscomplexobj(data):
        raise DomainError("forward transform expects a real-valued stack")
    if any(n % 2 for n in data.shape):
        raise DimensionMismatchError(f"stack dimensions must be even, got {data.shape}")
    half = scipy.fft.rfftn(data)
    n = prod(data.shape)
    # A DC within rounding of zero has no sign: the stack has no positive mean.
    dc = half[0, 0, 0].real
    zero = abs(dc) <= n * np.finfo(float).eps * max(data.max(), -data.min())
    return SpectralStack(half=half, dims=data.shape, mean_lum=0.0 if zero else dc / n)


def inverse(spec: SpectralStack) -> np.ndarray:
    """Inverse 3D real FFT as a contiguous real array, after ``check_residue``."""
    check_residue(spec)
    return scipy.fft.irfftn(spec.half, s=spec.dims)


def check_residue(spec: SpectralStack) -> None:
    """Raise if ``ifftn(spec.coeffs)`` would leave a non-negligible imaginary part.

    That part is (B0 + (-1)^t B1) / nt, with B0, B1 the 2D inverse transforms of
    the anti-Hermitian parts of the kt = 0 and nt/2 planes (mirroring fixes all
    others).  The real part, for scale, is computed only if those planes are not Hermitian.
    """
    planes = spec.half[:, :, [0, -1]]
    anti = planes - np.conj(_mirror_xy(planes))  # twice the anti-Hermitian parts
    if anti.any():
        out = scipy.fft.irfftn(spec.half, s=spec.dims)
        b = scipy.fft.ifft2(anti, axes=(0, 1)).imag / (2 * spec.dims[2])
        imag = b[:, :, :1] + np.where(np.arange(spec.dims[2]) % 2, -1.0, 1.0) * b[:, :, 1:]
        scale = np.hypot(out, imag).max()
        if scale > 0 and np.abs(imag).max() > _IMAG_RESIDUE_TOL * scale:
            raise DomainError("inverse transform left a non-negligible imaginary part")


def modulation(spec: SpectralStack, k: tuple[int, int, int]) -> float:
    """Modulation of the component at index k: amplitude over mean luminance.

    A non-self-conjugate bin and its partner form one cosine, so its
    amplitude counts twice: m = 2*|c| / (N * mean_lum); self-conjugate bins
    count once.  The DC bin has no modulation.
    """
    kx, ky, kt = (int(k[0]) % spec.dims[0], int(k[1]) % spec.dims[1], int(k[2]) % spec.dims[2])
    if (kx, ky, kt) == (0, 0, 0):
        raise DomainError("the DC component has no modulation")
    if spec.mean_lum <= 0:
        raise DegenerateStackError("mean luminance must be positive to define modulation")
    partner = ((-kx) % spec.dims[0], (-ky) % spec.dims[1], (-kt) % spec.dims[2])
    pair_weight = 1.0 if partner == (kx, ky, kt) else 2.0
    n = prod(spec.dims)
    # |c| of a bin equals |c| of its partner, one of which is in the half.
    stored = min((kx, ky, kt), partner, key=lambda b: b[2])
    return pair_weight * abs(spec.half[stored]) / (n * spec.mean_lum)


def sensitivity(spec: SpectralStack, vc: ViewingConditions) -> np.ndarray:
    """Sensitivity S(u, w) on every canonical bin (one per conjugate pair).

    Signed DFT indices fold onto frequency magnitudes; |u| depends only on
    (kx, ky) and w only on kt, so the CSF is evaluated once per distinct
    (|u|, w) and gathered onto the bins (both cached per dims and viewing point).
    The formula is elementwise, so the values equal a per-bin evaluation bit for bit.
    """
    u, w, at = _frequency_table(spec.dims, vc.ssr, vc.browse_speed)
    return csf(u, w, FieldGeometry(x0=spec.dims[0] / vc.ssr, l_avg=spec.mean_lum)).take(at)


@lru_cache(maxsize=8)
def _frequency_table(dims: tuple[int, int, int], ssr: float, browse_speed: float):
    """Distinct |u| (a column) and w (a row), and each canonical bin's flat index into
    their table; all read-only."""
    nx, ny, nt = dims
    kx, ky, kt = np.arange(nx), np.arange(ny), np.arange(nt)
    u1 = np.minimum(kx, nx - kx) / nx * ssr
    u2 = np.minimum(ky, ny - ky) / ny * ssr
    u, iu = np.unique(np.sqrt(u1[:, None] ** 2 + u2[None, :] ** 2), return_inverse=True)
    w, iw = np.unique(np.minimum(kt, nt - kt) / nt * browse_speed, return_inverse=True)
    canonical = _pair_table(dims)[0]
    tables = (u[:, None], w[None, :], iu.ravel()[canonical // nt] * w.size + iw[canonical % nt])
    for a in tables:
        a.flags.writeable = False
    return tables


def _canonical(spec: SpectralStack) -> np.ndarray:
    # Full-spectrum values of the canonical bins, gathered from the half.
    at, at_flip = _pair_table(spec.dims)[4:]
    c = spec.half.ravel()[at]
    np.negative(c.imag, out=c.imag, where=at_flip)
    return c


def _polar(spec: SpectralStack):
    """Modulation m, unit-modulation amplitude and phase on every canonical bin.

    A paired bin carries half of its cosine, a self-conjugate bin all of it;
    self-conjugate bins are real, so only their sign is a phase.
    """
    if spec.mean_lum <= 0:
        raise DegenerateStackError("PM/MC need a positive mean luminance")
    self_conj = _pair_table(spec.dims)[1]
    n = prod(spec.dims)
    c = _canonical(spec)
    scale = np.full(c.size, n * spec.mean_lum / 2.0)
    scale[self_conj] = n * spec.mean_lum
    m = np.abs(c)
    phase = np.divide(c, m, out=np.ones_like(c), where=m > 0)
    phase[self_conj] = np.where(c.real[self_conj] < 0, -1.0, 1.0)
    return np.divide(m, scale, out=m), scale, phase


def _assemble(dims, dc: complex, new: np.ndarray) -> SpectralStack:
    # DC, `new` on the canonical bins and its conjugate on their partners.
    src, flip = _pair_table(dims)[2:4]
    flat = np.empty(src.size, dtype=complex)
    flat[0] = dc
    # Every index is in range; mode="raise" would buffer the whole output.
    np.take(new, src[1:], out=flat[1:], mode="clip")
    np.negative(flat.imag, out=flat.imag, where=flip)
    return SpectralStack(half=flat.reshape(dims[0], dims[1], -1), dims=dims,
                         mean_lum=dc.real / prod(dims))


@dataclass(frozen=True)
class McSource:
    """One stack's MC inputs, shared by all its draws.

    ``p`` holds the keep probability per canonical bin, and ``phasor`` the
    stack's spectrum with every pair kept at unit modulation.
    """

    p: np.ndarray
    phasor: SpectralStack

    @classmethod
    def of(cls, spec: SpectralStack, vc: ViewingConditions) -> "McSource":
        m, scale, phase = _polar(spec)
        return cls(detection_probability(m, sensitivity(spec, vc)),
                   _assemble(spec.dims, spec.half[0, 0, 0], scale * phase))

    def draw(self, seed) -> SpectralStack:
        """Keep each conjugate pair with probability p, at unit modulation."""
        canonical, _, src = _pair_table(self.phasor.dims)[:3]
        keep = np.random.default_rng(seed).random(canonical.size) < self.p
        kept = np.append(keep, True)[src].reshape(self.phasor.half.shape)
        return replace(self.phasor, half=np.where(kept, self.phasor.half, 0))


def apply_lf(spec: SpectralStack, vc: ViewingConditions, *, s=None) -> SpectralStack:
    """Scale every non-DC component by the sensitivity at its frequency."""
    s = sensitivity(spec, vc) if s is None else s
    new = _canonical(spec) * s
    new.imag[_pair_table(spec.dims)[1]] = 0.0
    return _assemble(spec.dims, spec.half[0, 0, 0], new)


def apply_pm(spec: SpectralStack, vc: ViewingConditions, *, s=None, p=None) -> SpectralStack:
    """Replace every non-DC component's modulation by its detection probability."""
    m, scale, phase = _polar(spec)
    if p is None:
        p = detection_probability(m, sensitivity(spec, vc) if s is None else s)
    return _assemble(spec.dims, spec.half[0, 0, 0], p * scale * phase)


def apply_mc(spec: SpectralStack, vc: ViewingConditions, seed=None) -> SpectralStack:
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
    return replace(stack, data=inverse(spec))
