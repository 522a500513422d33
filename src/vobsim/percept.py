"""Frequency-domain perception of a displayed stack.

A displayed stack is taken to the spatiotemporal frequency domain with a 3D
FFT, each component is reweighted by one of three methods, and the result is
inverse-transformed:

* LF  -- linear filtering: each component is multiplied by the contrast
  sensitivity S at its frequency.
* PM  -- probability map: each component's modulation is replaced by its
  detection probability p, phase preserved.
* MC  -- Monte Carlo: each component is kept (at unit modulation) with
  probability p or zeroed, one draw per conjugate pair.

Because the input is real, coefficients come in conjugate pairs; every
method processes each pair exactly once and mirrors the result, so the
output is exactly conjugate-symmetric and inverse-transforms to a real
stack.  The DC component (mean luminance) passes through untouched.

Per stack, the sensitivity S and the detection probability p are arrays over
the canonical bins (one per conjugate pair); the methods' ``s=``/``p=``
arguments replace them with any array or scalar that broadcasts onto those.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import prod

import numpy as np

from .csf import DEFAULT_PARAMS, BartenParams, FieldGeometry, csf, detection_probability
from .errors import DegenerateStackError, DimensionMismatchError, DomainError
from .stackgen import ImageStack, ViewingConditions

__all__ = [
    "SpectralStack",
    "FrequencyMap",
    "METHODS",
    "forward",
    "inverse",
    "modulation",
    "sensitivity",
    "visibility",
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
    """Complex 3D spectrum of a real stack, plus its mean luminance (DC / N)."""

    coeffs: np.ndarray
    dims: tuple[int, int, int]
    mean_lum: float


@dataclass(frozen=True)
class FrequencyMap:
    """Physical frequency per DFT index: u1, u2 in cycles/deg, w in cycles/s."""

    u1: np.ndarray
    u2: np.ndarray
    w: np.ndarray

    @classmethod
    def for_stack(cls, dims: tuple[int, int, int], vc: ViewingConditions) -> "FrequencyMap":
        nx, ny, nt = dims
        kx, ky, kt = np.arange(nx), np.arange(ny), np.arange(nt)
        u1 = np.minimum(kx, nx - kx) / nx * vc.ssr
        u2 = np.minimum(ky, ny - ky) / ny * vc.ssr
        w = np.minimum(kt, nt - kt) / nt * vc.browse_speed
        return cls(u1=u1, u2=u2, w=w)

    def grids(self) -> tuple[np.ndarray, np.ndarray]:
        """Combined spatial frequency sqrt(u1^2 + u2^2) and temporal w as 3D grids."""
        u = np.sqrt(self.u1[:, None, None] ** 2 + self.u2[None, :, None] ** 2)
        u = np.broadcast_to(u, (self.u1.size, self.u2.size, self.w.size))
        w = np.broadcast_to(self.w[None, None, :], u.shape)
        return u, w


@lru_cache(maxsize=8)
def _pair_table(dims: tuple[int, int, int]):
    """Flat indices of one representative per conjugate pair (DC excluded).

    Returns (canonical, partner, self_conj): canonical[i] and partner[i] are
    flat C-order indices with canonical <= partner; self_conj marks bins that
    are their own conjugate (DC plane / Nyquist corners).
    """
    nx, ny, nt = dims
    kx, ky, kt = np.indices(dims)
    flat = ((kx * ny + ky) * nt + kt).ravel()
    partner = ((((-kx) % nx) * ny + ((-ky) % ny)) * nt + ((-kt) % nt)).ravel()
    canonical = np.nonzero((flat <= partner) & (flat != 0))[0]
    partner = partner[canonical]
    return canonical, partner, canonical == partner


def forward(stack: ImageStack) -> SpectralStack:
    """3D FFT of a real stack.  Dimensions must be even."""
    data = stack.data
    if np.iscomplexobj(data):
        raise DomainError("forward transform expects a real-valued stack")
    if any(n % 2 for n in data.shape):
        raise DimensionMismatchError(f"stack dimensions must be even, got {data.shape}")
    coeffs = np.fft.fftn(data)
    n = prod(data.shape)
    return SpectralStack(coeffs=coeffs, dims=data.shape, mean_lum=coeffs[0, 0, 0].real / n)


def inverse(spec: SpectralStack) -> np.ndarray:
    """Inverse 3D FFT as a contiguous real array.

    Raises if the imaginary residue is non-negligible.  The real part is
    copied out, so the complex buffer is not kept alive by the result.
    """
    out = np.fft.ifftn(spec.coeffs)
    scale = np.abs(out).max()
    if scale > 0 and np.abs(out.imag).max() > _IMAG_RESIDUE_TOL * scale:
        raise DomainError("inverse transform left a non-negligible imaginary part")
    return np.ascontiguousarray(out.real)


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
    return pair_weight * abs(spec.coeffs[kx, ky, kt]) / (n * spec.mean_lum)


def sensitivity(spec: SpectralStack, vc: ViewingConditions, geom: FieldGeometry | None = None,
                params: BartenParams = DEFAULT_PARAMS) -> np.ndarray:
    """Sensitivity S(u, w) on every canonical bin (one per conjugate pair).

    |u| depends only on (kx, ky) and w only on kt, so the CSF is evaluated
    once per distinct (|u|, w) and gathered onto the bins.  The formula is
    elementwise, so the values equal a per-bin evaluation bit for bit.
    The field's apparent size comes from pixel count and sampling rate
    (orthogonal viewing) unless ``geom`` is given.
    """
    geom = geom or FieldGeometry(x0=spec.dims[0] / vc.ssr, l_avg=spec.mean_lum)
    canonical, _, _ = _pair_table(spec.dims)
    u3, w3 = FrequencyMap.for_stack(spec.dims, vc).grids()
    u, iu = np.unique(u3[:, :, 0], return_inverse=True)
    w, iw = np.unique(w3[0, 0, :], return_inverse=True)
    table = csf(u[:, None], w[None, :], geom, params)
    return table[iu.ravel()[canonical // spec.dims[2]], iw[canonical % spec.dims[2]]]


def _pair_scale(spec: SpectralStack) -> np.ndarray:
    # Coefficient amplitude of unit modulation per canonical bin: a paired
    # bin carries half of its cosine, a self-conjugate bin all of it.
    if spec.mean_lum <= 0:
        raise DegenerateStackError("PM/MC need a positive mean luminance")
    n = prod(spec.dims)
    return np.where(_pair_table(spec.dims)[2], n * spec.mean_lum, n * spec.mean_lum / 2.0)


def visibility(spec: SpectralStack, s, k: float = DEFAULT_PARAMS.k_crozier):
    """Modulation m and detection probability p on every canonical bin, as (m, p)."""
    m = np.abs(spec.coeffs.ravel()[_pair_table(spec.dims)[0]]) / _pair_scale(spec)
    return m, detection_probability(m, s, k)


def _probability(spec, vc, geom, params, s) -> np.ndarray:
    s = sensitivity(spec, vc, geom, params) if s is None else s
    return visibility(spec, s, params.k_crozier)[1]


def _phase(spec: SpectralStack) -> np.ndarray:
    # Self-conjugate bins are real, so only their sign carries through.
    canonical, _, self_conj = _pair_table(spec.dims)
    c = spec.coeffs.ravel()[canonical]
    amps = np.abs(c)
    phase = np.where(amps > 0, c / np.where(amps > 0, amps, 1.0), 1.0)
    return np.where(self_conj, np.where(c.real < 0, -1.0, 1.0), phase)


def _assemble(dims, dc: complex, new: np.ndarray) -> SpectralStack:
    # DC, `new` on the canonical bins and its conjugate on their partners.
    canonical, partner, _ = _pair_table(dims)
    flat = np.zeros(prod(dims), dtype=complex)
    flat[0] = dc
    flat[canonical] = new
    flat[partner] = np.conj(new)
    return SpectralStack(coeffs=flat.reshape(dims), dims=dims, mean_lum=dc.real / flat.size)


@dataclass(frozen=True)
class McSource:
    """One stack's MC inputs, shared by all its draws: p and pair_scale*phase per bin, and DC."""

    p: np.ndarray
    phasor: np.ndarray
    dc: complex
    dims: tuple[int, int, int]

    @classmethod
    def of(cls, spec, vc, geom=None, *, params=DEFAULT_PARAMS, s=None, p=None) -> "McSource":
        p = _probability(spec, vc, geom, params, s) if p is None else p
        return cls(p=p, phasor=_pair_scale(spec) * _phase(spec), dc=spec.coeffs[0, 0, 0],
                   dims=spec.dims)

    def draw(self, seed) -> SpectralStack:
        """Keep each conjugate pair with probability p, at unit modulation."""
        keep = np.random.default_rng(seed).random(self.phasor.size) < self.p
        return _assemble(self.dims, self.dc, keep * self.phasor)


def apply_lf(spec: SpectralStack, vc: ViewingConditions, geom: FieldGeometry | None = None,
             *, params: BartenParams = DEFAULT_PARAMS, s=None) -> SpectralStack:
    """Scale every non-DC component by the sensitivity at its frequency."""
    canonical, _, self_conj = _pair_table(spec.dims)
    s = sensitivity(spec, vc, geom, params) if s is None else s
    new = spec.coeffs.ravel()[canonical] * s
    return _assemble(spec.dims, spec.coeffs[0, 0, 0], np.where(self_conj, new.real, new))


def apply_pm(spec: SpectralStack, vc: ViewingConditions, geom: FieldGeometry | None = None,
             *, params: BartenParams = DEFAULT_PARAMS, s=None, p=None) -> SpectralStack:
    """Replace every non-DC component's modulation by its detection probability."""
    p = _probability(spec, vc, geom, params, s) if p is None else p
    return _assemble(spec.dims, spec.coeffs[0, 0, 0], p * _pair_scale(spec) * _phase(spec))


def apply_mc(spec: SpectralStack, vc: ViewingConditions, geom: FieldGeometry | None = None,
             seed=None, *, params: BartenParams = DEFAULT_PARAMS, s=None, p=None) -> SpectralStack:
    """Bernoulli keep/discard per conjugate pair; kept pairs get unit modulation."""
    if seed is None:
        raise DomainError("the MC method requires an explicit seed")
    return McSource.of(spec, vc, geom, params=params, s=s, p=p).draw(seed)


def perceive(stack: ImageStack, method: str, vc: ViewingConditions, *, mc_seed=None,
             params: BartenParams = DEFAULT_PARAMS, s=None) -> ImageStack:
    """Forward transform, apply one method, inverse transform back to space-time."""
    method = method.upper()
    if method not in METHODS:
        raise DomainError(f"unknown perception method {method!r}")
    spec = forward(stack)
    if method == "LF":
        spec = apply_lf(spec, vc, params=params, s=s)
    elif method == "PM":
        spec = apply_pm(spec, vc, params=params, s=s)
    else:
        spec = apply_mc(spec, vc, seed=mc_seed, params=params, s=s)
    return replace(stack, data=inverse(spec))
