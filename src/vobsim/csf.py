"""Barten spatiotemporal contrast sensitivity and the psychometric function.

The sensitivity S(u, w) is a function of spatial frequency u (cycles/deg),
temporal frequency w (cycles/s), the average luminance of the field and its
apparent angular size.  The detection probability maps a component's
modulation m and the sensitivity S at its frequency to the probability that
a human observer sees it.

All functions broadcast over numpy arrays in u and w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import DomainError

__all__ = [
    "BartenParams",
    "FieldGeometry",
    "DEFAULT_PARAMS",
    "pupil_diameter",
    "retinal_illuminance",
    "line_spread_sigma",
    "optical_mtf",
    "low_freq_attenuation",
    "temporal_filter",
    "temporal_time_constants",
    "csf",
    "detection_probability",
]


@dataclass(frozen=True)
class BartenParams:
    """Model constants of the spatiotemporal sensitivity formula.

    Units: ``phi0`` in s*deg^2, ``x_max`` in deg, ``n_max`` in cycles,
    ``t_int`` in s, ``p_photon`` in photons/(s*deg^2*Td), ``sigma0`` in
    arcmin, ``c_ab`` in arcmin/mm, ``u0`` in cycles/deg, ``tau10`` and
    ``tau20`` in s.  The remaining fields are dimensionless.
    """

    k_crozier: float = 3.0
    eta: float = 0.03
    phi0: float = 3e-8
    x_max: float = 12.0
    n_max: float = 15.0
    t_int: float = 0.1
    p_photon: float = 1.285e6
    sigma0: float = 0.5
    c_ab: float = 0.08
    u0: float = 7.0
    n1: float = 7.0
    n2: float = 4.0
    tau10: float = 0.032
    tau20: float = 0.018


DEFAULT_PARAMS = BartenParams()

# Slope k of the psychometric function z = k*(m*s - 1) (see detection_probability).
PSYCHOMETRIC_SLOPE = 3.0


@dataclass(frozen=True)
class FieldGeometry:
    """Apparent field size x0 (deg) and average luminance l_avg (cd/m^2)."""

    x0: float
    l_avg: float

    def __post_init__(self):
        # Orthogonal viewing sees at most 180 deg, and the CSF divides by x0^2.
        if not (0 < self.x0 <= 180 and self.x0 * self.x0 > 0):
            raise DomainError(f"FieldGeometry.x0 must be in (0, 180] deg and its square "
                              f"non-zero, got {self.x0!r}")
        if not (self.l_avg > 0 and np.isfinite(self.l_avg)):
            raise DomainError(f"FieldGeometry.l_avg must be positive, got {self.l_avg!r}")


def pupil_diameter(l_avg: float, x0: float) -> float:
    """Pupil diameter in mm for field luminance l_avg (cd/m^2) and size x0 (deg).

    d = 5 - 3*tanh(0.4*ln(L*X0^2/40^2)); always in (2, 8) mm.
    """
    if not l_avg > 0:
        raise DomainError(f"l_avg must be positive, got {l_avg!r}")
    if not x0 > 0:
        raise DomainError(f"x0 must be positive, got {x0!r}")
    return 5.0 - 3.0 * np.tanh(0.4 * np.log(l_avg * x0 * x0 / 1600.0))


def retinal_illuminance(l_avg: float, d_pupil: float) -> float:
    """Retinal illuminance in Trolands, including the Stiles-Crawford correction.

    E = (pi*d^2*L/4) * (1 - (d/9.7)^2 + (d/12.4)^4).  The correction term is
    non-monotone past ~9.7 mm, so pupil diameters outside (0, 9) mm are
    rejected as out of model range.
    """
    if not l_avg > 0:
        raise DomainError(f"l_avg must be positive, got {l_avg!r}")
    if not 0 < d_pupil < 9.0:
        raise DomainError(f"d_pupil must be in (0, 9) mm, got {d_pupil!r}")
    return (np.pi * d_pupil**2 * l_avg / 4.0) * (
        1.0 - (d_pupil / 9.7) ** 2 + (d_pupil / 12.4) ** 4
    )


def line_spread_sigma(d_pupil: float) -> float:
    """Std of the eye's line-spread function, in degrees.

    sigma0 and c_ab are stored in arcmin and arcmin/mm; the 1/60 converts
    the combined value to degrees.
    """
    return np.sqrt(DEFAULT_PARAMS.sigma0**2 + (DEFAULT_PARAMS.c_ab * d_pupil) ** 2) / 60.0


def optical_mtf(u, sigma: float):
    """Optical modulation transfer of the eye: exp(-2*(pi*sigma*u)^2)."""
    return np.exp(-2.0 * (np.pi * sigma * np.asarray(u, dtype=float)) ** 2)


def low_freq_attenuation(u):
    """Lateral-inhibition roll-off F(u) = 1 - sqrt(1 - exp(-(u/u0)^2))."""
    u = np.asarray(u, dtype=float)
    return 1.0 - np.sqrt(1.0 - np.exp(-((u / DEFAULT_PARAMS.u0) ** 2)))


def temporal_filter(w, tau: float, n: float):
    """Temporal response H(w) = (1 + (2*pi*tau*w)^2)^(-n/2)."""
    w = np.asarray(w, dtype=float)
    return (1.0 + (2.0 * np.pi * tau * w) ** 2) ** (-n / 2.0)


def temporal_time_constants(e_troland: float, x0: float) -> tuple[float, float]:
    """Luminance-dependent time constants (tau1, tau2) of the two temporal stages.

    D = 2*X0/sqrt(pi) is the diameter of the disk with the field's area.
    """
    d_field = 2.0 * x0 / np.sqrt(np.pi)
    tau1 = DEFAULT_PARAMS.tau10 / (
        1.0 + 0.55 * np.log(1.0 + (1.0 + d_field) ** 0.6 * e_troland / 3.5)
    )
    tau2 = DEFAULT_PARAMS.tau20 / (
        1.0 + 0.37 * np.log(1.0 + (1.0 + d_field / 3.2) ** 5 * e_troland / 120.0)
    )
    return tau1, tau2


def csf(u, w, geom: FieldGeometry):
    """Spatiotemporal contrast sensitivity S(u, w), with the DEFAULT_PARAMS constants.

    Parameters
    ----------
    u, w : scalar or ndarray
        Non-negative spatial (cycles/deg) and temporal (cycles/s) frequency
        magnitudes.  Negative, infinite or NaN arguments are rejected; folding
        signed DFT frequencies onto magnitudes is the caller's job.
    geom : FieldGeometry
        Apparent field size and average luminance.
    """
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if not ((u >= 0) & (u < np.inf)).all():  # NaN compares false
        raise DomainError("spatial frequency u must be finite and non-negative")
    if not ((w >= 0) & (w < np.inf)).all():
        raise DomainError("temporal frequency w must be finite and non-negative")

    params = DEFAULT_PARAMS
    # Overflow to inf is the model's own limit: a huge u or w gives S = 0 and a huge
    # l_avg no photon noise.  neural_gain is 0 at u = w = 0; the 1/gain^2 noise
    # term then diverges and S is correctly 0 there.
    with np.errstate(divide="ignore", over="ignore"):
        d = pupil_diameter(geom.l_avg, geom.x0)
        e = retinal_illuminance(geom.l_avg, d)
        tau1, tau2 = temporal_time_constants(e, geom.x0)
        sigma = line_spread_sigma(d)

        m_opt = optical_mtf(u, sigma)
        f_u = low_freq_attenuation(u)
        h1 = temporal_filter(w, tau1, params.n1)
        h2 = temporal_filter(w, tau2, params.n2)

        photon_term = 1.0 / (params.eta * params.p_photon * e)
        neural_gain = h1 * (1.0 - h2 * f_u)
        neural_term = params.phi0 / neural_gain**2
        bandwidth = (2.0 / params.t_int) * (
            1.0 / geom.x0**2 + 1.0 / params.x_max**2 + u**2 / params.n_max**2
        )
        s = m_opt / (params.k_crozier * np.sqrt(bandwidth * (photon_term + neural_term)))
    if u.ndim == 0 and w.ndim == 0:
        return float(s)
    return s


def detection_probability(m, s):
    """Probability of detecting a component of modulation m at sensitivity s.

    p = 1/2 + 1/2*erf(z/sqrt(2)) with z = k*(m*s - 1), k = PSYCHOMETRIC_SLOPE;
    strictly increasing in m*s and equal to 1/2 exactly at the visibility
    threshold m = 1/s.  Negative, infinite or NaN arguments are rejected.
    """
    m = np.asarray(m, dtype=float)
    s = np.asarray(s, dtype=float)
    if not ((m >= 0) & (m < np.inf)).all():  # NaN compares false
        raise DomainError("modulation m must be finite and non-negative")
    if not ((s >= 0) & (s < np.inf)).all():
        raise DomainError("sensitivity s must be finite and non-negative")
    with np.errstate(over="ignore"):  # an m*s past the float range is far above threshold: p = 1
        p = np.asarray(m * s)  # then 0.5 + 0.5*erf(k*(p - 1)/sqrt(2)), in place
        p -= 1.0
        p *= PSYCHOMETRIC_SLOPE
        p /= np.sqrt(2.0)
    erf(p, out=p)
    p *= 0.5
    p += 0.5
    if m.ndim == 0 and s.ndim == 0:
        return float(p)
    return p
