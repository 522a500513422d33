"""Multi-slice channelized Hotelling observer (type 'b').

Each slice is reduced to a feature vector by Laguerre-Gauss channels.  A
Hotelling template is trained on the central slice's features and applied
to every slice, and a second Hotelling stage fuses the resulting per-slice
scalars into one decision variable per stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import eval_laguerre

from .errors import DimensionMismatchError, DomainError, SingularCovarianceError
from .stackgen import ImageStack

__all__ = [
    "LgChannelSet",
    "ChoModel",
    "make_channels",
    "channelize",
    "channelize_stack",
    "hotelling_weights",
    "train",
    "score",
]

DEFAULT_RIDGE_SCALE = 1e-6


@dataclass(frozen=True)
class LgChannelSet:
    """Laguerre-Gauss channels sampled on an nx-by-ny grid.

    Channel j is exp(-pi r^2 / a^2) * L_j(2 pi r^2 / a^2) with r measured in
    pixels from the geometric slice center, each normalized to unit energy.
    ``matrix`` has one column per channel, flattened in C order.
    """

    nx: int
    ny: int
    matrix: np.ndarray


def make_channels(nx: int, ny: int, n_channels: int = 15, spread: float = 10.0) -> LgChannelSet:
    if n_channels < 1:
        raise DomainError(f"n_channels must be at least 1, got {n_channels}")
    if spread <= 0:
        raise DomainError(f"spread must be positive, got {spread!r}")
    cx, cy = (nx - 1) / 2.0, (ny - 1) / 2.0
    x = np.arange(nx)[:, None] - cx
    y = np.arange(ny)[None, :] - cy
    g = 2.0 * np.pi * (x**2 + y**2) / spread**2
    cols = []
    for j in range(n_channels):
        ch = np.exp(-g / 2.0) * eval_laguerre(j, g)
        cols.append(ch.ravel() / np.linalg.norm(ch))
    return LgChannelSet(nx=nx, ny=ny, matrix=np.column_stack(cols))


def channelize(slice2d: np.ndarray, channels: LgChannelSet) -> np.ndarray:
    """Project one slice onto the channel set: v_j = <slice, c_j>."""
    slice2d = np.asarray(slice2d, dtype=float)
    if slice2d.shape != (channels.nx, channels.ny):
        raise DimensionMismatchError(
            f"slice shape {slice2d.shape} does not match channels "
            f"({channels.nx}, {channels.ny})"
        )
    return channels.matrix.T @ slice2d.ravel()


def channelize_stack(stack: ImageStack, channels: LgChannelSet) -> np.ndarray:
    """Feature vectors for every slice of a stack, shape (nt, n_channels)."""
    if (stack.nx, stack.ny) != (channels.nx, channels.ny):
        raise DimensionMismatchError(
            f"stack slices {stack.nx}x{stack.ny} do not match channels "
            f"{channels.nx}x{channels.ny}"
        )
    flat = stack.data.reshape(stack.nx * stack.ny, stack.nt)
    return flat.T @ channels.matrix


def hotelling_weights(
    feats_absent: np.ndarray,
    feats_present: np.ndarray,
    ridge_scale: float = DEFAULT_RIDGE_SCALE,
) -> np.ndarray:
    """Regularized Hotelling discriminant (mean class covariance)^-1 (mu1 - mu0).

    The ridge added to the covariance is ridge_scale * trace / dim, which
    keeps small-sample covariances invertible without distorting the scale.
    """
    feats_absent = np.atleast_2d(np.asarray(feats_absent, dtype=float))
    feats_present = np.atleast_2d(np.asarray(feats_present, dtype=float))
    if feats_absent.shape[0] < 2 or feats_present.shape[0] < 2:
        raise DomainError("each class needs at least 2 training cases")
    cov = 0.5 * (np.cov(feats_absent, rowvar=False) + np.cov(feats_present, rowvar=False))
    cov = np.atleast_2d(cov)
    dim = cov.shape[0]
    ridge = ridge_scale * np.trace(cov) / dim
    delta = feats_present.mean(axis=0) - feats_absent.mean(axis=0)
    if np.trace(cov) == 0.0:
        # Degenerate training data (e.g. identical classes through a zero
        # template): no direction to discriminate along.
        if np.linalg.norm(delta) == 0.0:
            return np.zeros(dim)
        raise SingularCovarianceError("zero covariance with a nonzero mean difference")
    try:
        return np.linalg.solve(cov + ridge * np.eye(dim), delta)
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError(
            f"covariance remained singular at ridge {ridge!r}"
        ) from exc


@dataclass
class ChoModel:
    """Trained two-stage observer: central-slice template plus slice fusion weights."""

    channels: LgChannelSet
    template_central: np.ndarray
    slice_stage: np.ndarray
    nt: int


def train(
    stacks: list[ImageStack],
    channels: LgChannelSet,
    ridge_scale: float = DEFAULT_RIDGE_SCALE,
) -> ChoModel:
    """Train the type 'b' observer on labeled stacks.

    Stage 1 learns a Hotelling template from the central-slice channel
    vectors; stage 2 learns Hotelling weights over the per-slice scalars
    that template produces across all slices.
    """
    if not stacks:
        raise DomainError("no training stacks given")
    nt = stacks[0].nt
    if any(s.nt != nt for s in stacks):
        raise DimensionMismatchError("training stacks differ in slice count")
    present = [s for s in stacks if s.signal_present]
    absent = [s for s in stacks if not s.signal_present]
    if len(present) < 2 or len(absent) < 2:
        raise DomainError("need at least 2 training cases per class")

    central = nt // 2
    feats = {
        lab: np.array([channelize(s.data[:, :, central], channels) for s in group])
        for lab, group in (("absent", absent), ("present", present))
    }
    template = hotelling_weights(feats["absent"], feats["present"], ridge_scale)

    per_slice = {
        lab: np.array([channelize_stack(s, channels) @ template for s in group])
        for lab, group in (("absent", absent), ("present", present))
    }
    fusion = hotelling_weights(per_slice["absent"], per_slice["present"], ridge_scale)
    return ChoModel(channels=channels, template_central=template, slice_stage=fusion, nt=nt)


def score(model: ChoModel, stack: ImageStack) -> float:
    """Scalar decision variable for one stack."""
    if stack.nt != model.nt:
        raise DimensionMismatchError(
            f"stack has {stack.nt} slices, model expects {model.nt}"
        )
    return float(channelize_stack(stack, model.channels) @ model.template_central
                 @ model.slice_stage)
