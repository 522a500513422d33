"""Multi-slice channelized Hotelling observer (type 'b').

Each slice is reduced to a feature vector by Laguerre-Gauss channels.  A
Hotelling template is trained on the central slice's features and applied
to every slice, and a second Hotelling stage fuses the resulting per-slice
scalars into one decision variable per stack.

The channels are linear, so by Parseval a slice's features can be read off
its 2D spectrum: <g, c_j> = sum_k conj(C_j(k)) G(k) / (nx ny), with C_j and G
the 2D DFTs.  Applied to every temporal frequency of a half 3D spectrum and
followed by a 1D inverse real FFT over time, that gives the features of
every slice of the stack the spectrum stands for, with no 3D inverse
transform (``channelize_spectrum``).  Training and scoring work on
(N, nt, C) feature tensors; ``train``/``score`` adapt them to stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft
from scipy.special import eval_laguerre

from .errors import DimensionMismatchError, DomainError, SingularCovarianceError
from .percept import SpectralStack, check_symmetric
from .stackgen import ImageStack, center_offsets

__all__ = [
    "SPREAD",
    "LgChannelSet",
    "ChoModel",
    "make_channels",
    "channelize",
    "channelize_stack",
    "channelize_spectrum",
    "hotelling_weights",
    "train_features",
    "score_features",
    "train",
    "score",
]

SPREAD = 10.0  # the LG channel width a, in pixels, unless a caller sets it


@dataclass(frozen=True)
class LgChannelSet:
    """Laguerre-Gauss channels sampled on an nx-by-ny grid.

    Channel j is exp(-pi r^2 / a^2) * L_j(2 pi r^2 / a^2) with r measured in
    pixels from the geometric slice center, each normalized to unit energy.
    ``matrix`` has one column per channel, flattened in C order; ``spectral``
    holds conj(fft2(c_j)) / (nx * ny), shape (C, nx * ny), C-order bins.
    """

    nx: int
    ny: int
    matrix: np.ndarray
    spectral: np.ndarray


def make_channels(nx: int, ny: int, n_channels: int, spread: float = SPREAD) -> LgChannelSet:
    if not 1 <= n_channels <= nx * ny:  # more channels than pixels are linearly dependent
        raise DomainError(f"n_channels must be between 1 and nx * ny = {nx * ny}, got {n_channels}")
    a2 = spread * spread  # a float product gives 0 or inf where spread**2 would raise
    if not (spread > 0 and 0 < a2 < math.inf):
        raise DomainError(f"spread must be positive with a finite non-zero square, got {spread!r}")
    x, y = center_offsets(nx)[:, None], center_offsets(ny)[None, :]
    g = 2.0 * np.pi * (x**2 + y**2) / a2
    cols = []
    for j in range(n_channels):
        with np.errstate(all="ignore"):  # an underflowed or overflowed channel is refused below
            ch = np.exp(-g / 2.0) * eval_laguerre(j, g)
            norm = np.linalg.norm(ch)
        if not 0 < norm < math.inf:
            raise DomainError(f"spread {spread!r} gives LG channel {j} no finite non-zero norm "
                              f"on a {nx}x{ny} slice")
        cols.append(ch.ravel() / norm)
    matrix = np.column_stack(cols)
    spectral = np.conj(scipy.fft.fft2(matrix.T.reshape(-1, nx, ny))).reshape(n_channels, -1)
    return LgChannelSet(nx=nx, ny=ny, matrix=matrix, spectral=spectral / (nx * ny))


def _check_slices(shape: tuple[int, ...], channels: LgChannelSet) -> None:
    if shape != (channels.nx, channels.ny):
        raise DimensionMismatchError(f"slices {'x'.join(map(str, shape))} do not match channels "
                                     f"{channels.nx}x{channels.ny}")


def channelize(slice2d: np.ndarray, channels: LgChannelSet) -> np.ndarray:
    """Project one slice onto the channel set: v_j = <slice, c_j>."""
    slice2d = np.asarray(slice2d, dtype=float)
    _check_slices(slice2d.shape, channels)
    return channels.matrix.T @ slice2d.ravel()


def channelize_stack(stack: ImageStack, channels: LgChannelSet) -> np.ndarray:
    """Feature vectors for every slice of a stack, shape (nt, n_channels)."""
    _check_slices((stack.nx, stack.ny), channels)
    flat = stack.data.reshape(stack.nx * stack.ny, stack.nt)
    return flat.T @ channels.matrix


def channelize_spectrum(spec: SpectralStack, channels: LgChannelSet) -> np.ndarray:
    """Features of every slice of ``inverse(spec)``, shape (nt, C), with no 3D transform."""
    nx, ny, nt = spec.dims
    _check_slices((nx, ny), channels)
    check_symmetric(spec)  # as inverse does
    # np.dot, not @: matmul holds the GIL through a complex gemm, so sweep threads would queue.
    return scipy.fft.irfft(np.dot(channels.spectral, spec.half.reshape(nx * ny, -1)),
                           n=nt, axis=1).T


def hotelling_weights(
    feats_absent: np.ndarray,
    feats_present: np.ndarray,
    ridge_scale: float = 1e-6,
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

    template_central: np.ndarray
    slice_stage: np.ndarray
    channels: LgChannelSet | None = None  # set by ``train``, for ``score``


def train_features(feats: np.ndarray, labels: np.ndarray) -> ChoModel:
    """Train the type 'b' observer on an (N, nt, C) feature tensor with boolean labels.

    Stage 1 learns a Hotelling template from the central-slice channel
    vectors; stage 2 learns Hotelling weights over the per-slice scalars
    that template produces across all slices.
    """
    labels = np.asarray(labels, dtype=bool)
    central = feats[:, feats.shape[1] // 2]
    template = hotelling_weights(central[~labels], central[labels])
    per_slice = feats @ template
    fusion = hotelling_weights(per_slice[~labels], per_slice[labels])
    return ChoModel(template_central=template, slice_stage=fusion)


def score_features(model: ChoModel, feats: np.ndarray) -> np.ndarray:
    """Decision variables of an (N, nt, C) feature tensor, shape (N,)."""
    if feats.shape[1] != model.slice_stage.size:
        raise DimensionMismatchError(
            f"stack has {feats.shape[1]} slices, model expects {model.slice_stage.size}"
        )
    return feats @ model.template_central @ model.slice_stage


def train(stacks: list[ImageStack], channels: LgChannelSet) -> ChoModel:
    """Train the type 'b' observer on labeled stacks (see ``train_features``)."""
    if not stacks:
        raise DomainError("no training stacks given")
    if any(s.nt != stacks[0].nt for s in stacks):
        raise DimensionMismatchError("training stacks differ in slice count")
    feats = np.stack([channelize_stack(s, channels) for s in stacks])
    model = train_features(feats, [s.signal_present for s in stacks])
    return replace(model, channels=channels)


def score(model: ChoModel, stack: ImageStack) -> float:
    """Scalar decision variable for one stack."""
    return float(score_features(model, channelize_stack(stack, model.channels)[None])[0])
