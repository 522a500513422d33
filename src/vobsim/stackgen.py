"""Synthetic image stacks: generation, lesion insertion, display normalization, I/O.

A stack is a small 3D volume (x, y, t) of luminance values browsed
slice-by-slice in time.  Backgrounds are power-law filtered Gaussian noise;
signal-present cases get a separable 3D Gaussian bump added at the volume
center.  Display normalization linearly maps each stack onto
[l_max/contrast, l_max] so every case is shown at the same effective
contrast.
"""

from __future__ import annotations

import json
import os
import struct
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateStackError,
    DimensionMismatchError,
    DomainError,
    MalformedHeaderError,
    TruncatedPayloadError,
)

__all__ = [
    "LABEL_ABSENT",
    "LABEL_PRESENT",
    "ImageStack",
    "ViewingConditions",
    "LesionSpec",
    "center_offsets",
    "normalize_to_display",
    "write_stack",
    "read_stack",
    "generate_corpus",
    "write_manifest",
    "atomic_open",
    "write_json",
]

LABEL_ABSENT = "signal-absent"
LABEL_PRESENT = "signal-present"

_MAGIC = b"VOBSTACK"
_DTYPE_F64 = 0
_HEADER = struct.Struct("<6I")  # nx, ny, nt, dtype tag, label, reserved
_SEED = struct.Struct("<Q")


@dataclass
class ImageStack:
    """An x-by-y-by-t volume of luminance values with its generation seed."""

    data: np.ndarray
    label: str = LABEL_ABSENT
    seed: int = 0

    def __post_init__(self):
        if np.iscomplexobj(self.data):
            raise DomainError("stack data must be real-valued")
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise DimensionMismatchError(f"stack data must be 3D, got shape {self.data.shape}")
        if self.label not in (LABEL_ABSENT, LABEL_PRESENT):
            raise DomainError(f"unknown stack label {self.label!r}")

    @property
    def nx(self) -> int:
        return self.data.shape[0]

    @property
    def ny(self) -> int:
        return self.data.shape[1]

    @property
    def nt(self) -> int:
        return self.data.shape[2]

    @property
    def signal_present(self) -> bool:
        return self.label == LABEL_PRESENT


@dataclass(frozen=True)
class ViewingConditions:
    """Display and browsing parameters shared by a whole experiment point."""

    l_max: float = 300.0  # cd/m^2
    contrast: float = 200.0  # effective contrast C = l_max / l_min
    ssr: float = 7.0  # pixels per degree
    browse_speed: float = 25.0  # slices per second

    def __post_init__(self):
        for name, value in vars(self).items():
            least = 1 if name == "contrast" else 0
            if not least < value < np.inf:  # NaN compares false
                raise DomainError(f"{name} must be finite and exceed {least}, got {value!r}")
        if not (self.l_max <= 1e6 and self.l_min >= 1e-6):  # far beyond any display
            raise DomainError(f"l_max must be <= 1e6 and l_max/contrast >= 1e-6 cd/m^2, got {self}")

    @property
    def l_min(self) -> float:
        return self.l_max / self.contrast


@dataclass(frozen=True)
class LesionSpec:
    """A separable Gaussian bump at the volume center: peak height, spatial/temporal widths."""

    # Peak height (in nominal [0, 1] background units) frozen after a one-time
    # calibration: the PM method at the default viewing conditions then lands
    # at a mid-range d' (between 1 and 2), clear of floor and ceiling.
    amplitude: float = 0.25
    sigma_xy: float = 6.0  # pixels
    sigma_t: float = 3.0  # slices

    def __post_init__(self):
        if not 0 <= self.amplitude < np.inf:  # NaN compares false
            raise DomainError(f"lesion amplitude must be finite and non-negative, "
                              f"got {self.amplitude!r}")
        for name in ("sigma_xy", "sigma_t"):  # the bump divides by 2 sigma^2
            value = getattr(self, name)
            if not (value > 0 and 0 < 2.0 * float(value) * float(value) < np.inf):
                raise DomainError(f"lesion {name} must be positive with 2 {name}^2 a positive "
                                  f"finite float, got {value!r}")


def _shaping_filter(nx: int, ny: int, nt: int, beta: float) -> np.ndarray:
    """Radial amplitude |f|^(-beta/2) on the rfftn half grid, 0 at the DC."""
    fx = np.fft.fftfreq(nx)[:, None, None]
    fy = np.fft.fftfreq(ny)[None, :, None]
    ft = np.fft.rfftfreq(nt)[None, None, :]
    radius = np.sqrt(fx**2 + fy**2 + ft**2)
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(radius > 0, radius ** (-beta / 2.0), 0.0)


def center_offsets(n: int) -> np.ndarray:
    """Each voxel's offset along an axis of ``n`` voxels from the geometric volume center."""
    return np.arange(n) - (n - 1) / 2.0


def _lesion_profile(shape: tuple[int, int, int], lesion: LesionSpec) -> np.ndarray:
    """The lesion's bump on a volume of ``shape``."""
    nx, ny, nt = shape
    with np.errstate(over="ignore"):  # far narrower than a voxel: exp(-inf) = 0 off center
        gx = np.exp(-(center_offsets(nx) ** 2) / (2.0 * lesion.sigma_xy**2))
        gy = np.exp(-(center_offsets(ny) ** 2) / (2.0 * lesion.sigma_xy**2))
        gt = np.exp(-(center_offsets(nt) ** 2) / (2.0 * lesion.sigma_t**2))
    return lesion.amplitude * gx[:, None, None] * gy[None, :, None] * gt[None, None, :]


def normalize_to_display(stack: ImageStack, vc: ViewingConditions) -> ImageStack:
    """Linearly map the stack so its min is l_min and its max l_max exactly."""
    lo = stack.data.min()
    hi = stack.data.max()
    if hi == lo:
        raise DegenerateStackError("cannot normalize a constant stack")
    span = vc.l_max - vc.l_min
    data = stack.data - lo  # then l_min + data * (span / (hi - lo)), in place
    data *= span / (hi - lo)
    data += vc.l_min
    return replace(stack, data=data)


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Write to a file beside ``path`` that replaces it once closed; on error ``path`` is kept."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_json(path, obj) -> None:
    """Write ``obj`` as indented, strictly valid JSON (no NaN or infinity), atomically."""
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, allow_nan=False)
        fh.write("\n")


def write_stack(stack: ImageStack, path) -> None:
    """Write a stack in the fixed binary layout (little-endian, x fastest)."""
    label_code = 1 if stack.signal_present else 0
    header = _HEADER.pack(stack.nx, stack.ny, stack.nt, _DTYPE_F64, label_code, 0)
    payload = stack.data.astype("<f8").ravel(order="F").tobytes()
    with atomic_open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(header)
        fh.write(_SEED.pack(stack.seed & 0xFFFFFFFFFFFFFFFF))
        fh.write(payload)


def read_stack(path) -> ImageStack:
    """Read a stack written by :func:`write_stack`; strict on every header field."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(_MAGIC) + _HEADER.size + _SEED.size:
        raise MalformedHeaderError(f"{path}: file shorter than header")
    if raw[: len(_MAGIC)] != _MAGIC:
        raise MalformedHeaderError(f"{path}: bad magic bytes")
    offset = len(_MAGIC)
    nx, ny, nt, dtype_tag, label_code, reserved = _HEADER.unpack_from(raw, offset)
    offset += _HEADER.size
    (seed,) = _SEED.unpack_from(raw, offset)
    offset += _SEED.size
    if dtype_tag != _DTYPE_F64:
        raise MalformedHeaderError(f"{path}: unknown dtype tag {dtype_tag}")
    if label_code not in (0, 1) or reserved != 0:
        raise MalformedHeaderError(f"{path}: invalid label/reserved fields")
    if min(nx, ny, nt) == 0:
        raise MalformedHeaderError(f"{path}: zero dimension in header")
    if nx != ny:
        raise DimensionMismatchError(f"{path}: slices must be square, got {nx}x{ny}")
    expected = nx * ny * nt * 8
    payload = raw[offset:]
    if len(payload) != expected:
        raise TruncatedPayloadError(
            f"{path}: payload is {len(payload)} bytes, header promises {expected}"
        )
    data = np.frombuffer(payload, dtype="<f8").reshape((nx, ny, nt), order="F")
    label = LABEL_PRESENT if label_code else LABEL_ABSENT
    return ImageStack(data=data.copy(), label=label, seed=seed)


def corpus_faults(n_pairs: int, nx: int, ny: int, nt: int, beta: float, master_seed: int):
    if n_pairs < 1:
        yield "n_pairs", f"n_pairs must be at least 1, got {n_pairs}"
    if nx != ny:  # the viewing geometry takes the field size from one side
        yield "ny", f"slices must be square, got {nx}x{ny}"
    if master_seed < 0:
        yield "master_seed", f"master_seed must be non-negative, got {master_seed}"
    for name, n in (("nx", nx), ("ny", ny), ("nt", nt)):
        if n < 8:
            yield name, f"{name} must be at least 8, got {n}"
        if n % 2 != 0:
            yield name, f"{name} must be even for the spectral pipeline, got {n}"
    if not 0 <= beta < np.inf:  # NaN compares false
        yield "beta", f"beta must be finite and non-negative, got {beta!r}"
    if nx * ny * nt * 8 > sys.maxsize:  # one float64 stack beyond any address space
        yield "nx", f"nx {nx}, ny {ny} and nt {nt} make a stack larger than any address space"
    elif 2 * n_pairs * nx * ny * nt * 8 > sys.maxsize:  # the 2 n_pairs stacks a corpus keeps
        yield "n_pairs", (f"n_pairs {n_pairs}, nx {nx}, ny {ny} and nt {nt} make a corpus "
                          f"larger than any address space")


def generate_corpus(
    n_pairs: int, nx: int, ny: int, nt: int, beta: float, lesion: LesionSpec, master_seed: int
) -> list[ImageStack]:
    """Generate n_pairs (absent, present) stack pairs from one master seed.

    Each background is white Gaussian noise shaped in the 3D frequency domain
    with radial amplitude |f|^(-beta/2) (power spectrum slope -beta; beta = 0
    keeps white noise), then mapped affinely onto [0, 1].  Its present twin
    adds the lesion's bump.  Per-pair RNG streams are spawned from
    SeedSequence(master_seed), so the corpus is reproducible end-to-end and
    pairs are independent of ordering.
    """
    for _, message in corpus_faults(n_pairs, nx, ny, nt, beta, master_seed):
        raise DomainError(message)
    # Every background is drawn and filtered in these two buffers.
    try:
        noise, half = np.empty((nx, ny, nt)), np.empty((nx, ny, nt // 2 + 1), dtype=complex)
    except (MemoryError, ValueError) as exc:  # ValueError: larger than any address space
        raise DomainError(f"nx {nx}, ny {ny} and nt {nt} make a stack too large to "
                          f"allocate ({exc})") from exc
    shaping, bump = _shaping_filter(nx, ny, nt, beta), _lesion_profile((nx, ny, nt), lesion)
    stacks = []
    for child in np.random.SeedSequence(master_seed).spawn(n_pairs):
        np.random.default_rng(child).standard_normal(out=noise)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite range raises below
            np.fft.rfftn(noise, out=half)
            half *= shaping
            np.fft.ifft(half, axis=0, out=half)
            np.fft.ifft(half, axis=1, out=half)
            absent = np.fft.irfft(half, n=nt, axis=2)  # the stack the corpus keeps
            lo, hi = absent.min(), absent.max()
            span = hi - lo
        if not 0 < span < np.inf:  # NaN compares false
            raise DomainError(f"beta {beta!r} leaves the background without a finite range")
        absent -= lo
        absent /= span
        # The first pair's check makes and frees a sum of its own.  Freeing a
        # full-size array raises glibc's mmap threshold above a stack's size, so
        # the kept stacks then come from the heap, whose pages a later call in
        # the same process reuses instead of faulting in new ones.
        if not stacks and lesion.amplitude > 0 and np.array_equal(absent + bump, absent):
            raise DomainError(f"lesion amplitude {lesion.amplitude!r}, sigma_xy "
                              f"{lesion.sigma_xy!r} and sigma_t {lesion.sigma_t!r} change "
                              f"no voxel: present stacks would equal their absent twins")
        seed = int(child.generate_state(1, np.uint64)[0])
        stacks += [ImageStack(absent, seed=seed), ImageStack(absent + bump, LABEL_PRESENT, seed)]
    return stacks


def write_manifest(path, entries, master_seed: int) -> None:
    """Write a JSON batch manifest listing the (file, label) ``entries`` and the master seed."""
    write_json(path, {"version": 1, "master_seed": int(master_seed),
                      "stacks": [{"path": str(p), "label": lab} for p, lab in entries]})

