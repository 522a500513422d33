import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy._core._multiarray_umath import __cpu_features__

from vobsim import stackgen
from vobsim.errors import (
    DegenerateStackError,
    DimensionMismatchError,
    DomainError,
    MalformedHeaderError,
    StackFormatError,
    TruncatedPayloadError,
)
from vobsim.stackgen import (
    LABEL_ABSENT,
    LABEL_PRESENT,
    ImageStack,
    LesionSpec,
    ViewingConditions,
    atomic_open,
    generate_corpus,
    normalize_to_display,
    read_stack,
    write_json,
    write_manifest,
    write_stack,
)


class TestAtomicWrites:
    def test_failed_write_leaves_existing_file_untouched(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_open(path) as fh:
                fh.write("partial")
                raise RuntimeError("disk full")
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_failed_json_write_leaves_existing_file_untouched(self, tmp_path):
        path = tmp_path / "report.json"
        write_json(path, {"a": 1})
        with pytest.raises(TypeError):
            write_json(path, {"a": 2, "b": object()})
        assert path.read_text() == '{\n  "a": 1\n}\n'
        assert os.listdir(tmp_path) == ["report.json"]
        with pytest.raises(ValueError):  # NaN and infinity are not JSON
            write_json(path, {"a": float("nan")})
        assert path.read_text() == '{\n  "a": 1\n}\n'

    def test_success_replaces_file(self, tmp_path):
        path = tmp_path / "s.vstk"
        path.write_bytes(b"junk")
        stack = ImageStack(data=np.arange(8.0 * 8 * 8).reshape(8, 8, 8))
        write_stack(stack, path)
        assert np.array_equal(read_stack(path).data, stack.data)
        assert os.listdir(tmp_path) == ["s.vstk"]


class TestImageStack:
    def test_rejects_complex_data(self):
        data = np.ones((8, 8, 8), dtype=complex)
        data[1, 2, 3] = 1 + 2j
        with pytest.raises(DomainError, match="real-valued"):
            ImageStack(data=data)

    def test_rejects_data_that_is_not_3d(self):
        with pytest.raises(DimensionMismatchError, match="must be 3D"):
            ImageStack(data=np.ones((8, 8)))

    def test_rejects_an_unknown_label(self):
        with pytest.raises(DomainError, match="unknown stack label"):
            ImageStack(data=np.ones((8, 8, 8)), label="signal-maybe")


class TestViewingConditions:
    def test_defaults(self):
        vc = ViewingConditions()
        assert (vc.l_max, vc.contrast, vc.ssr, vc.browse_speed) == (300.0, 200.0, 7.0, 25.0)
        assert vc.l_min == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(DomainError):
            ViewingConditions(contrast=1.0)
        with pytest.raises(DomainError):
            ViewingConditions(l_max=0.0)
        with pytest.raises(DomainError, match="l_max"):
            ViewingConditions(l_max=2e6)
        with pytest.raises(DomainError, match="contrast"):
            ViewingConditions(l_max=1e-3, contrast=2000.0)


def _background(side, nt, beta, seed):
    """The absent stack of the one-pair corpus of ``seed``."""
    return generate_corpus(1, side, side, nt, beta, LesionSpec(), seed)[0]


class TestGenerateBackground:
    def test_determinism(self):
        a = _background(16, 8, 3.0, 11)
        b = _background(16, 8, 3.0, 11)
        assert np.array_equal(a.data, b.data)
        assert a.seed == b.seed

    def test_different_seeds_differ(self):
        a = _background(16, 8, 3.0, 11)
        b = _background(16, 8, 3.0, 12)
        assert not np.array_equal(a.data, b.data)

    def test_range_and_label(self):
        s = _background(16, 8, 2.0, 1)
        assert s.data.min() == 0.0
        assert s.data.max() == 1.0
        assert np.all(np.isfinite(s.data))
        assert s.label == LABEL_ABSENT

    def test_white_noise_uncorrelated(self):
        # beta = 0: lag-1 sample autocorrelation is 0 within 3 standard errors.
        s = _background(32, 16, 0.0, 3)
        x = s.data.ravel()
        x = x - x.mean()
        rho = np.dot(x[:-1], x[1:]) / np.dot(x, x)
        assert abs(rho) < 3.0 / np.sqrt(x.size)

    def test_power_law_slope(self):
        # Fitted log-log radial power slope approximates -beta.
        beta = 3.0
        fx = np.fft.fftfreq(32)[:, None, None]
        fy = np.fft.fftfreq(32)[None, :, None]
        ft = np.fft.fftfreq(16)[None, None, :]
        radius = np.sqrt(fx**2 + fy**2 + ft**2).ravel()
        backgrounds = generate_corpus(50, 32, 32, 16, beta, LesionSpec(), 1000)[0::2]
        power = np.mean([np.abs(np.fft.fftn(s.data)) ** 2 for s in backgrounds], axis=0).ravel()
        mask = (radius > 0.05) & (radius < 0.4)
        slope = np.polyfit(np.log(radius[mask]), np.log(power[mask]), 1)[0]
        assert slope == pytest.approx(-beta, abs=0.3)

    def test_rejects_bad_dims(self):
        with pytest.raises(DomainError, match="nx must be at least 8"):
            _background(4, 8, 1.0, 0)
        with pytest.raises(DomainError, match="nt must be even"):
            _background(16, 9, 1.0, 0)
        with pytest.raises(DomainError, match="beta"):
            _background(16, 8, -1.0, 0)

    def test_filter_matches_fresh_evaluation(self):
        # Alternating beta must give what filtering with a freshly built
        # filter gives.
        for beta in (0.0, 3.0, 0.0, 3.0):
            ss = np.random.SeedSequence(9).spawn(1)[0]
            shaping = stackgen._shaping_filter(16, 16, 8, beta)
            noise = np.random.default_rng(ss).standard_normal((16, 16, 8))
            shaped = np.fft.irfftn(np.fft.rfftn(noise) * shaping, s=noise.shape, axes=(0, 1, 2))
            want = (shaped - shaped.min()) / (shaped.max() - shaped.min())
            assert np.array_equal(_background(16, 8, beta, 9).data, want)

    @settings(max_examples=40, deadline=None)
    @given(
        side=st.integers(4, 12).map(lambda n: 2 * n),
        nt=st.integers(4, 12).map(lambda n: 2 * n),
        beta=st.floats(0.0, 4.0),
        seed=st.integers(0, 2**64),
    )
    def test_half_spectrum_filter_is_the_full_grid_filter(self, side, nt, beta, seed):
        # Filtering the half spectrum of real noise gives, within rounding,
        # what filtering its full spectrum with the full-grid filter gives,
        # and the affine map still puts the extremes exactly at 0 and 1.
        dims = (side, side, nt)
        fx, fy, ft = np.meshgrid(*map(np.fft.fftfreq, dims), indexing="ij", sparse=True)
        radius = np.sqrt(fx**2 + fy**2 + ft**2)
        with np.errstate(divide="ignore"):
            shaping = np.where(radius > 0, radius ** (-beta / 2.0), 0.0)
        child = np.random.SeedSequence(seed).spawn(1)[0]  # the corpus's first pair
        noise = np.random.default_rng(child).standard_normal(dims)
        shaped = np.fft.ifftn(np.fft.fftn(noise) * shaping).real
        want = (shaped - shaped.min()) / (shaped.max() - shaped.min())
        got = _background(side, nt, beta, seed).data
        assert np.max(np.abs(got - want)) <= 1e-14
        assert (got.min(), got.max()) == (0.0, 1.0)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_rejects_non_finite_beta(self, beta):
        with pytest.raises(DomainError, match="beta"):
            _background(16, 8, beta, 0)

    @pytest.mark.parametrize("dims, beta", [((64, 64, 32), 400.0), ((16, 16, 8), 1000.0)])
    def test_overflowing_beta_raises_instead_of_nan(self, dims, beta):
        # The power-law filter overflows; the error names beta, with no
        # RuntimeWarning on the way and no all-NaN stack.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="beta"):
                _background(dims[0], dims[2], beta, 0)


class TestInsertLesion:
    def test_zero_amplitude_only_flips_label(self):
        lesion = LesionSpec(amplitude=0.0, sigma_xy=2, sigma_t=1)
        bg, out = generate_corpus(1, 16, 16, 8, 1.0, lesion, 5)
        assert np.array_equal(out.data, bg.data)
        assert out.label == LABEL_PRESENT

    def test_peak_height_at_center(self):
        # The center (7.5, 7.5, 3.5) lies half a voxel from voxel (7, 7, 3) on each axis.
        lesion = LesionSpec(amplitude=0.7, sigma_xy=2, sigma_t=1)
        bg, out = generate_corpus(1, 16, 16, 8, 1.0, lesion, 5)
        peak = 0.7 * np.exp(-1 / (4 * 2**2)) * np.exp(-1 / (8 * 1**2))
        assert out.data[7, 7, 3] - bg.data[7, 7, 3] == pytest.approx(peak, rel=1e-12)

    def test_added_energy_matches_brute_force(self):
        amp, sxy, st_ = 0.4, 2.0, 1.5
        lesion = LesionSpec(amplitude=amp, sigma_xy=sxy, sigma_t=st_)
        bg, out = generate_corpus(1, 16, 16, 8, 1.0, lesion, 5)
        added = out.data - bg.data
        # Independent voxel-by-voxel accumulation of the bump energy.
        expected = 0.0
        for x in range(16):
            for y in range(16):
                for t in range(8):
                    g = np.exp(-((x - 7.5) ** 2 + (y - 7.5) ** 2) / (2 * sxy**2))
                    g *= np.exp(-((t - 3.5) ** 2) / (2 * st_**2))
                    expected += (amp * g) ** 2
        assert np.sum(added**2) == pytest.approx(expected, rel=1e-9)



class TestNormalizeToDisplay:
    def test_exact_endpoints(self):
        bg = _background(16, 8, 1.0, 2)
        vc = ViewingConditions(l_max=300.0, contrast=200.0)
        out = normalize_to_display(bg, vc)
        assert out.data.min() == pytest.approx(1.5, abs=0)
        assert out.data.max() == pytest.approx(300.0, abs=0)

    def test_idempotent(self):
        bg = _background(16, 8, 1.0, 2)
        vc = ViewingConditions()
        once = normalize_to_display(bg, vc)
        twice = normalize_to_display(once, vc)
        assert np.allclose(once.data, twice.data, rtol=0, atol=1e-12)

    def test_mean_is_affine_image(self):
        bg = _background(16, 8, 1.0, 2)
        vc = ViewingConditions()
        out = normalize_to_display(bg, vc)
        lo, hi = bg.data.min(), bg.data.max()
        gain = (vc.l_max - vc.l_min) / (hi - lo)
        want = vc.l_min + (bg.data.mean() - lo) * gain
        assert out.data.mean() == pytest.approx(want, rel=1e-12)

    def test_leaves_input_untouched(self):
        # A sweep normalizes the shared corpus stacks at every point.
        bg = _background(16, 8, 1.0, 2)
        before = bg.data.tobytes()
        out = normalize_to_display(bg, ViewingConditions())
        assert bg.data.tobytes() == before
        assert not np.shares_memory(out.data, bg.data)

    def test_constant_stack_rejected(self):
        flat = ImageStack(data=np.full((8, 8, 8), 3.0))
        with pytest.raises(DegenerateStackError):
            normalize_to_display(flat, ViewingConditions())


def _with_field(raw, field, value):
    """``raw`` with header field ``field`` (0 is nx) set to ``value``."""
    return raw[:8 + 4 * field] + value.to_bytes(4, "little") + raw[12 + 4 * field:]


class TestStackIO:
    def test_round_trip(self, tmp_path):
        _, lesioned = generate_corpus(1, 16, 16, 8, 2.0, LesionSpec(amplitude=0.3), 9)
        path = tmp_path / "s.vstk"
        write_stack(lesioned, path)
        back = read_stack(path)
        assert np.array_equal(back.data, lesioned.data)
        assert back.label == lesioned.label
        assert back.seed == lesioned.seed

    @settings(max_examples=40, deadline=None)
    @given(
        side=st.integers(4, 16).map(lambda n: 2 * n),
        nt=st.integers(4, 16).map(lambda n: 2 * n),
        beta=st.floats(0.0, 4.0),
        master_seed=st.integers(0, 2**64),
    )
    def test_every_generated_shape_round_trips(self, side, nt, beta, master_seed):
        # Every shape the generator accepts (square, even, >= 8) reads back
        # with the same data bits, label and seed.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.vstk")
            for stack in generate_corpus(1, side, side, nt, beta, LesionSpec(amplitude=0.3),
                                         master_seed):
                write_stack(stack, path)
                back = read_stack(path)
                assert back.data.shape == (side, side, nt)
                assert back.data.tobytes() == stack.data.tobytes()
                assert (back.label, back.seed) == (stack.label, stack.seed)

    def test_payload_size(self, tmp_path):
        stack = ImageStack(data=np.zeros((64, 64, 32)))
        path = tmp_path / "s.vstk"
        write_stack(stack, path)
        header = 8 + 24 + 8
        assert path.stat().st_size == header + 64 * 64 * 32 * 8

    # case: (damage to the bytes of an 8x8x8 stack, error, message after "<path>: ").
    # Header fields are little-endian uint32 after the 8 magic bytes: nx, ny, nt, dtype
    # tag, label, reserved.
    BAD_FILES = {
        "short": (lambda raw: raw[:39], MalformedHeaderError, "file shorter than header"),
        "magic": (lambda raw: b"NOTSTACK" + raw[8:], MalformedHeaderError, "bad magic bytes"),
        "dtype": (lambda raw: _with_field(raw, 3, 1), MalformedHeaderError,
                  "unknown dtype tag 1"),
        "label": (lambda raw: _with_field(raw, 4, 2), MalformedHeaderError,
                  "invalid label/reserved fields"),
        "reserved": (lambda raw: _with_field(raw, 5, 1), MalformedHeaderError,
                     "invalid label/reserved fields"),
        "zero nt": (lambda raw: _with_field(raw, 2, 0)[:40], MalformedHeaderError,
                    "zero dimension in header"),
        "non-square": (lambda raw: _with_field(raw, 1, 16), DimensionMismatchError,
                       "slices must be square, got 8x16"),
        "truncated": (lambda raw: raw[:-16], TruncatedPayloadError,
                      "payload is 4080 bytes, header promises 4096"),
    }

    @pytest.mark.parametrize("case", list(BAD_FILES))
    def test_damaged_header_or_payload_refused(self, tmp_path, case):
        damage, error, message = self.BAD_FILES[case]
        path = tmp_path / "s.vstk"
        write_stack(ImageStack(data=np.zeros((8, 8, 8))), path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(error) as raised:
            read_stack(path)
        assert str(raised.value) == f"{path}: {message}"

    def test_axis_order_x_fastest(self, tmp_path):
        data = np.arange(8 * 8 * 8, dtype=float).reshape((8, 8, 8))
        path = tmp_path / "s.vstk"
        write_stack(ImageStack(data=data), path)
        payload = np.frombuffer(path.read_bytes()[40:], dtype="<f8")
        # First 8 values walk the x axis at y = t = 0.
        assert np.array_equal(payload[:8], data[:, 0, 0])


    @settings(max_examples=300, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
        cut=st.none() | st.integers(0, 200),
        edits=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)), max_size=4),
        header=st.none() | st.tuples(st.integers(0, 5), st.integers(0, 2**32 - 1)),
        extra=st.binary(max_size=16),
    )
    def test_damaged_file_raises_only_stack_format_error(self, dims, cut, edits, header, extra):
        # Truncated, overwritten, re-dimensioned or extended bytes of a
        # written stack either read back as a stack or raise StackFormatError.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.vstk")
            write_stack(ImageStack(data=np.arange(np.prod(dims), dtype=float).reshape(dims)), path)
            raw = bytearray(open(path, "rb").read())
            if header is not None:
                field, value = header
                raw[8 + 4 * field: 12 + 4 * field] = value.to_bytes(4, "little")
            for pos, value in edits:
                raw[pos % len(raw)] = value
            raw = raw[:cut] + extra if cut is not None else raw + extra
            with open(path, "wb") as fh:
                fh.write(raw)
            try:
                stack = read_stack(path)
            except StackFormatError:
                return
            assert stack.data.size * 8 + 40 == len(raw)


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, [("a.vstk", LABEL_ABSENT), ("b.vstk", LABEL_PRESENT)], 77)
        m = json.loads(path.read_text(encoding="utf-8"))
        assert m["version"] == 1
        assert m["master_seed"] == 77
        assert [e["label"] for e in m["stacks"]] == [LABEL_ABSENT, LABEL_PRESENT]


# sha256 over the data bytes, seed and label of every stack of
# generate_corpus(n_pairs, nx, nx, nt, 3.0, LesionSpec(amplitude=0.05), 0),
# recorded with numpy 2.4.6 on x86-64, the same with and without its AVX-512 loops.
CORPUS_SHA256 = {
    (6, 16, 8): "9ef11c610b26a591db6500acc5a8b349c578ce8e26efa1b9d6e5167ca5c15b22",
    (3, 64, 32): "ef8cf72d4365a2e8687008cba1b26034725453999b20f6af15acdf9cd8f8e53b",
}

# Writes the data bytes of generate_corpus(argv[1], argv[2], argv[2], argv[3], 3.0,
# LesionSpec(amplitude=0.05), 0) to stdout.
_CORPUS_PROBE = """
import sys
from vobsim.stackgen import LesionSpec, generate_corpus

n_pairs, side, nt = map(int, sys.argv[1:])
for s in generate_corpus(n_pairs, side, side, nt, 3.0, LesionSpec(amplitude=0.05), 0):
    sys.stdout.buffer.write(s.data.tobytes())
"""

# Grows the corpus after a one-pair warm-up and prints how far the peak RSS
# rose beyond the bytes the corpus keeps.  The peak is VmHWM, which is what
# ru_maxrss reports minus the floor it inherits across exec from the parent
# process (a test runner's own RSS would hide the growth).
_RSS_PROBE = """
from vobsim.stackgen import LesionSpec, generate_corpus

def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))

lesion = LesionSpec(amplitude=0.25)
generate_corpus(1, 64, 64, 32, 3.0, lesion, 0)
before = peak()
corpus = generate_corpus(40, 64, 64, 32, 3.0, lesion, 1)
print(peak() - before - sum(s.data.nbytes for s in corpus))
"""

# The same for the sweep's whole set-up: the corpus, then each stack replaced
# in place by the spectrum of its display, as run_sweep does.  The bound is on
# the growth above the larger of the real corpus and its spectra.
_SETUP_RSS_PROBE = """
from vobsim import percept
from vobsim.stackgen import LesionSpec, ViewingConditions, generate_corpus, normalize_to_display

def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))

lesion, vc = LesionSpec(amplitude=0.25), ViewingConditions()
[percept.forward(normalize_to_display(s, vc)) for s in generate_corpus(1, 64, 64, 32, 3.0, lesion, 0)]
before = peak()
corpus = generate_corpus(40, 64, 64, 32, 3.0, lesion, 1)
real = sum(s.data.nbytes for s in corpus)
for i in range(len(corpus)):
    corpus[i] = percept.forward(normalize_to_display(corpus[i], vc))
print(peak() - before - max(real, sum(s.half.nbytes for s in corpus)))
"""


class TestCorpus:
    @pytest.mark.skipif(np.__version__ != "2.4.6", reason="digest recorded with numpy 2.4.6")
    @pytest.mark.parametrize("n_pairs, side, nt", list(CORPUS_SHA256))
    def test_bytes_pinned(self, n_pairs, side, nt):
        digest = hashlib.sha256()
        for s in generate_corpus(n_pairs, side, side, nt, 3.0, LesionSpec(amplitude=0.05), 0):
            digest.update(s.data.tobytes())
            digest.update(str(s.seed).encode())
            digest.update(s.label.encode())
        assert digest.hexdigest() == CORPUS_SHA256[(n_pairs, side, nt)]

    @pytest.mark.skipif(not __cpu_features__.get("X86_V4"),
                        reason="numpy runs no AVX-512 loops on this CPU: one dispatch to test")
    @pytest.mark.parametrize("n_pairs, side, nt", list(CORPUS_SHA256))
    def test_bytes_do_not_depend_on_simd_dispatch(self, n_pairs, side, nt):
        # numpy's AVX-512 power law and exp round differently from its AVX2 ones; the corpus
        # takes neither, so a process with the AVX-512 loops switched off makes the same bytes.
        src = os.path.dirname(os.path.dirname(stackgen.__file__))
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
               "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        args = [sys.executable, "-c", _CORPUS_PROBE, str(n_pairs), str(side), str(nt)]
        out = subprocess.run(args, env=env, check=True, capture_output=True)
        corpus = generate_corpus(n_pairs, side, side, nt, 3.0, LesionSpec(amplitude=0.05), 0)
        assert out.stdout == b"".join(s.data.tobytes() for s in corpus)

    @settings(max_examples=30, deadline=None)
    @given(
        side=st.integers(4, 12).map(lambda n: 2 * n),
        nt=st.integers(4, 8).map(lambda n: 2 * n),
        n_pairs=st.integers(1, 3),
        beta=st.floats(0.0, 4.0),
        amplitude=st.floats(0.0, 1.0),
        sigma_xy=st.floats(0.5, 8.0),
        sigma_t=st.floats(0.5, 4.0),
        master_seed=st.integers(0, 2**64),
    )
    def test_corpus_is_public_background_and_lesion(self, side, nt, n_pairs, beta, amplitude,
                                                   sigma_xy, sigma_t, master_seed):
        # Each pair is a background mapped exactly onto [0, 1] and, with the
        # same seed, that background plus the lesion's bump, bit for bit.  A
        # lesion that leaves the first pair unchanged (a subnormal amplitude) is
        # rejected; the first background does not depend on the lesion or on n_pairs.
        lesion = LesionSpec(amplitude=amplitude, sigma_xy=sigma_xy, sigma_t=sigma_t)
        bump = stackgen._lesion_profile((side, side, nt), lesion)
        first = _background(side, nt, beta, master_seed).data
        if amplitude > 0 and np.array_equal(first + bump, first):
            with pytest.raises(DomainError, match="change no voxel"):
                generate_corpus(n_pairs, side, side, nt, beta, lesion, master_seed)
            return
        corpus = generate_corpus(n_pairs, side, side, nt, beta, lesion, master_seed)
        assert [s.label for s in corpus] == [LABEL_ABSENT, LABEL_PRESENT] * n_pairs
        assert np.array_equal(corpus[0].data, first)
        for absent, present in zip(corpus[0::2], corpus[1::2]):
            assert absent.seed == present.seed
            assert (absent.data.min(), absent.data.max()) == (0.0, 1.0)
            assert np.array_equal(present.data, absent.data + bump)

    @pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                        reason="measures glibc heap retention through Linux VmHWM")
    def test_no_retained_transients(self):
        # Per pair, only the two kept stacks are allocated at full size; freed
        # temporaries between them would stay in the heap and raise the peak.
        src = os.path.dirname(os.path.dirname(stackgen.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        out = subprocess.run([sys.executable, "-c", _RSS_PROBE], env=env, check=True,
                             capture_output=True, text=True)
        assert int(out.stdout) <= 8 * 2**20

    @pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                        reason="measures glibc heap retention through Linux VmHWM")
    def test_sweep_setup_retains_no_transients(self):
        # Temporaries freed between the kept stacks or spectra, in corpus
        # generation or in the forward loop after it, would raise the peak.
        src = os.path.dirname(os.path.dirname(stackgen.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        out = subprocess.run([sys.executable, "-c", _SETUP_RSS_PROBE], env=env, check=True,
                             capture_output=True, text=True)
        assert int(out.stdout) <= 8 * 2**20

    def test_pairs_share_background(self):
        lesion = LesionSpec(amplitude=0.5, sigma_xy=2, sigma_t=1)
        stacks = generate_corpus(3, 16, 16, 8, 2.0, lesion, 5)
        assert len(stacks) == 6
        for absent, present in zip(stacks[0::2], stacks[1::2]):
            assert absent.label == LABEL_ABSENT
            assert present.label == LABEL_PRESENT
            diff = present.data - absent.data
            assert np.all(diff >= 0)
            peak = 0.5 * np.exp(-1 / (4 * 2**2)) * np.exp(-1 / (8 * 1**2))
            assert diff.max() == pytest.approx(peak, rel=1e-12)

    def test_reproducible_from_master_seed(self):
        kwargs = dict(nx=16, ny=16, nt=8, beta=2.0, lesion=LesionSpec(amplitude=0.2), master_seed=5)
        a = generate_corpus(4, **kwargs)
        b = generate_corpus(4, **kwargs)
        for x, y in zip(a, b):
            assert np.array_equal(x.data, y.data)

    def test_rejects_non_square_slices(self):
        with pytest.raises(DomainError, match="square"):
            generate_corpus(1, 16, 8, 8, 3.0, LesionSpec(amplitude=0.25), 0)

    def test_rejects_negative_master_seed(self):
        with pytest.raises(DomainError, match="master_seed"):
            generate_corpus(1, 16, 16, 8, 3.0, LesionSpec(amplitude=0.25), -1)

    @pytest.mark.parametrize("lesion", [LesionSpec(sigma_xy=0.07), LesionSpec(sigma_t=1e-155)])
    def test_rejects_a_lesion_that_changes_no_voxel(self, lesion):
        with pytest.raises(DomainError, match="sigma_xy .* sigma_t .* change no voxel"):
            generate_corpus(1, 64, 64, 32, 3.0, lesion, 0)

    def test_zero_amplitude_corpus_allowed(self):
        absent, present = generate_corpus(1, 16, 16, 8, 3.0, LesionSpec(amplitude=0.0), 0)
        assert np.array_equal(absent.data, present.data)
        assert present.label == LABEL_PRESENT

    def test_pipeline_preserves_display_range(self):
        vc = ViewingConditions()
        stacks = generate_corpus(2, 16, 16, 8, 3.0, LesionSpec(amplitude=0.3), 1)
        for s in stacks:
            out = normalize_to_display(s, vc)
            assert np.all(np.isfinite(out.data))
            assert out.data.min() >= vc.l_min
            assert out.data.max() <= vc.l_max
