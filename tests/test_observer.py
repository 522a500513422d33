import numpy as np
import pytest
from scipy.special import eval_laguerre
from scipy.stats import norm

from vobsim.errors import DimensionMismatchError, DomainError, SingularCovarianceError
from vobsim.observer import (
    channelize,
    channelize_spectrum,
    channelize_stack,
    hotelling_weights,
    make_channels,
    score,
    score_features,
    spectral_scorer,
    train,
    train_features,
)
from vobsim.percept import SpectralStack, forward
from vobsim.stackgen import LABEL_ABSENT, LABEL_PRESENT, ImageStack, LesionSpec, _lesion_profile


def toy_stacks(rng, n_per_class, nx=16, nt=8, signal=None, noise=1.0):
    """Gaussian-noise stacks; signal (if given) is added to present cases."""
    stacks = []
    for label in (LABEL_ABSENT, LABEL_PRESENT):
        for _ in range(n_per_class):
            data = rng.standard_normal((nx, nx, nt)) * noise + 10.0
            if label == LABEL_PRESENT and signal is not None:
                data = data + signal
            stacks.append(ImageStack(data=data, label=label))
    return stacks


class TestChannels:
    def test_radial_formula(self):
        ch = make_channels(64, 64, n_channels=4, spread=10.0)
        cx = cy = (64 - 1) / 2
        x = np.arange(64)[:, None] - cx
        y = np.arange(64)[None, :] - cy
        r2 = x**2 + y**2
        for j in range(4):
            raw = np.exp(-np.pi * r2 / 100.0) * eval_laguerre(j, 2 * np.pi * r2 / 100.0)
            want = raw.ravel() / np.linalg.norm(raw)
            assert np.allclose(ch.matrix[:, j], want, atol=1e-12)

    def test_unit_energy(self):
        ch = make_channels(64, 64, 15)
        norms = np.linalg.norm(ch.matrix, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_near_orthogonality(self):
        ch = make_channels(64, 64, n_channels=15, spread=10.0)
        gram = ch.matrix.T @ ch.matrix
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 0.05

    @pytest.mark.parametrize("nx, ny", [(7, 7), (8, 8), (9, 12)])
    def test_channels_and_lesion_share_the_center(self, nx, ny):
        # Both are symmetric under x and y flips only about the geometric center of the slice.
        images = make_channels(nx, ny, 5, spread=3.0).matrix.T.reshape(-1, nx, ny)
        bump = _lesion_profile((nx, ny, 5), LesionSpec(sigma_xy=2.0, sigma_t=1.0))
        slices = np.moveaxis(bump, 2, 0)
        for arrays in (images, slices):
            assert np.array_equal(arrays[:, ::-1, :], arrays)
            assert np.array_equal(arrays[:, :, ::-1], arrays)

    # The spread's square must be finite and non-zero, and every channel must keep a finite
    # non-zero norm: far below a pixel, channel 0 underflows to zero everywhere, and a
    # high-order channel overflows its Laguerre polynomial where its Gaussian underflows.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("side, n_channels, spread, message", [
        (64, 0, 10.0, "n_channels must be between 1 and nx * ny = 4096, got 0"),
        (8, 65, 10.0, "n_channels must be between 1 and nx * ny = 64, got 65"),
        *((64, 15, spread, f"spread must be positive with a finite non-zero square, got {spread!r}")
          for spread in (-1.0, 1e308, 1e-170, 1e-320)),
        (64, 15, 0.01, "spread 0.01 gives LG channel 0 no finite non-zero norm on a 64x64 slice"),
        (16, 256, 0.5, "spread 0.5 gives LG channel 200 no finite non-zero norm on a 16x16 slice"),
    ])
    def test_validation(self, side, n_channels, spread, message):
        with pytest.raises(DomainError) as raised:
            make_channels(side, side, n_channels, spread=spread)
        assert str(raised.value) == message

    def test_one_channel_per_pixel_at_most(self):
        # More would be linearly dependent; "more channels than pixels" is the refusal.
        assert make_channels(8, 8, 64).matrix.shape == (64, 64)


class TestChannelize:
    def test_zero_slice(self):
        ch = make_channels(32, 32, 15)
        assert np.array_equal(channelize(np.zeros((32, 32)), ch), np.zeros(15))

    def test_channel_recovers_itself(self):
        ch = make_channels(64, 64, 15)
        v = channelize(ch.matrix[:, 3].reshape(64, 64), ch)
        assert v[3] == pytest.approx(1.0, abs=1e-12)
        others = np.delete(v, 3)
        assert np.abs(others).max() < 0.05

    def test_matches_double_loop(self):
        rng = np.random.default_rng(0)
        slice2d = rng.standard_normal((32, 32))
        ch = make_channels(32, 32, n_channels=5)
        got = channelize(slice2d, ch)
        for j in range(5):
            want = 0.0
            cj = ch.matrix[:, j].reshape(32, 32)
            for a in range(32):
                for b in range(32):
                    want += slice2d[a, b] * cj[a, b]
            assert got[j] == pytest.approx(want, abs=1e-12)

    def test_dimension_mismatch(self):
        ch = make_channels(32, 32, 15)
        with pytest.raises(DimensionMismatchError):
            channelize(np.zeros((16, 16)), ch)

    @pytest.mark.parametrize("dims", [(16, 16, 8), (8, 16, 8), (8, 8, 4)])
    def test_spectrum_dimension_mismatch(self, dims):
        # 8x16 slices have as many bins as 16x8 ones, so the slice sizes are what is compared.
        spec = forward(ImageStack(data=np.random.default_rng(2).random(dims) + 1.0))
        with pytest.raises(DimensionMismatchError, match="do not match channels 16x8"):
            channelize_spectrum(spec, make_channels(16, 8, 3))

    PROJECTIONS = {
        "channelize": lambda data, ch: channelize(data[:, :, 0], ch),
        "channelize_stack": lambda data, ch: channelize_stack(ImageStack(data=data), ch),
        "channelize_spectrum": lambda data, ch: channelize_spectrum(
            forward(ImageStack(data=data + 1.0)), ch),
    }

    @pytest.mark.parametrize("project", list(PROJECTIONS))
    @pytest.mark.parametrize("dims", [(8, 16), (16, 16), (8, 8), (16, 8)],
                             ids=["transposed", "resized-ny", "resized-nx", "matching"])
    def test_every_projection_checks_slice_shape(self, project, dims):
        data = np.random.default_rng(4).random((*dims, 4))
        channels = make_channels(16, 8, 3)
        if dims == (16, 8):
            assert self.PROJECTIONS[project](data, channels).shape[-1] == 3
        else:
            with pytest.raises(DimensionMismatchError,
                               match=f"slices {dims[0]}x{dims[1]} do not match channels 16x8"):
                self.PROJECTIONS[project](data, channels)

    def test_channelize_stack_consistent(self):
        rng = np.random.default_rng(1)
        stack = ImageStack(data=rng.standard_normal((16, 16, 8)))
        ch = make_channels(16, 16, n_channels=6)
        feats = channelize_stack(stack, ch)
        assert feats.shape == (8, 6)
        for t in range(8):
            assert np.allclose(feats[t], channelize(stack.data[:, :, t], ch), atol=1e-12)


class TestHotellingWeights:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(2)
        f0 = rng.standard_normal((200, 6)) @ np.diag([1, 2, 1, 0.5, 1, 3])
        f1 = f0[:100] * 0 + rng.standard_normal((100, 6)) + 0.7
        w = hotelling_weights(f0, f1, ridge_scale=1e-12)
        cov = 0.5 * (np.cov(f0, rowvar=False) + np.cov(f1, rowvar=False))
        want = np.linalg.inv(cov) @ (f1.mean(axis=0) - f0.mean(axis=0))
        assert np.allclose(w, want, rtol=1e-6, atol=1e-9)

    def test_needs_two_per_class(self):
        with pytest.raises(DomainError):
            hotelling_weights(np.zeros((1, 3)), np.ones((5, 3)))

    def test_zero_covariance_with_a_mean_difference_is_singular(self):
        # Two constant classes that differ: a direction to weigh, but no spread to whiten.
        with pytest.raises(SingularCovarianceError, match="nonzero mean difference"):
            hotelling_weights(np.zeros((3, 2)), np.ones((4, 2)))

    def test_rank_deficient_covariance_without_a_ridge_is_singular(self):
        # Two equal features: a covariance with a positive trace and no inverse.
        absent = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(SingularCovarianceError, match="covariance remained singular at ridge"):
            hotelling_weights(absent, absent * 2.0 + 1.0, ridge_scale=0.0)


class TestTrain:
    def test_identical_classes_near_zero_template(self):
        rng = np.random.default_rng(3)
        base = [rng.standard_normal((16, 16, 8)) + 5 for _ in range(8)]
        stacks = [ImageStack(data=d, label=LABEL_ABSENT) for d in base]
        stacks += [ImageStack(data=d.copy(), label=LABEL_PRESENT) for d in base]
        ch = make_channels(16, 16, n_channels=6)
        model = train(stacks, ch)
        assert np.abs(model.template_central).max() < 1e-9
        # downstream: all scores tie, AUC is exactly 1/2 by the tie convention
        scores = [score(model, s) for s in stacks]
        assert np.allclose(scores, scores[0], atol=1e-12)

    def test_scaling_preserves_rank_order(self):
        rng = np.random.default_rng(4)
        signal = np.zeros((16, 16, 8))
        signal[6:10, 6:10, 3:5] = 0.8
        train_stacks = toy_stacks(rng, 10, signal=signal)
        test_stacks = toy_stacks(rng, 10, signal=signal)
        ch = make_channels(16, 16, n_channels=6)
        m1 = train(train_stacks, ch)
        scaled = [
            ImageStack(data=3.0 * s.data, label=s.label) for s in train_stacks
        ]
        m2 = train(scaled, ch)
        s1 = [score(m1, s) for s in test_stacks]
        s2 = [score(m2, ImageStack(data=3.0 * s.data, label=s.label)) for s in test_stacks]
        assert np.array_equal(np.argsort(s1), np.argsort(s2))

    def test_missing_class(self):
        rng = np.random.default_rng(5)
        stacks = [ImageStack(data=rng.random((16, 16, 8))) for _ in range(6)]
        with pytest.raises(DomainError):
            train(stacks, make_channels(16, 16, 15))

    def test_no_stacks(self):
        with pytest.raises(DomainError, match="no training stacks"):
            train([], make_channels(16, 16, 6))

    def test_slice_counts_must_agree(self):
        rng = np.random.default_rng(6)
        stacks = toy_stacks(rng, 2) + toy_stacks(rng, 2, nt=6)
        with pytest.raises(DimensionMismatchError, match="slice count"):
            train(stacks, make_channels(16, 16, 6))


class TestScore:
    def test_training_means_ordered(self):
        rng = np.random.default_rng(6)
        signal = np.zeros((16, 16, 8))
        signal[7:9, 7:9, 3:5] = 1.0
        stacks = toy_stacks(rng, 12, signal=signal)
        ch = make_channels(16, 16, n_channels=6)
        model = train(stacks, ch)
        absent = np.stack([s.data for s in stacks if s.label == LABEL_ABSENT])
        present = np.stack([s.data for s in stacks if s.label == LABEL_PRESENT])
        s_absent = score(model, ImageStack(data=absent.mean(axis=0)))
        s_present = score(model, ImageStack(data=present.mean(axis=0)))
        assert s_present > s_absent

    def test_score_is_affine(self):
        rng = np.random.default_rng(7)
        signal = np.zeros((16, 16, 8))
        signal[7:9, 7:9, 3:5] = 1.0
        model = train(toy_stacks(rng, 8, signal=signal), make_channels(16, 16, n_channels=5))
        x = rng.standard_normal((16, 16, 8))
        y = rng.standard_normal((16, 16, 8))
        sx = score(model, ImageStack(data=x))
        sy = score(model, ImageStack(data=y))
        sxy = score(model, ImageStack(data=x + y))
        s0 = score(model, ImageStack(data=np.zeros((16, 16, 8))))
        assert sxy - sx - sy + s0 == pytest.approx(0.0, abs=1e-9 * max(1, abs(sxy)))

    def test_auc_close_to_analytic_gaussian(self):
        # Signal in iid Gaussian noise: the population observer has
        # d = |signal projected on channels| / sigma and AUC = Phi(d/sqrt(2)).
        rng = np.random.default_rng(8)
        ch = make_channels(16, 16, n_channels=10)
        signal = 0.35 * ch.matrix[:, 0].reshape(16, 16)
        signal3d = np.repeat(signal[:, :, None], 8, axis=2) / np.sqrt(8)
        train_stacks = toy_stacks(rng, 150, signal=signal3d)
        model = train(train_stacks, ch)
        test_stacks = toy_stacks(rng, 100, signal=signal3d)
        scores = np.array([score(model, s) for s in test_stacks])
        labels = np.array([s.label == LABEL_PRESENT for s in test_stacks])
        pos, neg = scores[labels], scores[~labels]
        auc = np.mean(pos[None, :] > neg[:, None])
        # population template: channel features are iid N(0,1); mean shift is
        # the channelized signal summed over slices after the slice stage.
        chan_sig = ch.matrix.T @ signal3d[:, :, 0].ravel()
        d_slice = np.linalg.norm(chan_sig)  # per-slice d
        d_total = d_slice * np.sqrt(8)  # 8 independent slices
        want = norm.cdf(d_total / np.sqrt(2))
        assert auc == pytest.approx(want, abs=0.05)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(9)
        model = train(toy_stacks(rng, 4), make_channels(16, 16, n_channels=4))
        with pytest.raises(DimensionMismatchError):
            score(model, ImageStack(data=np.zeros((16, 16, 6))))


class TestSpectralScorer:
    """A trained reader scores a half spectrum Y as irfft((T . spectral) Y, nt) . w, the
    same decision variable as its channel features of Y."""

    @staticmethod
    def _model(rng, nt, n_channels):
        labels = np.arange(16) % 2 == 1
        feats = rng.standard_normal((16, nt, n_channels)) + 0.5 * labels[:, None, None]
        return train_features(feats, labels)

    @pytest.mark.parametrize("dims", [(16, 16, 8), (8, 8, 16)])
    @pytest.mark.parametrize("energy", ["every kt", "kt = 0", "kt = nt/2"])
    def test_equals_feature_scoring(self, dims, energy):
        nx, ny, nt = dims
        rng = np.random.default_rng(sum(dims))
        channels = make_channels(nx, ny, 5, spread=3.0)
        model = self._model(rng, nt, 5)
        score = spectral_scorer(model, channels)
        for _ in range(8):
            if energy == "every kt":
                data = rng.standard_normal(dims) + 10.0
            elif energy == "kt = 0":  # the same slice at every t
                data = np.repeat(rng.standard_normal((nx, ny, 1)), nt, axis=2)
            else:  # a slice whose sign alternates with t
                data = rng.standard_normal((nx, ny, 1)) * (-1.0) ** np.arange(nt)
            spec = forward(ImageStack(data=data))
            kept = {"every kt": slice(None), "kt = 0": slice(0, 1), "kt = nt/2": slice(-1, None)}
            assert np.abs(spec.half[:, :, kept[energy]]).sum() > 0.99 * np.abs(spec.half).sum()
            feats = channelize_spectrum(spec, channels)
            want = score_features(model, feats[None])[0]
            # Relative to the sum of the magnitudes that make up the decision variable.
            scale = np.abs(feats @ model.template_central) @ np.abs(model.slice_stage)
            assert abs(score(spec) - want) <= 1e-12 * scale

    @pytest.mark.parametrize("dims", [(16, 16, 8), (8, 8, 16)])
    def test_refuses_what_channelize_spectrum_refuses(self, dims):
        nx, ny, nt = dims
        rng = np.random.default_rng(1)
        channels = make_channels(nx, ny, 5, spread=3.0)
        score = spectral_scorer(self._model(rng, nt, 5), channels)
        half = forward(ImageStack(data=rng.standard_normal(dims) + 10.0)).half.copy()
        half[1, 0, 0] += 1.0  # its partner (-1, 0, 0) is left alone
        bad = SpectralStack(half=half, dims=dims)
        for project in (score, lambda spec: channelize_spectrum(spec, channels)):
            with pytest.raises(DomainError, match="imaginary"):
                project(bad)
        wider = forward(ImageStack(data=rng.standard_normal((nx + 2, ny + 2, nt)) + 10.0))
        for project in (score, lambda spec: channelize_spectrum(spec, channels)):
            with pytest.raises(DimensionMismatchError, match="do not match channels"):
                project(wider)
