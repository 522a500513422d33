import numpy as np
import pytest

from vobsim import observer, percept
from vobsim.errors import DomainError, SaturationError
from vobsim.stackgen import (
    LesionSpec,
    ViewingConditions,
    generate_corpus,
    normalize_to_display,
)
from vobsim.stats import (
    CaseScores,
    McmcInput,
    auc,
    d_prime,
    make_readers,
    mrmc_one_shot,
)


def scores_from(pos, neg, reader_id=0):
    return CaseScores(
        scores=np.concatenate([neg, pos]),
        labels=np.concatenate([np.zeros(len(neg), bool), np.ones(len(pos), bool)]),
        reader_id=reader_id,
    )


def simulate_ensemble(rng, n_readers=4, n_per_class=100, d=1.2, sigma_reader=0.6):
    """Scores with a shared case effect plus reader-by-case noise."""
    n = 2 * n_per_class
    labels = np.concatenate([np.zeros(n_per_class, bool), np.ones(n_per_class, bool)])
    case_effect = rng.standard_normal(n) + d * labels
    per_reader = case_effect[None, :] + sigma_reader * rng.standard_normal((n_readers, n))
    return [CaseScores(scores=per_reader[r], labels=labels, reader_id=r)
            for r in range(n_readers)]


class TestAuc:
    def test_perfect_separation(self):
        assert auc(scores_from(pos=np.array([3.0, 4.0]), neg=np.array([1.0, 2.0]))) == 1.0

    def test_shuffled_labels_near_half(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(2000)
        labels = rng.permutation(np.arange(2000) < 1000)
        got = auc(CaseScores(scores=values, labels=labels))
        assert abs(got - 0.5) < 3 * np.sqrt(0.25 / 1000)

    def test_hand_listed_pairs(self):
        pos = np.array([5.0, 3.0, 2.0, 2.0, 9.0])
        neg = np.array([1.0, 2.0, 4.0, 0.0, 6.0])
        # brute-force pair enumeration
        want = 0.0
        for y in pos:
            for x in neg:
                want += 1.0 if y > x else (0.5 if y == x else 0.0)
        want /= 25.0
        assert auc(scores_from(pos, neg)) == pytest.approx(want, abs=0)

    def test_one_class_rejected(self):
        with pytest.raises(DomainError):
            auc(CaseScores(scores=np.arange(5.0), labels=np.ones(5, bool)))

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        s = scores_from(rng.standard_normal(40) + 1, rng.standard_normal(40))
        warped = CaseScores(scores=np.exp(3 * s.scores), labels=s.labels)
        assert auc(warped) == auc(s)


class TestMrmcOneShot:
    def test_identical_perfect_readers(self):
        readers = [scores_from(np.array([3.0, 4, 5]), np.array([0.0, 1, 2]), r)
                   for r in range(4)]
        res = mrmc_one_shot(McmcInput(readers=readers))
        assert res.auc_mean == 1.0
        assert res.auc_variance == 0.0
        # d' is taken at the AUC clamped to 1 - 1/(2 n0 n1), with 3 cases per class.
        assert res.d_prime == d_prime(1 - 1 / 18)
        assert res.n_readers == 4

    def test_single_reader_fallback_matches_ustat(self):
        rng = np.random.default_rng(2)
        reader = scores_from(rng.standard_normal(30) + 1, rng.standard_normal(25))
        res = mrmc_one_shot(McmcInput(readers=[reader]))
        assert res.n_readers == 1
        # Independent U-statistic variance: var = auc^2 - mean of s_ij s_i'j'
        # over distinct case pairs, computed by brute force.
        pos = reader.scores[reader.labels]
        neg = reader.scores[~reader.labels]
        s = (pos[None, :] > neg[:, None]) + 0.5 * (pos[None, :] == neg[:, None])
        n0, n1 = s.shape
        acc = 0.0
        cnt = 0
        for i in range(n0):
            for ip in range(n0):
                if ip == i:
                    continue
                for j in range(n1):
                    for jp in range(n1):
                        if jp == j:
                            continue
                        acc += s[i, j] * s[ip, jp]
                        cnt += 1
        want = max(0.0, s.mean() ** 2 - acc / cnt)
        assert res.auc_variance == pytest.approx(want, rel=1e-10)
        # A Python float, so that the CSV writer's repr() is a plain number.
        assert type(res.auc_variance) is float

    def test_mismatched_labels_rejected(self):
        a = scores_from(np.array([1.0, 2]), np.array([0.0, 1]))
        b = CaseScores(scores=np.arange(4.0), labels=np.array([1, 0, 1, 0], bool))
        with pytest.raises(DomainError):
            McmcInput(readers=[a, b])

    def test_variance_tracks_replicates(self):
        # One-shot estimate agrees with the empirical variance of the
        # reader-averaged AUC over regenerated replicates.
        rng = np.random.default_rng(3)
        reps = 600
        aucs, estimates = [], []
        for _ in range(reps):
            readers = simulate_ensemble(rng, n_per_class=50)
            res = mrmc_one_shot(McmcInput(readers=readers))
            aucs.append(res.auc_mean)
            estimates.append(res.auc_variance)
        empirical = np.var(aucs, ddof=1)
        assert np.mean(estimates) == pytest.approx(empirical, rel=0.25)

    def test_error_bar_scales_with_cases(self):
        rng = np.random.default_rng(4)
        small = np.mean([
            mrmc_one_shot(McmcInput(simulate_ensemble(rng, n_per_class=50))).error_bar
            for _ in range(60)
        ])
        large = np.mean([
            mrmc_one_shot(McmcInput(simulate_ensemble(rng, n_per_class=200))).error_bar
            for _ in range(60)
        ])
        assert small / large == pytest.approx(2.0, rel=0.3)


class TestDPrime:
    def test_half_is_zero(self):
        assert d_prime(0.5) == 0.0

    def test_erf_anchor(self):
        # AUC = (1 + erf(1)) / 2 maps to d' = 2.
        assert d_prime(0.9213503964748574) == pytest.approx(2.0, rel=1e-9)

    def test_saturation(self):
        with pytest.raises(SaturationError):
            d_prime(1.0)
        with pytest.raises(SaturationError):
            d_prime(0.0)

    def test_monotone_in_auc(self):
        pos = np.array([1.0, 2.0, 3.0])
        neg = np.array([0.0, 1.0, 2.5])
        base = d_prime(auc(scores_from(pos, neg)))
        pos2 = pos.copy()
        pos2[0] = 1.5  # break the tie upward
        assert d_prime(auc(scores_from(pos2, neg))) > base

    def test_scale_invariance_through_auc(self):
        rng = np.random.default_rng(5)
        s = scores_from(rng.standard_normal(30) + 1, rng.standard_normal(30))
        scaled = CaseScores(scores=5.0 * s.scores, labels=s.labels)
        assert d_prime(auc(scaled)) == d_prime(auc(s))


@pytest.fixture(scope="module")
def small_corpus():
    vc = ViewingConditions()
    lesion = LesionSpec(amplitude=0.4, sigma_xy=2.5, sigma_t=1.5)
    corpus = generate_corpus(10, 16, 16, 8, 2.5, lesion, master_seed=21)
    return [normalize_to_display(s, vc) for s in corpus], vc


def features_of(stacks):
    ch = observer.make_channels(stacks[0].nx, stacks[0].ny, 15)
    return np.stack([observer.channelize_stack(s, ch) for s in stacks])


def labels_of(stacks):
    return [s.signal_present for s in stacks]


class TestMakeReaders:
    def test_deterministic(self, small_corpus):
        stacks, _ = small_corpus
        a = make_readers([features_of(stacks)] * 2, labels_of(stacks), 9)
        b = make_readers([features_of(stacks)] * 2, labels_of(stacks), 9)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.scores, rb.scores)

    def test_single_reader_reduction(self, small_corpus):
        stacks, _ = small_corpus
        readers = make_readers([features_of(stacks)], labels_of(stacks), 9)
        assert len(readers) == 1
        res = mrmc_one_shot(McmcInput(readers=readers))
        assert res.n_readers == 1

    def test_common_test_set(self, small_corpus):
        stacks, _ = small_corpus
        readers = make_readers([features_of(stacks)] * 3, labels_of(stacks), 9)
        for r in readers[1:]:
            assert np.array_equal(r.labels, readers[0].labels)

    def test_mc_seed_creates_reader_variability(self, small_corpus):
        stacks, vc = small_corpus

        def reader_features(reader):
            return features_of([
                percept.perceive(s, "MC", vc, mc_seed=[reader, i])
                for i, s in enumerate(stacks)
            ])

        # Reader 1 trains on the same subset in both calls, so any difference
        # in its scores comes from its own MC perception.
        f0, f1 = reader_features(0), reader_features(1)
        same = make_readers([f0, f0], labels_of(stacks), 9)[1]
        drawn = make_readers([f0, f1], labels_of(stacks), 9)[1]
        assert not np.array_equal(same.scores, drawn.scores)

    def test_insufficient_cases(self):
        vc = ViewingConditions()
        corpus = generate_corpus(2, 16, 16, 8, 2.0, LesionSpec(amplitude=0.2), 3)
        stacks = [normalize_to_display(s, vc) for s in corpus]
        with pytest.raises(DomainError):
            make_readers([features_of(stacks)] * 2, labels_of(stacks), 0)

    def test_no_readers(self, small_corpus):
        stacks, _ = small_corpus
        with pytest.raises(DomainError):
            make_readers([], labels_of(stacks), 0)
