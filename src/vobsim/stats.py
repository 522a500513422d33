"""Figures of merit: AUC, one-shot MRMC variance, d', and reader construction.

The variance of the reader-averaged AUC uses the unbiased U-statistic
moment decomposition for a fully-crossed reader-by-case design: the eight
success moments (same/different reader x same/different absent case x
same/different present case) combined with their count coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfinv

from . import observer
from .errors import DomainError, SaturationError

__all__ = [
    "CaseScores",
    "McmcInput",
    "McmcResult",
    "auc",
    "mrmc_one_shot",
    "d_prime",
    "make_readers",
    "MIN_PER_CLASS",
]


@dataclass
class CaseScores:
    """One reader's scalar decision variables with truth labels."""

    scores: np.ndarray
    labels: np.ndarray  # True for signal-present
    reader_id: int = 0

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        self.labels = np.asarray(self.labels, dtype=bool)
        if self.scores.shape != self.labels.shape or self.scores.ndim != 1:
            raise DomainError("scores and labels must be 1D arrays of equal length")
        if not np.all(np.isfinite(self.scores)):
            raise DomainError("scores must be finite")


@dataclass
class McmcInput:
    """Scores from several readers over one common, fully-crossed case set."""

    readers: list[CaseScores]

    def __post_init__(self):
        if not self.readers:
            raise DomainError("at least one reader is required")
        ref = self.readers[0].labels
        for r in self.readers[1:]:
            if r.labels.shape != ref.shape or not np.array_equal(r.labels, ref):
                raise DomainError("all readers must score the same labeled case set")


@dataclass
class McmcResult:
    auc_mean: float
    auc_variance: float
    error_bar: float  # 2 * std, a 95% confidence half-width
    d_prime: float  # at the clamped AUC, see mrmc_one_shot
    n_readers: int
    n_absent: int
    n_present: int


def _success_matrix(scores: CaseScores) -> np.ndarray:
    """psi(absent_i, present_j): 1 if present wins, 1/2 on ties, else 0."""
    pos = scores.scores[scores.labels]
    neg = scores.scores[~scores.labels]
    if pos.size == 0 or neg.size == 0:
        raise DomainError("need at least one case per class")
    diff = pos[None, :] - neg[:, None]
    return np.where(diff > 0, 1.0, np.where(diff == 0, 0.5, 0.0))


def auc(scores: CaseScores) -> float:
    """Mann-Whitney AUC with the tie convention psi = 1/2."""
    return float(_success_matrix(scores).mean())


def _one_shot_variance(s: np.ndarray) -> float:
    """Unbiased variance of the reader-averaged AUC from the success tensor.

    s has shape (R, n0, n1).  The eight moment sums are built from marginal
    sums by inclusion-exclusion; combined with their coefficients the
    estimator reduces to auc_mean^2 minus the unbiased estimate of mu^2
    (product over fully distinct readers and cases).
    """
    r, n0, n1 = s.shape
    total = s.sum()
    s2 = (s * s).sum()
    sum_a2 = (s.sum(axis=(1, 2)) ** 2).sum()  # same reader
    c = s.sum(axis=2)  # (R, n0)
    d = s.sum(axis=1)  # (R, n1)
    p = s.sum(axis=0)  # (n0, n1)
    sum_c2 = (c * c).sum()
    sum_d2 = (d * d).sum()
    sum_p2 = (p * p).sum()
    sum_g2 = (c.sum(axis=0) ** 2).sum()  # same absent case
    sum_h2 = (d.sum(axis=0) ** 2).sum()  # same present case

    auc_mean = total / (r * n0 * n1)
    if r >= 2:
        # Sum of products over fully distinct (reader, absent, present) tuples.
        distinct = (
            total * total
            - sum_a2 - sum_g2 - sum_h2
            + sum_c2 + sum_d2 + sum_p2
            - s2
        )
        count = r * (r - 1) * n0 * (n0 - 1) * n1 * (n1 - 1)
    else:
        # Single reader: distinct cases only.
        distinct = sum_a2 - sum_c2 - sum_d2 + s2
        count = r * n0 * (n0 - 1) * n1 * (n1 - 1)
    if count == 0:
        raise DomainError("variance needs at least 2 cases per class")
    return max(0.0, float(auc_mean * auc_mean - distinct / count))


def mrmc_one_shot(inp: McmcInput) -> McmcResult:
    """Reader-averaged AUC with its one-shot MRMC variance and d'.

    d' is taken at the AUC clamped to [eps, 1 - eps], eps = 1/(2 n0 n1), so a
    perfectly separated finite sample still has a finite d'.  With a single
    reader the variance falls back to the case-only U-statistic variance.
    """
    s = np.stack([_success_matrix(r) for r in inp.readers])
    r, n0, n1 = s.shape
    variance = _one_shot_variance(s)
    auc_mean = float(s.mean())
    eps = 1.0 / (2.0 * n0 * n1)
    return McmcResult(
        auc_mean=auc_mean,
        auc_variance=variance,
        error_bar=2.0 * float(np.sqrt(variance)),
        d_prime=d_prime(min(max(auc_mean, eps), 1.0 - eps)),
        n_readers=r,
        n_absent=n0,
        n_present=n1,
    )


def d_prime(auc_value: float) -> float:
    """Detectability index d' = 2 * erfinv(2*AUC - 1)."""
    if not 0.0 < auc_value < 1.0:
        raise SaturationError(f"AUC of {auc_value!r} has no finite d'")
    return float(2.0 * erfinv(2.0 * auc_value - 1.0))


# Each reader trains on its own 80 % of the pool, so LF and PM readers differ too.
_TRAIN_FRACTION = 0.8
# The fewest cases of each class that split into a pool and a test half of 2 or more each.
MIN_PER_CLASS = 4


def make_readers(features, labels, master_seed: int) -> list[CaseScores]:
    """Train one virtual reader per feature tensor and score them on a common test half.

    ``features`` holds one (N, nt, C) channel-feature tensor of the labeled
    cases per reader: the same tensor for every reader under LF/PM, one
    drawn tensor each under MC, whose perception is random per reader.
    Cases are split 50/50 per class into a training pool and a test half
    shared by all readers (the one-shot estimator assumes a fully-crossed
    reader-by-case design); each reader trains on its own seeded random
    subset of the pool (``_TRAIN_FRACTION`` of it).
    """
    if len(features) == 0:
        raise DomainError("at least one reader's feature tensor is required")
    labels = np.asarray(labels, dtype=bool)
    idx_absent, idx_present = np.flatnonzero(~labels), np.flatnonzero(labels)
    if min(idx_absent.size, idx_present.size) < MIN_PER_CLASS:
        raise DomainError(f"need at least {MIN_PER_CLASS} cases per class for a disjoint split")

    rng_split = np.random.default_rng([int(master_seed), 0x5B11])
    pools, tests = [], []
    for idx in (idx_absent, idx_present):
        perm = rng_split.permutation(idx)
        pools.append(perm[:idx.size // 2])
        tests.append(perm[idx.size // 2:])
    test_idx = np.concatenate(tests)
    n_train = [min(max(2, int(round(_TRAIN_FRACTION * pool.size))), pool.size) for pool in pools]

    reader_scores = []
    for reader, feats in enumerate(features):
        rng_r = np.random.default_rng([int(master_seed), 0x4EAD, reader])
        train_idx = np.concatenate([rng_r.choice(pool, size=n, replace=False)
                                    for pool, n in zip(pools, n_train)])
        model = observer.train_features(feats[train_idx], labels[train_idx])
        scores = observer.score_features(model, feats[test_idx])
        reader_scores.append(CaseScores(scores, labels[test_idx], reader))
    return reader_scores
