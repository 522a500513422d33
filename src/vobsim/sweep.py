"""Experiment orchestration: parameter sweeps over viewing conditions.

A sweep transforms each corpus stack once, as displayed at the base viewing
conditions, while its points start; each point rescales those spectra to its
own display, runs perceive -> observe -> MRMC per method, and writes one CSV
row per (method, sweep value).  Everything is derived from one master seed,
so identical configs produce byte-identical CSV output.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace as dc_replace
from pathlib import Path

import numpy as np

from . import observer, percept, stackgen, stats
from .csf import FieldGeometry
from .errors import ConfigError, DomainError
from .stackgen import (
    LesionSpec,
    ViewingConditions,
    atomic_open,
    generate_corpus,
    normalize_to_display,
    write_json,
)

__all__ = [
    "SweepConfig",
    "TrendReport",
    "CSV_COLUMNS",
    "ERRORS_SUFFIX",
    "DEFAULT_GRIDS",
    "viewing_distance",
    "classify_trend",
    "run_sweep",
]

CSV_COLUMNS = [
    "method", "contrast", "l_max", "ssr", "viewing_distance_cm", "browse_speed",
    "auc", "auc_var", "error_bar", "d_prime", "n_cases", "n_readers", "master_seed",
]
ERRORS_SUFFIX = ".errors.json"  # a failed sweep's error manifest is the CSV path plus this

DEFAULT_GRIDS = {  # every sweepable parameter, with the values it is swept over by default
    "contrast": [50.0, 100.0, 200.0, 400.0, 800.0],
    "l_max": [100.0, 200.0, 300.0, 500.0, 800.0],
    "ssr": [1.5, 30.0, 120.0, 250.0, 500.0],
    "browse_speed": [10.0, 50.0, 200.0, 800.0, 3200.0],
}
_MIN_TREND_POINTS = 3  # the fewest sweep values, and d' points, a trend label is read from

DISPLAY_WIDTH_CM = 3.0
DISPLAY_WIDTH_PX = 64


def viewing_distance(ssr: float) -> float:
    """Viewing distance in cm for a sampling rate of ``ssr`` pixels/degree.

    Assumes DISPLAY_WIDTH_PX pixels displayed across DISPLAY_WIDTH_CM on the
    panel, viewed orthogonally: d = width / (2 * tan(width_px * pi / (360 * ssr))).
    """
    if not ssr > 0:
        raise DomainError(f"ssr must be positive, got {ssr!r}")
    half_angle = DISPLAY_WIDTH_PX * math.pi / (360.0 * ssr)
    if not 0 < half_angle < math.pi / 2:  # 0 once 360 * ssr overflows (ssr above ~5e305)
        raise DomainError(
            f"ssr {ssr!r} gives no finite positive viewing distance in the orthogonal-viewing model"
        )
    return DISPLAY_WIDTH_CM / (2.0 * math.tan(half_angle))


def classify_trend(d_primes, error_bars) -> str:
    """Label a sweep as increasing, decreasing, peaked, or constant.

    A difference counts only when it exceeds the two points' combined error
    bars.  "Peaked" means some interior point significantly exceeds both
    endpoints; "increasing"/"decreasing" mean the net endpoint change is
    significant with no significant reversal along the way.
    """
    d = np.asarray(d_primes, dtype=float)
    b = np.asarray(error_bars, dtype=float)
    if d.size < _MIN_TREND_POINTS or b.size != d.size:
        raise DomainError(f"classify_trend needs at least {_MIN_TREND_POINTS} matched points")

    for i in range(1, d.size - 1):
        if d[i] - d[0] > b[i] + b[0] and d[i] - d[-1] > b[i] + b[-1]:
            return "peaked"
    diffs = np.diff(d)
    combined = b[:-1] + b[1:]
    net = d[-1] - d[0]
    net_bar = b[0] + b[-1]
    if net > net_bar and not np.any(diffs < -combined):
        return "increasing"
    if -net > net_bar and not np.any(diffs > combined):
        return "decreasing"
    return "constant"


# Least valid n_pairs (a case split needs MIN_PER_CLASS cases per class) and n_readers.
_LEAST_INT = {"n_pairs": stats.MIN_PER_CLASS, "n_readers": 1}
# The config sections whose keys are SweepConfig fields of the same name.
_SECTIONS = {"corpus": ["n_pairs", "nx", "ny", "nt", "beta", "lesion", "master_seed"],
             "observer": ["n_channels", "spread", "n_readers"]}
# The config key of each of those fields, for error messages.
_KEY = {n: f"{section}.{n}" for section, names in _SECTIONS.items() for n in names}


def _finite(name: str, value) -> float:
    """``value`` as a finite float; JSON booleans and non-numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name}: must be a number, got {value!r}")
    if not -sys.float_info.max <= value <= sys.float_info.max:  # NaN compares false
        raise ConfigError(f"{name}: must be finite, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SweepConfig:
    """A validated run configuration (see ``SweepConfig.from_dict``)."""

    methods: tuple[str, ...] = percept.METHODS
    parameter: str = "contrast"
    values: tuple[float, ...] = ()
    viewing: ViewingConditions = field(default_factory=ViewingConditions)
    n_pairs: int = 200
    nx: int = 64
    ny: int | None = None  # defaults to nx
    nt: int = 32
    beta: float = 3.0
    lesion: LesionSpec = field(default_factory=LesionSpec)
    master_seed: int = 0
    n_channels: int = 15
    spread: float = observer.SPREAD
    n_readers: int = 4

    def __post_init__(self):
        if not self.methods:
            raise ConfigError("methods: at least one method is required")
        for m in self.methods:
            if m not in percept.METHODS:
                raise ConfigError(f"methods: unknown method {m!r}")
            if self.methods.count(m) > 1:  # each would write the same rows twice
                raise ConfigError(f"methods: {m!r} is listed more than once")
        if self.parameter not in tuple(DEFAULT_GRIDS):  # by equality: a JSON list is unhashable
            raise ConfigError(f"sweep.parameter: must be one of {tuple(DEFAULT_GRIDS)}, "
                              f"got {self.parameter!r}")
        values = self.values or tuple(DEFAULT_GRIDS[self.parameter])
        object.__setattr__(self, "values", tuple(_finite("sweep.values", v) for v in values))
        if len(self.values) < _MIN_TREND_POINTS:
            raise ConfigError(f"sweep.values: need {_MIN_TREND_POINTS} or more for a trend, "
                              f"got {len(self.values)}")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ConfigError("sweep.values: must be strictly increasing")
        if self.ny is None:
            object.__setattr__(self, "ny", self.nx)
        for name in ("n_pairs", "nx", "ny", "nt", "master_seed", "n_channels", "n_readers"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{_KEY[name]}: must be an integer, got {value!r}")
            if name in _LEAST_INT and value < _LEAST_INT[name]:
                raise ConfigError(f"{_KEY[name]}: must be at least {_LEAST_INT[name]}, got {value}")
        beta, spread = (_finite(_KEY[name], getattr(self, name)) for name in ("beta", "spread"))
        for name, message in (*stackgen.corpus_faults(self.n_pairs, self.nx, self.ny, self.nt,
                                                      beta, self.master_seed),
                              *observer.channel_faults(self.nx, self.ny, self.n_channels, spread)):
            raise ConfigError(f"{_KEY[name]}: {message}")  # the first fault
        reader_bytes = 2 * self.n_pairs * self.nt * self.n_channels * 8  # one MC reader's features
        if self.n_readers * reader_bytes > sys.maxsize:
            raise ConfigError(f"observer.n_readers: {self.n_readers} readers' MC features of "
                              f"{reader_bytes} bytes each exceed any address space")
        for v in self.values:  # every point's viewing conditions, distance and field must exist
            key = "sweep.values"
            try:
                vc = self.vc_at(v)
                # Past ViewingConditions' own checks, only ssr can fail the distance or field.
                key = key if self.parameter == "ssr" else "viewing.ssr"
                viewing_distance(vc.ssr)
                FieldGeometry(x0=self.nx / vc.ssr, l_avg=vc.l_max)
            except DomainError as exc:
                raise ConfigError(f"{key}: {exc}") from exc

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepConfig":
        def take(mapping, allowed, context):
            if not isinstance(mapping, dict):
                raise ConfigError(f"{context}: must be an object, got {mapping!r}")
            unknown = sorted(set(mapping) - set(allowed))
            if unknown:
                raise ConfigError(f"{', '.join(f'{context}.{k}' for k in unknown)}: unknown key")
            return dict(mapping)

        def listed(value, context):
            if not isinstance(value, list):
                raise ConfigError(f"{context}: must be a list, got {value!r}")
            return tuple(value)

        take(raw, ["version", "methods", "sweep", "viewing", "corpus", "observer"], "config")
        if type(raw.get("version", 1)) is not int or raw.get("version", 1) != 1:
            raise ConfigError(f"version: unsupported config version {raw.get('version')!r}")
        kwargs = {}
        if "methods" in raw:
            kwargs["methods"] = tuple(str(m).upper() for m in listed(raw["methods"], "methods"))
        sweep = take(raw.get("sweep", {}), ["parameter", "values"], "sweep")
        if "parameter" in sweep:
            kwargs["parameter"] = sweep["parameter"]
        if "values" in sweep:
            kwargs["values"] = listed(sweep["values"], "sweep.values")
        corpus = take(raw.get("corpus", {}), _SECTIONS["corpus"], "corpus")
        subs = {"viewing": ("viewing", ViewingConditions, raw.get("viewing", {})),
                "lesion": ("corpus.lesion", LesionSpec, corpus.pop("lesion", {}))}
        for context, kind, mapping in subs.values():  # every value is checked before any is used
            for k, v in take(mapping, [f.name for f in fields(kind)], context).items():
                _finite(f"{context}.{k}", v)
        for name, (context, kind, mapping) in subs.items():
            try:
                kwargs[name] = kind(**mapping)
            except DomainError as exc:
                raise ConfigError(f"{context}: {exc}") from exc
        kwargs.update(corpus)
        kwargs.update(take(raw.get("observer", {}), _SECTIONS["observer"], "observer"))
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path) -> "SweepConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"config: not valid JSON ({exc})") from exc
        return cls.from_dict(raw)

    def vc_at(self, value: float) -> ViewingConditions:
        return dc_replace(self.viewing, **{self.parameter: value})


@dataclass
class TrendReport:
    """Per-method d' trends over the sweep, with labels and d' over its peak (None if peak <= 0)."""

    parameter: str
    values: tuple[float, ...]
    d_primes: dict[str, list[float]]
    error_bars: dict[str, list[float]]
    normalized: dict[str, list[float | None]]
    labels: dict[str, str]
    inconclusive: dict[str, bool]


def _run_point(config: SweepConfig, spectrum, method: str, point: int, labels: np.ndarray,
               channels: observer.LgChannelSet, split):
    # spectrum(i): stack i's spectrum, once made; CancelledError if the transform failed first.
    vc = config.vc_at(config.values[point])
    # Each stack's spectrum is rescaled to this point's display and perceived;
    # only what the readers train on or score outlives the stack.
    if method == "MC":
        # Reader r perceives stack i as its own draw, seeded [master_seed, point, r, i], from one
        # McSource per stack.  Draws are projected only where a reader trains on them; a test
        # draw is scored from the trained reader's spectral template.
        def perceived(i):
            source = percept.McSource.of(percept.displayed(spectrum(i), config.viewing, vc), vc)
            return lambda r: source.draw([config.master_seed, point, r, i])

        test_idx, trains = split
        feats = [np.empty((t.size, config.nt, config.n_channels)) for t in trains]
        for i in np.unique(np.concatenate(trains)).tolist():
            draw = perceived(i)
            for r, (t, f) in enumerate(zip(trains, feats)):
                if i in t:
                    f[t == i] = observer.channelize_spectrum(draw(r), channels)
        del draw  # the last training stack's source, which the test half would keep alive
        scorers = [observer.spectral_scorer(observer.train_features(f, labels[t]), channels)
                   for t, f in zip(trains, feats)]
        scores = np.array([[score(draw(r)) for r, score in enumerate(scorers)]
                           for draw in map(perceived, test_idx.tolist())])
        reader_scores = [stats.CaseScores(s, labels[test_idx], r) for r, s in enumerate(scores.T)]
    else:
        apply = percept.apply_lf if method == "LF" else percept.apply_pm
        specs = (percept.displayed(spectrum(i), config.viewing, vc) for i in range(labels.size))
        features = np.stack([observer.channelize_spectrum(apply(spec, vc), channels)
                             for spec in specs])
        reader_scores = stats.make_readers(features, labels, split)
    res = stats.mrmc_one_shot(stats.McmcInput(readers=reader_scores))
    return {  # the writer orders the columns, and refuses one CSV_COLUMNS lacks
        "method": method,
        **asdict(vc),
        "viewing_distance_cm": viewing_distance(vc.ssr),
        "auc": res.auc_mean,
        "auc_var": res.auc_variance,
        "error_bar": res.error_bar,
        "d_prime": res.d_prime,
        "n_cases": res.n_absent + res.n_present,
        "n_readers": res.n_readers,
        "master_seed": config.master_seed,
    }


def run_sweep(config: SweepConfig, csv_path, threads: int = 1) -> TrendReport:
    """Run the full sweep, write the CSV, and return the trend report.

    Sweep points are jobs on a bounded pool that start while the calling thread
    transforms the corpus, but rows are always written in (method, value) order
    so the output does not depend on scheduling.  A mid-run failure leaves the
    completed rows in the CSV plus an error manifest beside it; a run with no
    failure removes the manifest an earlier run left there.
    """
    if threads < 1:
        raise ConfigError(f"threads: must be at least 1, got {threads!r}")
    corpus = generate_corpus(
        config.n_pairs, config.nx, config.ny, config.nt, config.beta,
        config.lesion, config.master_seed,
    )
    labels = np.array([s.signal_present for s in corpus])
    channels = observer.make_channels(config.nx, config.ny, config.n_channels, config.spread)
    split = stats.split_cases(labels, config.master_seed, config.n_readers)  # read by every point
    ready = [Future() for _ in corpus]  # stack i's spectrum, once this thread has made it
    jobs = [(m, i) for m in config.methods for i in range(len(config.values))]
    rows: dict[tuple[str, int], dict] = {}
    failures = []
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        # Dearest points first (METHODS runs cheapest to dearest): threads end on short ones.
        futures = {key: pool.submit(_run_point, config, lambda i: ready[i].result(), *key,
                                    labels, channels, split)
                   for key in sorted(jobs, key=lambda k: -percept.METHODS.index(k[0]))}
        # Meanwhile this thread transforms each stack and drops it: the corpus is never held twice.
        for i, spectrum in enumerate(ready):
            spectrum.set_result(percept.forward(normalize_to_display(corpus[i], config.viewing)))
            corpus[i] = None
        for key in jobs:
            try:
                rows[key] = futures[key].result()
            except Exception as exc:  # noqa: BLE001 - reported in the manifest
                failures.append({"method": key[0], "value": config.values[key[1]],
                                 "error": type(exc).__name__, "message": str(exc)})
    finally:  # a no-op after a clean run; after a bad stack or an interrupt at any time,
        for spectrum in ready:  # the points waiting for a spectrum end, and no other starts
            spectrum.cancel()
        pool.shutdown(cancel_futures=True)

    with atomic_open(csv_path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for key in jobs:
            if key in rows:
                writer.writerow(rows[key])

    manifest_path = f"{csv_path}{ERRORS_SUFFIX}"
    if failures:
        write_json(manifest_path, {"failures": failures})
        raise DomainError(
            f"{len(failures)} sweep point(s) failed; see {manifest_path}"
        )
    Path(manifest_path).unlink(missing_ok=True)  # an earlier run's names failures this CSV lacks

    d_primes, error_bars, normalized, trends, inconclusive = {}, {}, {}, {}, {}
    for method in config.methods:
        points = [rows[(method, i)] for i in range(len(config.values))]
        dp = d_primes[method] = [r["d_prime"] for r in points]
        # The CSV error bar is on the AUC scale; trend classification compares
        # d' values, so propagate the bar through d'(AUC) (delta method).
        eb = error_bars[method] = [_dprime_error_bar(r["d_prime"], r["error_bar"])
                                   for r in points]
        peak = max(dp)
        inconclusive[method] = peak <= 0
        normalized[method] = [v / peak if peak > 0 else None for v in dp]
        trends[method] = classify_trend(dp, eb)
    return TrendReport(config.parameter, config.values, d_primes, error_bars, normalized,
                       trends, inconclusive)


def _dprime_error_bar(dp: float, auc_error_bar: float) -> float:
    # d(d')/d(AUC) = 2*sqrt(pi)*exp((d'/2)^2), capped to keep saturated
    # points from producing infinite bars.
    slope = 2.0 * math.sqrt(math.pi) * math.exp(min((dp / 2.0) ** 2, 50.0))
    return auc_error_bar * slope
