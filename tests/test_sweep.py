import csv
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from concurrent.futures import Future
from dataclasses import replace as dc_replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from vobsim import observer, percept, stats, sweep
from vobsim.errors import ConfigError, DegenerateStackError, DomainError
from vobsim.stackgen import (
    ImageStack,
    LesionSpec,
    ViewingConditions,
    generate_corpus,
    normalize_to_display,
)
from vobsim.sweep import (
    CSV_COLUMNS,
    DEFAULT_GRIDS,
    SweepConfig,
    classify_trend,
    run_sweep,
    viewing_distance,
)


class TestViewingDistance:
    def test_pinned_default_geometry(self):
        # 64 px over 3 cm at 7 px/deg: d = 3 / (2 tan(64 pi / (360 * 7)))
        want = 3.0 / (2.0 * math.tan(64.0 * math.pi / 2520.0))
        assert viewing_distance(7.0) == pytest.approx(want, rel=1e-12)
        assert 18.0 < viewing_distance(7.0) < 19.0

    def test_monotone_in_ssr(self):
        ds = [viewing_distance(s) for s in (3, 5, 7, 10, 14)]
        assert all(b > a for a, b in zip(ds, ds[1:]))

    def test_rejects_degenerate_geometry(self):
        with pytest.raises(DomainError):
            viewing_distance(0.0)
        with pytest.raises(DomainError):
            # a 64-px field at 0.3 px/deg would span more than 180 degrees
            viewing_distance(0.3)
        with pytest.raises(DomainError, match="ssr 1e\\+308"):
            viewing_distance(1e308)  # 360 * ssr overflows: the field spans no angle


class TestClassifyTrend:
    def test_increasing(self):
        assert classify_trend([1.0, 2.0, 3.0], [0.1, 0.1, 0.1]) == "increasing"

    def test_decreasing(self):
        assert classify_trend([3.0, 2.0, 1.0], [0.1, 0.1, 0.1]) == "decreasing"

    def test_peaked(self):
        assert classify_trend([1.0, 3.0, 1.0], [0.1, 0.1, 0.1]) == "peaked"

    def test_constant_within_bars(self):
        assert classify_trend([1.0, 1.1, 0.9], [0.5, 0.5, 0.5]) == "constant"

    def test_noisy_increase_with_flat_step(self):
        assert classify_trend([0.5, 1.4, 1.3, 2.5], [0.2, 0.2, 0.2, 0.2]) == "increasing"

    def test_needs_three_points(self):
        with pytest.raises(DomainError):
            classify_trend([1.0, 2.0], [0.1, 0.1])


class TestSweepConfig:
    def test_defaults_fill_grid(self):
        cfg = SweepConfig(parameter="ssr")
        assert cfg.values == tuple(DEFAULT_GRIDS["ssr"])

    def test_round_trip_from_dict(self):
        cfg = SweepConfig.from_dict({
            "methods": ["pm", "lf"],
            "sweep": {"parameter": "l_max", "values": [100, 300, 500]},
            "viewing": {"contrast": 400},
            "corpus": {"n_pairs": 8, "nx": 16, "ny": 16, "nt": 8,
                       "lesion": {"amplitude": 0.3}},
            "observer": {"n_readers": 2},
        })
        assert cfg.methods == ("PM", "LF")
        assert cfg.parameter == "l_max"
        assert cfg.values == (100.0, 300.0, 500.0)
        assert cfg.viewing.contrast == 400
        assert cfg.lesion.amplitude == 0.3
        assert cfg.n_readers == 2

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sweep": {"parameter": "browse_speed"}}))
        assert SweepConfig.from_json(path).parameter == "browse_speed"
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            SweepConfig.from_json(bad)

    def test_vc_at_replaces_only_swept_parameter(self):
        cfg = SweepConfig(parameter="contrast", viewing=ViewingConditions(l_max=500))
        vc = cfg.vc_at(800.0)
        assert vc.contrast == 800.0
        assert vc.l_max == 500


def _json_values():
    scalars = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=4))
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=4)
                        | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=8)


def _section(keys):
    # Mostly known keys, so that values reach the field checks.
    return _json_values() | st.dictionaries(st.sampled_from(keys + ["bogus"]), _json_values(),
                                            max_size=len(keys))


_SECTIONS = {
    "version": st.sampled_from([1, 2]) | _json_values(),
    "methods": st.lists(st.sampled_from(["LF", "pm", "Mc", "XX"]), max_size=4) | _json_values(),
    "sweep": st.fixed_dictionaries({}, optional={
        "parameter": st.sampled_from(list(DEFAULT_GRIDS)) | _json_values(),
        "values": st.lists(st.floats() | st.integers(), max_size=5) | _json_values()}),
    "viewing": _section(["l_max", "contrast", "ssr", "browse_speed"]),
    "corpus": st.fixed_dictionaries({}, optional={
        "n_pairs": st.integers(-2, 10) | _json_values(), "nx": _json_values(),
        "ny": st.sampled_from([7, 8, 16]), "nt": _json_values(), "beta": _json_values(),
        "master_seed": _json_values(),
        "lesion": _section(["amplitude", "sigma_xy", "sigma_t"])}),
    "observer": _section(["n_channels", "spread", "n_readers"]),
}


class TestConfigValidation:
    @pytest.mark.parametrize("section, key, value", [
        ("corpus", "nx", "16"),
        ("corpus", "n_pairs", 4.5),
        ("corpus", "nx", True),
        ("corpus", "beta", float("nan")),
        ("observer", "n_readers", 0),
        ("observer", "spread", 1e-170),  # its square underflows to 0
        ("observer", "train_fraction", 0.8),  # an unknown key
        ("viewing", "ssr", "7"),
        ("viewing", "contrast", float("nan")),
    ])
    def test_bad_field_named(self, section, key, value):
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            SweepConfig.from_dict({section: {key: value}})

    @pytest.mark.parametrize("raw, where", [
        ({"bogus": 1}, "config.bogus: unknown key"),
        ({"viewing": {"gamma": 2.2}}, "viewing.gamma: unknown key"),
        ({"sweep": {"parameter": "humidity"}}, "sweep.parameter: must be one of .*'humidity'"),
        ({"sweep": {"values": [100, 50, 200]}}, "sweep.values: must be strictly increasing"),
        ({"sweep": {"values": [100, 200]}}, "sweep.values"),
        ({"sweep": {"values": 100}}, "sweep.values"),
        ({"sweep": {"values": [100, "200", 400]}}, "sweep.values"),
        ({"sweep": {"values": [100, 10**400, 10**401]}}, "sweep.values"),
        ({"methods": None}, "methods"),
        ({"corpus": {"lesion": {"sigma_t": "3"}}}, "corpus.lesion.sigma_t"),
        ({"observer": []}, "observer"),
        ([], "config"),
        ({"sweep": {"parameter": "browse_speed", "values": [-5, 25, 50]}}, "sweep.values"),
        ({"sweep": {"parameter": "ssr", "values": [0.1, 1, 2]}}, "sweep.values"),
        ({"sweep": {"parameter": "contrast", "values": [1, 2, 4]}}, "sweep.values"),
        ({"sweep": {"parameter": "ssr", "values": [1e300, 2e300, 3e300]}}, "sweep.values"),
        ({"sweep": {"parameter": "l_max", "values": [1e5, 1e6, 1e7]}}, "sweep.values"),
        ({"viewing": {"l_max": 1e308}}, "viewing: l_max"),
        ({"corpus": {"lesion": {"sigma_xy": 1e300}}}, "corpus.lesion: lesion sigma_xy"),
        ({"corpus": {"lesion": {"sigma_t": 1e-170}}}, "corpus.lesion: lesion sigma_t"),
        ({"viewing": {"ssr": 1e308}}, "ssr 1e\\+308 gives no finite positive viewing distance"),
        ({"corpus": {"lesion": {"center": [1, 2, 3]}}}, "corpus.lesion.center: unknown key"),
        ({"methods": ["pm", "PM"]}, "methods: 'PM' is listed more than once"),
        # An unswept ssr is named as the viewing key, whatever parameter is swept.
        ({"viewing": {"ssr": 0.1}}, "viewing.ssr: ssr 0.1 gives no finite"),
        # The version is the JSON integer 1, not a boolean or float equal to it.
        ({"version": True}, "version: unsupported config version True"),
        ({"version": 1.0}, "version: unsupported config version 1.0"),
        # One stack beyond any address space, named before nx / ssr can overflow a float.
        ({"corpus": {"nx": 10**400, "ny": 10**400}},
         "corpus.nx: nx 10+, ny 10+ and nt 32 make a stack larger than any address space"),
        # The fault is named by the largest of nx, ny and nt.
        ({"corpus": {"nt": 10**400}}, "corpus.nt: nx 64, ny 64 and nt 10+ make a stack larger"),
    ])
    def test_bad_shape_named(self, raw, where):
        with pytest.raises(ConfigError, match=where):
            SweepConfig.from_dict(raw)

    @pytest.mark.parametrize("key, overrides", [
        ("corpus.nx", {"nx": 6, "ny": 6}),
        ("corpus.nt", {"nt": 9}),
        ("corpus.ny", {"ny": 16}),
        ("corpus.master_seed", {"master_seed": -1}),
        ("corpus.beta", {"beta": -1.0}),
        ("observer.n_channels", {"n_channels": 0}),
        ("observer.n_channels", {"n_channels": 65}),
        ("observer.spread", {"spread": 0.0}),
        ("observer.spread", {"spread": 1e308}),
        ("corpus.nx", {"nx": 10**400, "ny": 10**400}),
        ("corpus.n_pairs", {"n_pairs": 10**30}),
    ])
    def test_corpus_and_channel_faults_carry_their_generators_message(self, key, overrides):
        # The config states no corpus or channel rule of its own: it reports the message
        # generate_corpus or make_channels gives, under the key of the field at fault.
        a = {"n_pairs": 4, "nx": 8, "ny": 8, "nt": 8, "beta": 3.0, "master_seed": 0,
             "n_channels": 4, "spread": 5.0, **overrides}
        with pytest.raises(DomainError) as direct:
            if key.startswith("corpus."):
                generate_corpus(a["n_pairs"], a["nx"], a["ny"], a["nt"], a["beta"], LesionSpec(),
                                a["master_seed"])
            else:
                observer.make_channels(a["nx"], a["ny"], a["n_channels"], a["spread"])
        raw = {"corpus": {k: a[k] for k in ("n_pairs", "nx", "ny", "nt", "beta", "master_seed")},
               "observer": {"n_channels": a["n_channels"], "spread": a["spread"]}}
        with pytest.raises(ConfigError) as via_config:
            SweepConfig.from_dict(raw)
        assert str(via_config.value) == f"{key}: {direct.value}"

    def test_reader_bound_is_the_mc_feature_tensors_size(self):
        # n_readers MC feature tensors of 2 n_pairs x nt x n_channels float64 must fit an
        # address space; one tensor that does not is the corpus's fault, named by n_pairs.
        corpus = {"n_pairs": 4, "nx": 8, "nt": 8}
        most = sys.maxsize // (2 * 4 * 8 * 15 * 8)
        assert SweepConfig.from_dict({"corpus": corpus,
                                      "observer": {"n_readers": most}}).n_readers == most
        with pytest.raises(ConfigError, match=f"observer.n_readers: {most + 1} readers'"):
            SweepConfig.from_dict({"corpus": corpus, "observer": {"n_readers": most + 1}})
        huge = {"corpus": {**corpus, "n_pairs": 10**30}, "observer": {"n_readers": 10**30}}
        with pytest.raises(ConfigError, match=f"corpus.n_pairs: n_pairs {10**30}, nx 8"):
            SweepConfig.from_dict(huge)

    def test_ny_follows_nx(self):
        assert SweepConfig.from_dict({"corpus": {"nx": 32}}).ny == 32
        assert SweepConfig(nx=16).ny == 16

    def test_from_dict_leaves_input_alone(self):
        raw = {"corpus": {"nx": 16, "ny": 16, "lesion": {"amplitude": 0.3}}}
        before = json.dumps(raw)
        cfg = SweepConfig.from_dict(raw)
        assert json.dumps(raw) == before
        assert cfg.lesion.amplitude == 0.3

    @settings(max_examples=300, deadline=None)
    @given(raw=_json_values() | st.fixed_dictionaries({}, optional=_SECTIONS))
    @example(raw={"sweep": {"parameter": []}})  # an unhashable parameter
    @example(raw={"sweep": {"parameter": {}}})
    def test_from_dict_returns_config_or_config_error(self, raw):
        try:
            cfg = SweepConfig.from_dict(raw)
        except ConfigError:
            return
        assert isinstance(cfg, SweepConfig)
        assert len(cfg.values) >= 3 and all(math.isfinite(v) for v in cfg.values)
        assert all(type(getattr(cfg, n)) is int for n in ("n_pairs", "nx", "ny", "nt"))


# Runs an MC sweep of five points whose every point marks its start in the directory
# argv[1] once the transform is over, waits until the SIGINT handler has run and then
# sleeps, so that a signal sent on the first mark lands while the points run, and the
# points outlast the handler however late a loaded host runs it.
# Args: marks directory, CSV path, threads.
_SIGINT_PROBE = """
import pathlib, signal, sys, threading, time
from vobsim import sweep

marks, real_point, interrupted = pathlib.Path(sys.argv[1]), sweep._run_point, threading.Event()

def on_sigint(signum, frame):
    interrupted.set()
    signal.default_int_handler(signum, frame)

def run_point(config, spectrum, method, point, *args):
    spectrum(-1)  # the last spectrum is set last: the transform is over
    (marks / str(point)).touch()
    interrupted.wait(30)
    time.sleep(0.5)
    return real_point(config, spectrum, method, point, *args)

signal.signal(signal.SIGINT, on_sigint)
sweep._run_point = run_point
cfg = sweep.SweepConfig(methods=("MC",), values=(50.0, 100.0, 200.0, 400.0, 800.0), n_pairs=6,
                        nx=16, ny=16, nt=8, n_channels=8, spread=5.0, n_readers=2)
sweep.run_sweep(cfg, sys.argv[2], threads=int(sys.argv[3]))
"""


def tiny_config(**overrides):
    base = dict(
        methods=("PM",),
        parameter="contrast",
        values=(100.0, 200.0, 400.0),
        n_pairs=6,
        nx=16,
        ny=16,
        nt=8,
        n_channels=8,
        spread=5.0,
        n_readers=2,
        master_seed=11,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestDisplayed:
    """A point rescales the spectrum of a stack displayed at the base viewing
    conditions instead of displaying and transforming the stack again."""

    @settings(max_examples=40, deadline=None)
    @given(
        half_dims=st.tuples(st.integers(4, 8), st.integers(4, 6)),
        beta=st.floats(0.0, 4.0),
        amplitude=st.one_of(st.none(), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**16),
        base=st.builds(ViewingConditions, l_max=st.floats(1.0, 2000.0),
                       contrast=st.floats(1.01, 2000.0), ssr=st.floats(1.0, 100.0),
                       browse_speed=st.floats(1.0, 500.0)),
        parameter=st.sampled_from(list(DEFAULT_GRIDS)),
        value=st.floats(1.01, 2000.0),
    )
    def test_matches_transform_of_redisplayed_stack(self, half_dims, beta, amplitude, seed,
                                                     base, parameter, value):
        nx, nt = 2 * half_dims[0], 2 * half_dims[1]
        lesion = LesionSpec(amplitude=amplitude or 0.0, sigma_xy=2.0, sigma_t=1.5)
        try:
            absent, present = generate_corpus(1, nx, nx, nt, beta, lesion, seed)
        except DomainError as exc:  # a subnormal amplitude changes no voxel and is rejected
            assume("change no voxel" not in str(exc))
            raise
        stack = absent if amplitude is None else present
        vc = dc_replace(base, **{parameter: value})
        spec = percept.forward(normalize_to_display(stack, base))
        mapped = percept.displayed(spec, base, vc)
        if parameter in ("ssr", "browse_speed"):
            assert mapped is spec
        want = percept.forward(normalize_to_display(stack, vc))
        assert np.abs(mapped.half - want.half).max() <= 1e-12 * np.abs(want.half).max()
        assert mapped.mean_lum == pytest.approx(want.mean_lum, rel=1e-12, abs=0)
        # The kt = 0 and nt/2 planes stay exactly Hermitian.
        planes = mapped.half[:, :, [0, -1]]
        assert np.array_equal(planes, np.conj(np.roll(planes[::-1, ::-1], 1, axis=(0, 1))))


class TestPointWork:
    """What one 16x16x8 sweep point perceives and projects, counted by patching the steps."""

    @staticmethod
    def _inputs(method, n_readers):
        cfg = tiny_config(methods=(method,), n_pairs=8, n_readers=n_readers)
        corpus = generate_corpus(cfg.n_pairs, cfg.nx, cfg.ny, cfg.nt, cfg.beta, cfg.lesion,
                                 cfg.master_seed)
        labels = np.array([s.signal_present for s in corpus])
        spectra = [percept.forward(normalize_to_display(s, cfg.viewing)) for s in corpus]
        channels = observer.make_channels(cfg.nx, cfg.ny, cfg.n_channels, cfg.spread)
        split = stats.split_cases(labels, cfg.master_seed, n_readers)
        return cfg, spectra, labels, channels, split

    @staticmethod
    def _count(monkeypatch):
        calls = {"of": 0, "draws": [], "projections": 0, "apply": 0}
        real_of, real_draw = percept.McSource.of.__func__, percept.McSource.draw
        real_project = observer.channelize_spectrum

        def of(cls, spec, vc):
            calls["of"] += 1
            return real_of(cls, spec, vc)

        def draw(source, seed):
            calls["draws"].append(tuple(seed))
            return real_draw(source, seed)

        def project(spec, channels):
            calls["projections"] += 1
            return real_project(spec, channels)

        def counted(fn):
            def wrapped(*args):
                calls["apply"] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(percept.McSource, "of", classmethod(of))
        monkeypatch.setattr(percept.McSource, "draw", draw)
        monkeypatch.setattr(observer, "channelize_spectrum", project)
        monkeypatch.setattr(percept, "apply_lf", counted(percept.apply_lf))
        monkeypatch.setattr(percept, "apply_pm", counted(percept.apply_pm))
        return calls

    @pytest.mark.parametrize("n_readers", [1, 3])
    def test_mc_projects_only_the_draws_readers_train_on(self, monkeypatch, n_readers):
        # Each reader draws its own perception of every stack it trains on or scores, all
        # draws of a stack from one McSource; only training draws become channel features.
        cfg, spectra, labels, channels, split = self._inputs("MC", n_readers)
        test_idx, trains = split
        calls = self._count(monkeypatch)
        sweep._run_point(cfg, spectra.__getitem__, "MC", 1, labels, channels, split)
        trained = sum(t.size for t in trains)
        seed = cfg.master_seed
        assert calls["of"] == np.unique(np.concatenate(trains)).size + test_idx.size
        assert calls["of"] <= len(spectra)
        assert sorted(calls["draws"]) == sorted(
            [(seed, 1, r, int(i)) for r, t in enumerate(trains) for i in t]
            + [(seed, 1, r, int(i)) for r in range(n_readers) for i in test_idx])
        assert len(calls["draws"]) == trained + n_readers * test_idx.size
        assert calls["projections"] == trained and calls["apply"] == 0

    @pytest.mark.parametrize("method", ["LF", "PM"])
    def test_lf_and_pm_perceive_and_project_each_stack_once(self, monkeypatch, method):
        cfg, spectra, labels, channels, split = self._inputs(method, 3)
        calls = self._count(monkeypatch)
        sweep._run_point(cfg, spectra.__getitem__, method, 1, labels, channels, split)
        assert calls["apply"] == calls["projections"] == len(spectra)
        assert calls["of"] == 0 and calls["draws"] == []

    @pytest.mark.parametrize("method", ["LF", "PM", "MC"])
    def test_point_reads_each_spectrum_once(self, monkeypatch, method):
        # LF and PM read every stack in index order.  MC reads its readers' training union in
        # index order and then the test half, and builds one McSource per stack it reads.
        cfg, spectra, labels, channels, split = self._inputs(method, 3)
        calls, read = self._count(monkeypatch), []

        def spectrum(i):
            read.append(i)
            return spectra[i]

        sweep._run_point(cfg, spectrum, method, 1, labels, channels, split)
        test_idx, trains = split
        if method == "MC":
            assert read == np.unique(np.concatenate(trains)).tolist() + test_idx.tolist()
            assert calls["of"] == len(read)
        else:
            assert read == list(range(len(spectra)))
        assert len(set(read)) == len(read)

    def test_mc_point_equals_scoring_every_readers_features(self):
        # The same row as projecting every reader's draw of every stack and scoring the
        # test half from those features (make_readers): same draws, training rows and models.
        cfg, spectra, labels, channels, split = self._inputs("MC", 3)
        vc = cfg.vc_at(cfg.values[1])
        features = np.empty((cfg.n_readers, len(spectra), cfg.nt, cfg.n_channels))
        for i, spec in enumerate(spectra):
            source = percept.McSource.of(percept.displayed(spec, cfg.viewing, vc), vc)
            for r in range(cfg.n_readers):
                features[r, i] = observer.channelize_spectrum(
                    source.draw([cfg.master_seed, 1, r, i]), channels)
        readers = [stats.make_readers(f, labels, split)[r] for r, f in enumerate(features)]
        want = stats.mrmc_one_shot(stats.McmcInput(readers=readers))
        row = sweep._run_point(cfg, spectra.__getitem__, "MC", 1, labels, channels, split)
        assert (row["auc"], row["auc_var"], row["d_prime"]) == (
            want.auc_mean, want.auc_variance, want.d_prime)


class TestRunSweep:
    def test_row_count_and_schema(self, tmp_path):
        cfg = tiny_config(methods=("LF", "PM"))
        out = tmp_path / "out.csv"
        report = run_sweep(cfg, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(cfg.methods) * len(cfg.values)
        assert set(report.labels) == {"LF", "PM"}
        for method in cfg.methods:
            assert len(report.d_primes[method]) == 3
            assert all(np.isfinite(report.d_primes[method]))

    @pytest.mark.parametrize("parameter", list(DEFAULT_GRIDS))
    def test_rows_hold_their_viewing(self, tmp_path, parameter):
        # Each row holds its point's viewing: the swept value in its own column, the base
        # viewing in the other three, and the viewing distance of its ssr.
        base = ViewingConditions(l_max=250.0, contrast=150.0, ssr=9.0, browse_speed=30.0)
        out = tmp_path / "out.csv"
        run_sweep(tiny_config(methods=("LF",), parameter=parameter, values=(), viewing=base), out)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(row[parameter]) for row in rows] == DEFAULT_GRIDS[parameter]
        for row in rows:
            vc = dc_replace(base, **{parameter: float(row[parameter])})
            for name in ("contrast", "l_max", "ssr", "browse_speed"):
                assert float(row[name]) == getattr(vc, name)
            assert float(row["viewing_distance_cm"]) == viewing_distance(vc.ssr)

    def test_byte_identical_rerun(self, tmp_path):
        cfg = tiny_config()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_sweep(cfg, a)
        run_sweep(cfg, b, threads=3)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_fields_parse_as_column_types(self, tmp_path):
        out = tmp_path / "types.csv"
        run_sweep(tiny_config(methods=("LF", "PM", "MC")), out)
        ints = {"n_cases", "n_readers", "master_seed"}
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        for row in rows:
            assert set(row) == set(CSV_COLUMNS)
            assert row["method"] in ("LF", "PM", "MC")
            for col in CSV_COLUMNS[1:]:
                (int if col in ints else float)(row[col])

    def test_failed_csv_write_leaves_existing_file_untouched(self, tmp_path, monkeypatch):
        out = tmp_path / "out.csv"
        out.write_text("old\n")

        def fail(self, row):
            raise OSError("disk full")

        monkeypatch.setattr(csv.DictWriter, "writerow", fail)
        with pytest.raises(OSError, match="disk full"):
            run_sweep(tiny_config(), out)
        assert out.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    @pytest.mark.parametrize("methods", [("MC",), ("LF", "PM")])
    def test_forward_once_per_stack_and_point(self, tmp_path, monkeypatch, methods):
        # Viewing parameters only change how a stack is displayed, so each
        # stack is displayed and transformed once per sweep, whatever the
        # methods, points or readers; points rescale the stored spectra.
        # Features come straight from the perceived spectra: no inverse
        # transform runs, and each stack, as generated and as displayed, is
        # freed once its spectrum is published (stacks are transformed in
        # index order, so by the next transform and by the sweep's end).
        calls = {"normalize_to_display": 0, "forward": 0, "inverse": 0}
        generated, displayed = [], []
        real_forward, real_inverse = percept.forward, percept.inverse
        real_normalize, real_generate = sweep.normalize_to_display, sweep.generate_corpus

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        def generate(*args):
            corpus = real_generate(*args)
            generated.extend(weakref.ref(s) for s in corpus)
            return corpus

        def forward(stack):
            published = len(displayed)
            assert [r() for r in generated[:published] + displayed] == [None] * 2 * published
            displayed.append(weakref.ref(stack))
            return real_forward(stack)

        monkeypatch.setattr(sweep, "generate_corpus", generate)
        monkeypatch.setattr(sweep, "normalize_to_display",
                            counting("normalize_to_display", real_normalize))
        monkeypatch.setattr(percept, "forward", counting("forward", forward))
        monkeypatch.setattr(percept, "inverse", counting("inverse", real_inverse))
        cfg = tiny_config(methods=methods, n_readers=3)
        run_sweep(cfg, tmp_path / "count.csv")
        n_stacks = 2 * cfg.n_pairs
        assert calls == {"normalize_to_display": n_stacks, "forward": n_stacks, "inverse": 0}
        assert len(generated) == len(displayed) == n_stacks
        assert all(r() is None for r in generated + displayed)

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("methods", [("MC",), ("LF", "PM")])
    def test_channels_built_once_per_sweep(self, tmp_path, monkeypatch, methods, threads):
        # The channel set and its 2D FFT depend only on the slice size, n_channels and
        # spread, so one set, built once per sweep, serves every point and reader.
        built, used = [], set()
        real_make, real_project = observer.make_channels, observer.channelize_spectrum

        def make(*args, **kwargs):
            built.append(real_make(*args, **kwargs))
            return built[-1]

        def project(spec, channels):
            used.add(id(channels))
            return real_project(spec, channels)

        monkeypatch.setattr(observer, "make_channels", make)
        monkeypatch.setattr(observer, "channelize_spectrum", project)
        run_sweep(tiny_config(methods=methods), tmp_path / "once.csv", threads=threads)
        assert len(built) == 1 and used == {id(built[0])}

    def test_corpus_left_as_generated(self, tmp_path, monkeypatch):
        # Every point and sweep thread reads the same stored spectra (the base
        # point uses them as they are), so no method may write into one, nor
        # into a corpus stack.
        generated, stored = [], []
        real_generate, real_forward = sweep.generate_corpus, percept.forward

        def generate(*args, **kwargs):
            corpus = real_generate(*args, **kwargs)
            generated.extend((s, s.data.tobytes()) for s in corpus)
            return corpus

        def forward(stack):
            spec = real_forward(stack)
            stored.append((spec, spec.half.tobytes(), spec.mean_lum))
            return spec

        monkeypatch.setattr(sweep, "generate_corpus", generate)
        monkeypatch.setattr(percept, "forward", forward)
        run_sweep(tiny_config(methods=("LF", "PM", "MC")), tmp_path / "c.csv", threads=2)
        assert len(generated) == len(stored) == 12
        assert all(s.data.tobytes() == data for s, data in generated)
        assert all(s.half.tobytes() == half and s.mean_lum == mean
                   for s, half, mean in stored)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_cases_split_once_per_sweep(self, tmp_path, monkeypatch, threads):
        # Every point and method reads the sweep's one split: the same test half and the
        # same training subsets all along the sweep.
        splits, points = [], []
        real_split, real_point = stats.split_cases, sweep._run_point

        def split_cases(*args):
            splits.append(real_split(*args))
            return splits[-1]

        def run_point(*args):
            points.append(args[-1])
            return real_point(*args)

        monkeypatch.setattr(stats, "split_cases", split_cases)
        monkeypatch.setattr(sweep, "_run_point", run_point)
        cfg = tiny_config(methods=("LF", "PM", "MC"))
        run_sweep(cfg, tmp_path / "s.csv", threads=threads)
        assert len(splits) == 1
        assert len(points) == len(cfg.methods) * len(cfg.values)
        assert all(split is splits[0] for split in points)

    @staticmethod
    def _ends(monkeypatch, sweep_call):
        # Run a sweep on a helper thread, so that a point left waiting fails the test instead
        # of hanging it (and is then let go); return what the sweep raised, once every thread
        # it started has ended.
        before, raised, ready = threading.active_count(), [], []

        class Recorded(Future):  # the sweep's per-stack futures, which a waiting point reads
            def __init__(self):
                super().__init__()
                ready.append(self)

        def run():
            try:
                sweep_call()
            except BaseException as exc:  # noqa: BLE001 - the KeyboardInterrupt, too
                raised.append(exc)

        monkeypatch.setattr(sweep, "Future", Recorded)
        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=30)
        if runner.is_alive():
            for future in ready:
                future.cancel()
            pytest.fail("the sweep left a point waiting")
        assert threading.active_count() == before
        return raised[0] if raised else None

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("bad", [0, 7])
    def test_constant_stack_ends_the_sweep(self, tmp_path, monkeypatch, threads, bad):
        # The points start while the corpus is displayed, so a stack that cannot be
        # displayed ends the sweep with its own error: the points that wait for its
        # spectrum give up, no error of theirs is reported, and nothing is written.
        real_generate = sweep.generate_corpus

        def generate(*args, **kwargs):
            corpus = real_generate(*args, **kwargs)
            corpus[bad] = ImageStack(data=np.full_like(corpus[bad].data, 0.5),
                                     label=corpus[bad].label)
            return corpus

        monkeypatch.setattr(sweep, "generate_corpus", generate)
        cfg = tiny_config(methods=("LF", "PM", "MC"))
        exc = self._ends(monkeypatch, lambda: run_sweep(cfg, tmp_path / "k.csv", threads=threads))
        assert isinstance(exc, DegenerateStackError) and "constant" in str(exc)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("threads", [1, 3])
    def test_interrupted_transform_ends_the_sweep(self, tmp_path, monkeypatch, threads):
        real_normalize, seen = sweep.normalize_to_display, []

        def normalize(stack, vc):
            seen.append(stack)
            if len(seen) == 5:
                raise KeyboardInterrupt
            return real_normalize(stack, vc)

        monkeypatch.setattr(sweep, "normalize_to_display", normalize)
        cfg = tiny_config(methods=("LF", "PM", "MC"))
        exc = self._ends(monkeypatch, lambda: run_sweep(cfg, tmp_path / "i.csv", threads=threads))
        assert isinstance(exc, KeyboardInterrupt) and len(seen) == 5
        assert os.listdir(tmp_path) == []

    def test_points_racing_a_slow_transform_read_only_spectra(self, tmp_path, monkeypatch):
        # Points read each spectrum while later stacks are still being transformed; a slow
        # transform may stall them but not change what they read.  Three points run at
        # once, with threads switching often.
        cfg = tiny_config(methods=("LF", "PM", "MC"))
        want = tmp_path / "one.csv"
        run_sweep(cfg, want)
        real_forward, real_displayed = percept.forward, percept.displayed
        transformed, read = [], []

        def forward(stack):
            time.sleep(0.05 if len(transformed) % 3 == 0 else 0)
            transformed.append(real_forward(stack))
            return transformed[-1]

        def displayed(spec, base, vc):
            read.append((type(spec), len(transformed)))
            return real_displayed(spec, base, vc)

        monkeypatch.setattr(percept, "forward", forward)
        monkeypatch.setattr(percept, "displayed", displayed)
        got, interval = tmp_path / "three.csv", sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert self._ends(monkeypatch, lambda: run_sweep(cfg, got, threads=3)) is None
        finally:
            sys.setswitchinterval(interval)
        assert {kind for kind, _ in read} == {percept.SpectralStack}
        assert read[0][1] < len(transformed)  # the first point read ran beside the transform
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_interrupted_point_ends_the_sweep(self, tmp_path, monkeypatch, threads):
        # An interrupt while points run ends the sweep as one in the transform does: the
        # points already running finish, no queued point starts, and nothing is written.
        # Point 0 is submitted first, so its call is the sweep's first.
        real_point, started = sweep._run_point, []

        def run_point(*args):
            started.append(args[3])
            if args[3] == 0:
                raise KeyboardInterrupt
            return real_point(*args)

        monkeypatch.setattr(sweep, "_run_point", run_point)
        cfg = tiny_config(methods=("MC",), values=(50.0, 100.0, 200.0, 400.0, 800.0))
        exc = self._ends(monkeypatch, lambda: run_sweep(cfg, tmp_path / "p.csv", threads=threads))
        assert isinstance(exc, KeyboardInterrupt)
        assert 1 <= len(started) <= threads + 1
        assert os.listdir(tmp_path) == []

    @pytest.mark.skipif(os.name != "posix", reason="interrupts the sweep with a POSIX SIGINT")
    @pytest.mark.parametrize("threads", [1, 2])
    def test_sigint_while_points_run_starts_no_further_point(self, tmp_path, threads):
        # Ctrl-C in a real process, once the transform is over and a point runs: the process
        # ends once the running points finish, starts no queued point and writes nothing.
        marks, out = tmp_path / "marks", tmp_path / "out"
        marks.mkdir()
        out.mkdir()
        src = os.path.dirname(os.path.dirname(sweep.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.Popen(
            [sys.executable, "-c", _SIGINT_PROBE, str(marks), str(out / "s.csv"), str(threads)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 30
            while not any(marks.iterdir()) and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.01)
            before = set(marks.iterdir())
            proc.send_signal(signal.SIGINT)
            err = proc.communicate(timeout=30)[1]
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            pytest.fail("the interrupted sweep ran on for 30 s")
        assert before, err  # the signal came while a point ran
        assert err.strip().splitlines()[-1] == "KeyboardInterrupt"
        assert os.listdir(out) == []  # neither the CSV nor an error manifest
        assert len(set(marks.iterdir()) - before) <= threads

    def test_mc_method_runs(self, tmp_path):
        cfg = tiny_config(methods=("MC",), values=(100.0, 200.0, 400.0))
        report = run_sweep(cfg, tmp_path / "mc.csv")
        assert report.labels["MC"] in {"increasing", "decreasing", "peaked", "constant"}

    def test_normalized_peak_is_one(self, tmp_path):
        report = run_sweep(tiny_config(), tmp_path / "n.csv")
        norm = report.normalized["PM"]
        if not report.inconclusive["PM"]:
            assert max(norm) == pytest.approx(1.0, abs=0)

    def test_failure_writes_manifest(self, tmp_path):
        # A negative browse speed is rejected by the viewing-condition
        # model, so that sweep point fails while the others complete.  The
        # config checks refuse it up front, so it is set past them here.
        cfg = SweepConfig(
            methods=("LF",), parameter="browse_speed", values=(5.0, 25.0, 50.0),
            n_pairs=6, nx=16, ny=16, nt=8, n_channels=8, spread=5.0,
            n_readers=2,
        )
        object.__setattr__(cfg, "values", (-5.0, 25.0, 50.0))
        out = tmp_path / "fail.csv"
        with pytest.raises(DomainError, match="sweep point"):
            run_sweep(cfg, out)
        manifest = json.loads((tmp_path / "fail.csv.errors.json").read_text())
        assert len(manifest["failures"]) == 1
        assert manifest["failures"][0]["value"] == -5.0
        # the completed rows are still in the CSV
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3

    def test_good_run_removes_stale_manifest(self, tmp_path):
        # A manifest beside the CSV would describe failures the new CSV does not have.
        cfg = SweepConfig(
            methods=("LF",), parameter="browse_speed", values=(5.0, 25.0, 50.0),
            n_pairs=6, nx=16, ny=16, nt=8, n_channels=8, spread=5.0, n_readers=2,
        )
        failing = dc_replace(cfg)
        object.__setattr__(failing, "values", (-5.0, 25.0, 50.0))
        out = tmp_path / "o.csv"
        with pytest.raises(DomainError, match="sweep point"):
            run_sweep(failing, out)
        assert (tmp_path / "o.csv.errors.json").exists()
        run_sweep(cfg, out)
        assert os.listdir(tmp_path) == ["o.csv"]
        assert len(out.read_text().splitlines()) == 4

    def test_failures_in_method_order_on_any_thread_count(self, tmp_path):
        # Points are submitted dearest method first, but rows and failures are
        # written in (method, value) order, so the files do not depend on threads.
        cfg = SweepConfig(
            methods=("LF", "PM", "MC"), parameter="browse_speed", values=(5.0, 25.0, 50.0),
            n_pairs=6, nx=16, ny=16, nt=8, n_channels=8, spread=5.0, n_readers=2,
        )
        object.__setattr__(cfg, "values", (-5.0, 25.0, 50.0))
        written = []
        for threads in (1, 3):
            out = tmp_path / f"t{threads}.csv"
            with pytest.raises(DomainError, match="3 sweep point"):
                run_sweep(cfg, out, threads=threads)
            written.append((out.read_bytes(), (tmp_path / f"{out.name}.errors.json").read_bytes()))
        assert written[0] == written[1]
        failures = json.loads(written[0][1])["failures"]
        assert [(f["method"], f["value"]) for f in failures] == [
            ("LF", -5.0), ("PM", -5.0), ("MC", -5.0)]
        rows = list(csv.DictReader(written[0][0].decode().splitlines()))
        assert [(r["method"], float(r["browse_speed"])) for r in rows] == [
            (m, v) for m in ("LF", "PM", "MC") for v in (25.0, 50.0)]


# sha256 of the criterion-8 CSV (LF/PM/MC, 16x16x8, master seed 31).  Float
# bits depend on the numpy build and the CPU's SIMD paths; this digest was
# recorded with numpy 2.4.6 on x86-64 with AVX-512.
CRITERION_8_CSV_SHA256 = "e7e62e1433dbf8acfae633926f8867f833c26b005bf190988d5d503c345930f5"


@pytest.mark.skipif(np.__version__ != "2.4.6", reason="digest recorded with numpy 2.4.6")
def test_criterion_8_csv_bytes_pinned(tmp_path):
    cfg = SweepConfig(
        methods=("LF", "PM", "MC"), parameter="contrast",
        values=(100.0, 200.0, 400.0), n_pairs=6, nx=16, ny=16, nt=8,
        n_channels=8, spread=5.0, n_readers=2, master_seed=31,
    )
    out = tmp_path / "c8.csv"
    run_sweep(cfg, out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CRITERION_8_CSV_SHA256


# sha256 of the seed-0 CSVs of the three benchmark workloads: a contrast sweep
# over 100/200/400 at 64x64x32, 15 channels and 4 readers; LF and PM at 50
# pairs on two threads, MC at 50 pairs and PM at 200 pairs on one.  Recorded
# like CRITERION_8_CSV_SHA256.
BENCHMARK_CSV_SHA256 = {
    (("LF", "PM"), 50, 2): "fe540876677b4a9af5d01195f4d341030830fef3a68acd22731d1ac61de15c7a",
    (("MC",), 50, 1): "e5c4758907b17aa54fe148ef7dbc54998c3bc16dd0a0f91dd557ddde996977e3",
    (("PM",), 200, 1): "1c380e7bb9f0a331467a438da5cafd9ba47f395667feca8721989837e7f3854e",
}

# sha256 of the CSVs of the four 200-pair criterion-7 sweeps (every method,
# the default grid of each parameter, master seed 7).  Recorded like
# CRITERION_8_CSV_SHA256, on two threads.
TREND_CSV_SHA256 = {
    "contrast": "1fc061b07358d49f6c1867a57705f23f6ce3f24cc7595ff9f67de695c059525a",
    "l_max": "b6921c54a3174818245e813811d79a89120c5aa7f742a6dd443f927896c279e5",
    "ssr": "86b5db7a061717964ebb4afaaf73d83c888593369f7a84386a8fa5215e5a9e78",
    "browse_speed": "69971a58b4850940586646fca68b765d68f14755c32d1e94ec1fa12c636aab5f",
}

paper_scale = pytest.mark.skipif(os.environ.get("VOBSIM_FULL_TRENDS") != "1",
                                 reason="200-pair sweep; set VOBSIM_FULL_TRENDS=1")


@pytest.mark.skipif(np.__version__ != "2.4.6", reason="digest recorded with numpy 2.4.6")
@pytest.mark.parametrize("methods, n_pairs, threads", [
    pytest.param(("LF", "PM"), 50, 2, id="lfpm-t2"),
    pytest.param(("MC",), 50, 1, id="mc-t1"),
    pytest.param(("PM",), 200, 1, id="pm-200", marks=paper_scale),
])
def test_benchmark_csv_bytes_pinned(tmp_path, methods, n_pairs, threads):
    cfg = SweepConfig(methods=methods, parameter="contrast", values=(100.0, 200.0, 400.0),
                      n_pairs=n_pairs, master_seed=0, n_channels=15, n_readers=4)
    out = tmp_path / "bench.csv"
    run_sweep(cfg, out, threads=threads)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == BENCHMARK_CSV_SHA256[methods, n_pairs, threads]


@pytest.mark.skipif(np.__version__ != "2.4.6", reason="digest recorded with numpy 2.4.6")
@paper_scale
@pytest.mark.parametrize("parameter", list(TREND_CSV_SHA256))
def test_trend_csv_bytes_pinned(tmp_path, parameter):
    out = tmp_path / "trend.csv"
    run_sweep(SweepConfig(parameter=parameter, n_pairs=200, master_seed=7), out, threads=2)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TREND_CSV_SHA256[parameter]


def _run_trend_table(overrides, out):
    """tools/trend_table.py at seed 7 on 6 pairs, under the three warning classes as errors."""
    tool = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools",
                        "trend_table.py")
    return subprocess.run([sys.executable, "-W", "error::DeprecationWarning",
                           "-W", "error::FutureWarning", "-W", "error::RuntimeWarning", tool,
                           "--seeds", "7", "--pairs", "6", "--out", str(out),
                           "--overrides", overrides], capture_output=True, text=True)


def test_trend_table_tool_on_the_smoke_shape(tmp_path):
    # On the 16x16x8 shape: one label row per (parameter, method) and one CSV per parameter.
    done = _run_trend_table(json.dumps({"corpus": {"nx": 16, "nt": 8},
                                        "observer": {"n_channels": 8, "spread": 5.0,
                                                     "n_readers": 2}}),
                            tmp_path / "csv")
    assert done.returncode == 0, done.stderr
    labels = tuple(f"| {p} | {m} |" for p in DEFAULT_GRIDS for m in percept.METHODS)
    assert len([line for line in done.stdout.splitlines() if line.startswith(labels)]) == 12
    assert sorted(os.listdir(tmp_path / "csv")) == sorted(f"{p}-seed7.csv" for p in DEFAULT_GRIDS)


@pytest.mark.parametrize("overrides, message", [
    ("{bad", "--overrides: Expecting property name enclosed in double quotes: line 1 "
             "column 2 (char 1)"),
    ('{"corpus": {"nx": 6}}', "corpus.nx: nx must be at least 8, got 6"),
], ids=["not JSON", "bad config"])
def test_trend_table_tool_refuses_bad_overrides(tmp_path, overrides, message):
    # A usage error on one line, before --out is made.
    done = _run_trend_table(overrides, tmp_path / "bad")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.splitlines()[-1] == f"trend_table.py: error: {message}"
    assert "Traceback" not in done.stderr and not (tmp_path / "bad").exists()
