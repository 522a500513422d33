import csv
import hashlib
import json
import math
import os

import numpy as np
import pytest

from vobsim import percept
from vobsim.errors import ConfigError, DomainError
from vobsim.stackgen import ViewingConditions
from vobsim.sweep import (
    CSV_COLUMNS,
    DEFAULT_GRIDS,
    SWEEPABLE,
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

    def test_proportional_to_width(self):
        assert viewing_distance(7.0, width_cm=6.0) == pytest.approx(
            2.0 * viewing_distance(7.0, width_cm=3.0), rel=1e-12
        )

    def test_rejects_degenerate_geometry(self):
        with pytest.raises(DomainError):
            viewing_distance(0.0)
        with pytest.raises(DomainError):
            # a 64-px field at 0.3 px/deg would span more than 180 degrees
            viewing_distance(0.3)


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

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match="bogus"):
            SweepConfig.from_dict({"bogus": 1})

    def test_unknown_nested_key_named(self):
        with pytest.raises(ConfigError, match="viewing.*gamma"):
            SweepConfig.from_dict({"viewing": {"gamma": 2.2}})

    def test_bad_parameter(self):
        with pytest.raises(ConfigError, match="parameter"):
            SweepConfig.from_dict({"sweep": {"parameter": "humidity"}})

    def test_values_must_increase(self):
        with pytest.raises(ConfigError, match="increasing"):
            SweepConfig(parameter="contrast", values=(100.0, 50.0))

    def test_round_trip_from_dict(self):
        cfg = SweepConfig.from_dict({
            "methods": ["pm", "lf"],
            "sweep": {"parameter": "l_max", "values": [100, 300]},
            "viewing": {"contrast": 400},
            "corpus": {"n_pairs": 8, "nx": 16, "ny": 16, "nt": 8,
                       "lesion": {"amplitude": 0.3}},
            "observer": {"n_readers": 2},
        })
        assert cfg.methods == ("PM", "LF")
        assert cfg.parameter == "l_max"
        assert cfg.values == (100.0, 300.0)
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
        # MC readers differ only in their keep/discard draws, so the forward
        # transform (and the CSF and p behind it) must not run per reader.
        calls = []
        real_forward = percept.forward

        def counting_forward(stack):
            calls.append(stack)
            return real_forward(stack)

        monkeypatch.setattr(percept, "forward", counting_forward)
        cfg = tiny_config(methods=methods, n_readers=3)
        run_sweep(cfg, tmp_path / "count.csv")
        assert len(calls) == len(methods) * len(cfg.values) * 2 * cfg.n_pairs

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
        # model, so that sweep point fails while the other completes.
        cfg = SweepConfig(
            methods=("LF",), parameter="browse_speed", values=(-5.0, 25.0),
            n_pairs=6, nx=16, ny=16, nt=8, n_channels=8, spread=5.0,
            n_readers=2,
        )
        out = tmp_path / "fail.csv"
        with pytest.raises(DomainError, match="sweep point"):
            run_sweep(cfg, out)
        manifest = json.loads((tmp_path / "fail.csv.errors.json").read_text())
        assert len(manifest["failures"]) == 1
        assert manifest["failures"][0]["value"] == -5.0
        # the completed row is still in the CSV
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2


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
