import json
import os

import numpy as np
import pytest

from vobsim import cli, sweep
from vobsim.cli import main
from vobsim.csf import FieldGeometry, csf, detection_probability
from vobsim.stackgen import (
    LABEL_PRESENT,
    ImageStack,
    ViewingConditions,
    generate_background,
    normalize_to_display,
    read_manifest,
    read_stack,
    write_stack,
)


class TestCsfEval:
    def test_prints_sensitivity_and_probability(self, capsys):
        rc = main([
            "csf", "eval", "--u", "4", "--w", "0",
            "--l-avg", "150", "--x0", "9.142857142857142", "--m", "0.01",
        ])
        assert rc == 0
        s_line, p_line = capsys.readouterr().out.strip().splitlines()
        geom = FieldGeometry(x0=9.142857142857142, l_avg=150.0)
        assert float(s_line) == pytest.approx(csf(4.0, 0.0, geom), rel=1e-12)
        assert float(p_line) == pytest.approx(
            detection_probability(0.01, csf(4.0, 0.0, geom)), rel=1e-12
        )


class TestGenCorpus:
    def test_writes_stacks_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        rc = main([
            "gen-corpus", "--out", str(out), "--n-pairs", "3",
            "--nx", "16", "--nt", "8", "--seed", "5",
            "--amplitude", "0.2",
        ])
        assert rc == 0
        manifest = read_manifest(out / "manifest.json")
        assert len(manifest["stacks"]) == 6
        assert manifest["master_seed"] == 5
        labels = [entry["label"] for entry in manifest["stacks"]]
        assert sum(1 for lab in labels if lab == LABEL_PRESENT) == 3
        first = read_stack(out / manifest["stacks"][0]["path"])
        assert first.data.shape == (16, 16, 8)


class TestPerceive:
    @pytest.fixture()
    def stack_file(self, tmp_path):
        stack = generate_background(16, 16, 8, 2.5, seed=7)
        path = tmp_path / "in.vstk"
        write_stack(stack, path)
        return path, stack

    def test_lf_round_trip_matches_library(self, tmp_path, stack_file):
        from vobsim import percept

        path, stack = stack_file
        out_path = tmp_path / "out.vstk"
        rc = main([
            "perceive", "--input", str(path), "--output", str(out_path),
            "--method", "lf", "--normalize",
        ])
        assert rc == 0
        got = read_stack(out_path)
        vc = ViewingConditions()
        want = percept.perceive(normalize_to_display(stack, vc), "LF", vc)
        assert np.array_equal(got.data, want.data)

    def test_mc_requires_seed(self, tmp_path, stack_file, capsys):
        path, _ = stack_file
        rc = main([
            "perceive", "--input", str(path),
            "--output", str(tmp_path / "o.vstk"), "--method", "MC",
            "--normalize",
        ])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DomainError"
        assert "seed" in err["message"]

    def test_missing_input_reports_json(self, tmp_path, capsys):
        rc = main([
            "perceive", "--input", str(tmp_path / "nope.vstk"),
            "--output", str(tmp_path / "o.vstk"), "--method", "LF",
        ])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]


class TestSweepCommand:
    def test_sweep_writes_csv_and_report(self, tmp_path, capsys):
        # PM scores no better than chance on this tiny corpus, so its d' peak
        # is not positive and there is nothing to normalize by.
        cfg = {
            "methods": ["LF", "PM"],
            "sweep": {"parameter": "contrast", "values": [100, 200, 400]},
            "corpus": {"n_pairs": 6, "nx": 16, "ny": 16, "nt": 8,
                       "lesion": {"amplitude": 0.3}},
            "observer": {"n_channels": 8, "spread": 5.0, "n_readers": 2},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        csv_path = tmp_path / "out.csv"
        report_path = tmp_path / "report.json"
        rc = main([
            "sweep", "--config", str(cfg_path), "--out", str(csv_path),
            "--report", str(report_path),
        ])
        assert rc == 0
        assert len(csv_path.read_text().strip().splitlines()) == 7

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads(report_path.read_text(), parse_constant=refuse)
        assert report["parameter"] == "contrast"
        assert report["labels"]["LF"] in {"increasing", "decreasing", "peaked", "constant"}
        assert report["inconclusive"]["PM"] and report["normalized"]["PM"] == [None] * 3
        line = capsys.readouterr().out.strip()
        assert line.startswith("LF\tcontrast\t")

    @pytest.mark.parametrize("case", ["missing --out directory", "missing --report directory",
                                      "--threads 0", "--threads -3"])
    def test_bad_outputs_and_threads_fail_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                          case):
        calls = []
        monkeypatch.setattr(sweep, "generate_corpus", lambda *a: calls.append(a))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"corpus": {"n_pairs": 4, "nx": 8, "nt": 8}}))
        out, extra = tmp_path / "o.csv", []
        if case == "missing --out directory":
            out = tmp_path / "missing" / "o.csv"
        elif case == "missing --report directory":
            extra = ["--report", str(tmp_path / "missing" / "r.json")]
        else:
            extra = case.split()
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out), *extra]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        report = json.loads(err)
        if "threads" in case:
            assert report["error"] == "ConfigError" and "threads" in report["message"]
        else:
            assert report["error"] == "FileNotFoundError"
            assert "missing" in report["message"] and ".tmp" not in report["message"]
        assert calls == []
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_overflowing_beta_fails_before_any_point(self, tmp_path, capsys, monkeypatch):
        # A finite beta that overflows the power-law filter stops the sweep
        # in corpus generation: no point runs, and no CSV or manifest is written.
        calls = []
        monkeypatch.setattr(sweep, "_run_point", lambda *a: calls.append(a))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"methods": ["PM"],
                                        "corpus": {"n_pairs": 4, "nx": 16, "nt": 8,
                                                   "beta": 1000}}))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        report = json.loads(err)
        assert report["error"] == "DomainError" and "beta" in report["message"]
        assert calls == []
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_bad_config_reports_json(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sweep": {"parameter": "humidity"}}))
        rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "humidity" in err["message"]

    @pytest.mark.parametrize("section, key, value", [
        ("corpus", "nx", "16"),
        ("corpus", "n_pairs", 4.5),
        ("observer", "n_channels", 0),
        ("sweep", "values", [100, 200]),
        ("sweep", "values", [-5, 25, 50]),
    ])
    def test_invalid_config_fails_before_any_point(self, tmp_path, capsys, section, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({section: {key: value}}))
        csv_path = tmp_path / "o.csv"
        rc = main(["sweep", "--config", str(cfg_path), "--out", str(csv_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert f"{section}.{key}" in err["message"]
        assert not csv_path.exists()


class TestBadInputs:
    CASES = [
        ("config not UTF-8", [], "ConfigError", "JSON"),
        ("negative MC seed", ["--method", "MC", "--mc-seed", "-1"], "DomainError", "seed"),
        ("infinite browse speed", ["--method", "PM", "--normalize", "--browse-speed", "inf"],
         "DomainError", "browse_speed"),
        ("infinite contrast", ["--method", "PM", "--normalize", "--contrast", "inf"],
         "DomainError", "contrast"),
        ("infinite l_max", ["--method", "LF", "--normalize", "--l-max", "inf"],
         "DomainError", "l_max"),
        ("negative corpus seed", ["--seed", "-1"], "DomainError", "seed"),
        ("NaN beta", ["--beta", "nan"], "DomainError", "beta"),
        ("infinite beta", ["--beta", "inf"], "DomainError", "beta"),
        ("beta overflows the filter", ["--nx", "64", "--nt", "32", "--beta", "400"],
         "DomainError", "beta"),
        ("infinite amplitude", ["--amplitude", "inf"], "DomainError", "amplitude"),
        ("infinite sigma_xy", ["--sigma-xy", "inf"], "DomainError", "sigma_xy"),
        ("infinite sigma_t", ["--sigma-t", "inf"], "DomainError", "sigma_t"),
        ("csf NaN u", ["--u", "nan"], "DomainError", "spatial"),
        ("csf NaN w", ["--w", "nan"], "DomainError", "temporal"),
        ("csf NaN m", ["--m", "nan"], "DomainError", "modulation"),
        ("csf infinite m", ["--u", "0", "--w", "0", "--m", "inf"], "DomainError", "modulation"),
        ("csf x0 beyond 180 deg", ["--x0", "1e300"], "DomainError", "x0"),
        ("csf x0 squared underflows", ["--x0", "1e-300"], "DomainError", "x0"),
        ("huge ssr", ["--method", "PM", "--normalize", "--ssr", "1e300"], "DomainError", "x0"),
        ("tiny ssr", ["--method", "PM", "--normalize", "--ssr", "1e-300"], "DomainError", "x0"),
    ]

    @pytest.mark.parametrize("case, extra, error, word", CASES, ids=[c[0] for c in CASES])
    def test_json_error_and_nothing_written(self, tmp_path, capsys, case, extra, error, word):
        out = tmp_path / "out"
        if case == "config not UTF-8":
            cfg = tmp_path / "cfg.json"
            cfg.write_bytes('{"methods": ["PM"]}'.encode("utf-16"))
            argv = ["sweep", "--config", str(cfg), "--out", str(out)]
        elif case.startswith("csf"):  # the last of two equal flags wins
            argv = ["csf", "eval", "--u", "4", "--w", "0", "--l-avg", "150", "--x0", "9",
                    "--m", "0.01"]
        elif "--method" in extra:
            stack = tmp_path / "in.vstk"
            write_stack(generate_background(16, 16, 8, 2.5, seed=7), stack)
            argv = ["perceive", "--input", str(stack), "--output", str(out)]
        else:
            argv = ["gen-corpus", "--out", str(out), "--n-pairs", "2", "--nx", "16", "--nt", "8"]
        assert main(argv + extra) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        report = json.loads(err)
        assert report["error"] == error
        assert word in report["message"]
        assert not out.exists()

    @pytest.mark.parametrize("out", ["file", "file/corpus"])
    def test_gen_corpus_out_under_a_file_fails_before_generating(self, tmp_path, capsys,
                                                                  monkeypatch, out):
        calls = []
        monkeypatch.setattr(cli, "generate_corpus", lambda *a: calls.append(a))
        (tmp_path / "file").write_text("kept\n")
        argv = ["gen-corpus", "--out", str(tmp_path / out), "--nx", "16", "--nt", "8"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        report = json.loads(err)
        assert report["error"] == "FileExistsError"
        assert report["message"].startswith("--out: ")
        assert calls == []
        assert os.listdir(tmp_path) == ["file"]
        assert (tmp_path / "file").read_text() == "kept\n"

    def test_perceive_missing_output_dir_fails_before_reading(self, tmp_path, capsys,
                                                              monkeypatch):
        stack = tmp_path / "in.vstk"
        write_stack(generate_background(16, 16, 8, 2.5, seed=7), stack)

        def unexpected(path):
            raise AssertionError("read_stack called")

        monkeypatch.setattr(cli, "read_stack", unexpected)
        out = tmp_path / "missing" / "out.vstk"
        argv = ["perceive", "--input", str(stack), "--output", str(out), "--method", "PM"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        report = json.loads(err)
        assert report["error"] == "FileNotFoundError"
        assert report["message"].startswith("--output: ")
        assert os.listdir(tmp_path) == ["in.vstk"]
