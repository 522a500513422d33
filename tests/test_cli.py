import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vobsim import cli, sweep
from vobsim.cli import main
from vobsim.csf import FieldGeometry, csf, detection_probability
from vobsim.stackgen import (
    LABEL_PRESENT,
    ImageStack,
    LesionSpec,
    ViewingConditions,
    generate_corpus,
    normalize_to_display,
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

    def test_small_modulation_gives_a_probability_inside_0_1(self, capsys):
        argv = ["csf", "eval", "--u", "4", "--w", "0", "--l-avg", "150", "--x0", "9",
                "--m", "0.001"]
        assert main(argv) == 0
        s_line, p_line = capsys.readouterr().out.splitlines()
        assert float(s_line) > 0 and 0 < float(p_line) < 1


class TestGenCorpus:
    def test_writes_stacks_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        rc = main([
            "gen-corpus", "--out", str(out), "--n-pairs", "3",
            "--nx", "16", "--nt", "8", "--seed", "5",
            "--amplitude", "0.2",
        ])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["version"] == 1
        assert len(manifest["stacks"]) == 6
        assert manifest["master_seed"] == 5
        labels = [entry["label"] for entry in manifest["stacks"]]
        assert sum(1 for lab in labels if lab == LABEL_PRESENT) == 3
        for entry in manifest["stacks"]:
            stack = read_stack(out / entry["path"])
            assert stack.data.shape == (16, 16, 8)
            assert stack.label == entry["label"]

    @pytest.mark.parametrize("name, flag", [("manifest.json", "manifest"),
                                            ("stack_00000.vstk", "--out"),
                                            ("stack_00001.vstk", "--out"),
                                            ("stack_00003.vstk", "--out")])
    def test_directory_at_an_output_fails_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                          name, flag):
        calls = []
        monkeypatch.setattr(cli, "generate_corpus", lambda *a: calls.append(a))
        out = tmp_path / "corpus"
        (out / name).mkdir(parents=True)
        rc = main(["gen-corpus", "--out", str(out), "--n-pairs", "2", "--nx", "8", "--nt", "8"])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "IsADirectoryError",
                                   "message": f"{flag}: {out}/{name} is a directory"}
        assert calls == []
        assert os.listdir(out) == [name]

    def test_failed_rerun_leaves_no_manifest(self, tmp_path, capsys, monkeypatch):
        # The manifest goes before the first stack is replaced and comes back only after the
        # last is written, so it never lists stacks of another seed.
        argv = ["gen-corpus", "--out", str(tmp_path), "--n-pairs", "3", "--nx", "8", "--nt", "8"]
        assert main(argv) == 0
        real_write, written = cli.write_stack, []

        def write_stack(stack, path):
            if written:
                raise OSError("disk full")
            written.append(path)
            real_write(stack, path)

        monkeypatch.setattr(cli, "write_stack", write_stack)
        assert main(argv + ["--seed", "5"]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not (tmp_path / "manifest.json").exists()
        rewritten = generate_corpus(3, 8, 8, 8, 3.0, LesionSpec(), 5)[0]
        assert np.array_equal(read_stack(tmp_path / "stack_00000.vstk").data, rewritten.data)

    def test_smaller_rerun_leaves_only_its_stacks(self, tmp_path):
        # A rerun removes the stacks of an earlier, larger corpus, and no other path: not a
        # directory past its own stacks, nor a file the tool does not name.
        argv = ["gen-corpus", "--out", str(tmp_path), "--nx", "8", "--nt", "8", "--n-pairs"]
        assert main(argv + ["3"]) == 0
        others = ["notes.txt", "stack_1.vstk", "stack_000009.vstk", "stack_00005x.vstk"]
        for name in others:
            (tmp_path / name).write_text("kept\n")
        (tmp_path / "stack_00007.vstk").mkdir()
        assert main(argv + ["1"]) == 0
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["manifest.json", "stack_00000.vstk", "stack_00001.vstk", "stack_00007.vstk", *others])
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert [entry["path"] for entry in manifest["stacks"]] == [
            "stack_00000.vstk", "stack_00001.vstk"]
        assert all((tmp_path / name).read_text() == "kept\n" for name in others)

    def test_rerun_is_byte_identical(self, tmp_path):
        # The same arguments write the same bytes, and a smaller rerun keeps those of the
        # stacks it shares with the larger run.
        argv = ["gen-corpus", "--nx", "16", "--nt", "8", "--n-pairs"]
        assert main([*argv, "2", "--out", str(tmp_path / "a")]) == 0
        assert main([*argv, "2", "--out", str(tmp_path / "b")]) == 0
        first = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
        assert len(first) == 5
        assert {p.name: p.read_bytes() for p in (tmp_path / "b").iterdir()} == first
        assert main([*argv, "1", "--out", str(tmp_path / "a")]) == 0
        assert {p.name: p.read_bytes() for p in (tmp_path / "a").glob("*.vstk")} == {
            name: first[name] for name in ("stack_00000.vstk", "stack_00001.vstk")}

    @pytest.mark.parametrize("nx, amplitude, method, word", [("16", "1e308", "PM", "stack values"),
                                                            ("8", "1e305", "LF", "LF output")])
    def test_extreme_lesion_is_written_and_refused_by_perceive(self, tmp_path, capsys, nx,
                                                               amplitude, method, word):
        # Any finite amplitude makes a corpus; perceive refuses the lesion stack whose values,
        # or whose LF output, overflow.
        corpus, out = tmp_path / "corpus", tmp_path / "out.vstk"
        assert main(["gen-corpus", "--out", str(corpus), "--nx", nx, "--nt", "8",
                     "--n-pairs", "1", "--amplitude", amplitude]) == 0
        capsys.readouterr()
        assert main(["perceive", "--input", str(corpus / "stack_00001.vstk"),
                     "--output", str(out), "--method", method]) == 1
        printed, err = capsys.readouterr()
        assert printed == "" and len(err.splitlines()) == 1
        report = json.loads(err)
        assert report["error"] == "DomainError" and word in report["message"]
        assert not out.exists()


class TestPerceive:
    @pytest.fixture()
    def stack_file(self, tmp_path):
        stack = generate_corpus(1, 16, 16, 8, 2.5, LesionSpec(), 7)[0]
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

    def test_pm_round_trip_matches_library(self, tmp_path, stack_file):
        from vobsim import percept

        path, stack = stack_file
        out_path = tmp_path / "out.vstk"
        argv = ["perceive", "--input", str(path), "--output", str(out_path), "--normalize",
                "--method", "PM"]
        assert main(argv) == 0
        vc = ViewingConditions()
        want = percept.perceive(normalize_to_display(stack, vc), "PM", vc)
        assert np.array_equal(read_stack(out_path).data, want.data)


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

    # case: (--out under tmp_path, further arguments, error, start of the message,
    #        a part the message must hold)
    BAD_OUTPUTS = {
        "missing --out directory": ("missing/o.csv", [], "FileNotFoundError", "--out: directory",
                                    "missing"),
        "missing --report directory": ("o.csv", ["--report", "missing/r.json"],
                                       "FileNotFoundError", "--report: directory", "missing"),
        "--out is a directory": ("dir", [], "IsADirectoryError", "--out: ", "dir is a directory"),
        "--out is a directory, with --report": ("dir", ["--report", "r.json"],
                                                "IsADirectoryError", "--out: ",
                                                "dir is a directory"),
        "--report is a directory": ("o.csv", ["--report", "dir"], "IsADirectoryError",
                                    "--report: ", "dir is a directory"),
        "--out under a file": ("cfg.json/o.csv", [], "NotADirectoryError", "--out: ",
                               "cfg.json is not a directory"),
        "--report under a file": ("o.csv", ["--report", "cfg.json/r.json"], "NotADirectoryError",
                                  "--report: ", "cfg.json is not a directory"),
        "--report is --out": ("o.csv", ["--report", "o.csv"], "ConfigError", "--report: ",
                              "same file as --out"),
        "--report is --out by another path": ("o.csv", ["--report", "dir/../o.csv"],
                                              "ConfigError", "--report: ", "same file as --out"),
        "--out is --config": ("cfg.json", [], "ConfigError", "--out: ", "same file as --config"),
        "--report is --config": ("o.csv", ["--report", "dir/../cfg.json"], "ConfigError",
                                 "--report: ", "same file as --config"),
        "--threads 0": ("o.csv", ["--threads", "0"], "ConfigError", "threads: ", "0"),
        "--threads -3": ("o.csv", ["--threads", "-3"], "ConfigError", "threads: ", "-3"),
    }

    @pytest.mark.parametrize("case", list(BAD_OUTPUTS))
    def test_bad_outputs_and_threads_fail_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                          case):
        calls = []
        monkeypatch.setattr(sweep, "generate_corpus", lambda *a: calls.append(a))
        cfg_path = tmp_path / "cfg.json"
        config = json.dumps({"corpus": {"n_pairs": 4, "nx": 8, "nt": 8}})
        cfg_path.write_text(config)
        (tmp_path / "dir").mkdir()
        out, extra, error, start, part = self.BAD_OUTPUTS[case]
        if "--report" in extra:
            extra = ["--report", str(tmp_path / extra[1])]
        argv = ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / out), *extra]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        report = json.loads(err)
        assert report["error"] == error and report["message"].startswith(start)
        assert part in report["message"] and ".tmp" not in report["message"]
        assert calls == []
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "dir"]
        assert os.listdir(tmp_path / "dir") == []
        assert cfg_path.read_text() == config

    # case: (config file name, the path made as a directory or None, further arguments,
    #        error, the message)
    BAD_MANIFESTS = {
        "manifest is --config": ("o.csv.errors.json", None, [], "ConfigError",
                                 "manifest: {}/o.csv.errors.json is the same file as --config"),
        "manifest is a directory": ("cfg.json", "o.csv.errors.json", [], "IsADirectoryError",
                                    "manifest: {}/o.csv.errors.json is a directory"),
        "--report is the manifest": ("cfg.json", None, ["--report", "o.csv.errors.json"],
                                     "ConfigError", "--report: {}/o.csv.errors.json is the "
                                     "same file as manifest"),
    }

    @pytest.mark.parametrize("case", list(BAD_MANIFESTS))
    def test_bad_manifest_path_fails_before_any_work(self, tmp_path, capsys, monkeypatch, case):
        # <out>.errors.json is an output too: a failed sweep would write it, a clean one
        # removes it.  So it may not be the config, a directory or the report.
        name, directory, extra, error, message = self.BAD_MANIFESTS[case]
        calls = []
        monkeypatch.setattr(sweep, "generate_corpus", lambda *a: calls.append(a))
        config = json.dumps({"corpus": {"n_pairs": 4, "nx": 8, "nt": 8}})
        (tmp_path / name).write_text(config)
        if directory:
            (tmp_path / directory).mkdir()
        extra = [str(tmp_path / e) if e.endswith(".json") else e for e in extra]
        argv = ["sweep", "--config", str(tmp_path / name), "--out", str(tmp_path / "o.csv"),
                *extra]
        before = sorted(os.listdir(tmp_path))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": error, "message": message.format(tmp_path)}
        assert calls == []
        assert sorted(os.listdir(tmp_path)) == before
        assert (tmp_path / name).read_text() == config

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


class TestBadInputs:
    CASES = [
        ("config not UTF-8", [], "ConfigError", "JSON"),
        ("negative MC seed", ["--method", "MC", "--mc-seed", "-1"], "DomainError", "seed"),
        ("MC without a seed", ["--method", "MC", "--normalize"], "DomainError",
         "the MC method requires an explicit non-negative seed, got None"),
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
        ("beta 1000 overflows the filter", ["--beta", "1000"], "DomainError", "beta"),
        ("sigma_xy 1e-155 changes no voxel",
         ["--n-pairs", "1", "--nx", "8", "--sigma-xy", "1e-155"], "DomainError",
         "sigma_xy 1e-155 and sigma_t 3.0 change no voxel"),
        ("infinite amplitude", ["--amplitude", "inf"], "DomainError", "amplitude"),
        ("infinite sigma_xy", ["--sigma-xy", "inf"], "DomainError", "sigma_xy"),
        ("infinite sigma_t", ["--sigma-t", "inf"], "DomainError", "sigma_t"),
        # Stacks beyond a 47-bit address space, so that nothing is ever allocated.
        ("stack too large to allocate", ["--nx", "100000000"], "DomainError", "nx 100000000"),
        ("stack too large to index", ["--nx", "10000000000"], "DomainError", "nx 10000000000"),
        ("corpus too large to index", ["--n-pairs", "200", "--nx", "100000000"], "DomainError",
         "n_pairs 200, nx 100000000, ny 100000000 and nt 8 make a corpus larger"),
        ("sweep corpus too large to allocate",
         {"viewing": {"ssr": 1000000}, "corpus": {"n_pairs": 4, "nx": 100000000, "nt": 8}},
         "DomainError", "nx 100000000"),
        # More pairs than fit any address space, so that no seed is ever spawned.
        ("n_pairs beyond any address space", ["--n-pairs", str(10**30), "--nx", "8", "--nt", "8"],
         "DomainError", "n_pairs"),
        ("sweep n_pairs beyond any address space",
         {"corpus": {"n_pairs": 10**30, "nx": 8, "nt": 8}}, "ConfigError",
         f"corpus.n_pairs: n_pairs {10**30}, nx 8, ny 8 and nt 8 make a corpus larger"),
        # More readers' MC features than fit any address space, refused by the config.
        ("sweep n_readers beyond any address space",
         {"corpus": {"n_pairs": 4, "nx": 8, "nt": 8}, "observer": {"n_readers": 10**30}},
         "ConfigError", "observer.n_readers"),
        ("sweep nx beyond any address space", {"corpus": {"nx": 10**400, "ny": 10**400}},
         "ConfigError", "corpus.nx"),
        ("sweep repeated method", {"methods": ["PM", "PM"], "corpus": {"n_pairs": 4, "nx": 8,
                                                                       "nt": 8}},
         "ConfigError", "methods: 'PM' is listed more than once"),
        ("sweep lesion center", {"corpus": {"n_pairs": 4, "nx": 8, "nt": 8,
                                            "lesion": {"center": [3.5, 3.5, 3.5]}}},
         "ConfigError", "corpus.lesion.center: unknown key"),
        ("sweep version true", {"version": True, "corpus": {"n_pairs": 4, "nx": 8, "nt": 8}},
         "ConfigError", "version: unsupported config version True"),
        ("sweep unknown parameter", {"sweep": {"parameter": "humidity"}}, "ConfigError",
         "sweep.parameter: must be one of ('contrast', 'l_max', 'ssr', 'browse_speed'), "
         "got 'humidity'"),
        ("sweep two values", {"sweep": {"values": [100, 200]}}, "ConfigError",
         "sweep.values: need 3 or more for a trend, got 2"),
        ("sweep contrast -5", {"sweep": {"values": [-5, 25, 50]}}, "ConfigError",
         "sweep.values: contrast must be finite and exceed 1, got -5.0"),
        ("sweep nx a string", {"corpus": {"nx": "16"}}, "ConfigError",
         "corpus.nx: must be an integer, got '16'"),
        ("sweep n_pairs 4.5", {"corpus": {"n_pairs": 4.5}}, "ConfigError",
         "corpus.n_pairs: must be an integer, got 4.5"),
        ("sweep n_channels 0", {"observer": {"n_channels": 0}}, "ConfigError",
         "observer.n_channels: n_channels must be between 1 and nx * ny"),
        # A spread whose square overflows or underflows to 0 (the config refuses it), or whose
        # channels underflow to zero everywhere (the channel build, once per sweep, refuses it).
        *((f"sweep spread {spread}",
           {"corpus": {"n_pairs": 4, "nx": 8, "nt": 8}, "observer": {"spread": spread}},
           error, "spread")
          for spread, error in [(1e308, "ConfigError"), (1e-170, "ConfigError"),
                                (0.01, "DomainError")]),
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
        elif case.startswith("sweep"):  # extra is a config SweepConfig takes
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(extra))
            argv, extra = ["sweep", "--config", str(cfg), "--out", str(out)], []
        elif case.startswith("csf"):  # the last of two equal flags wins
            argv = ["csf", "eval", "--u", "4", "--w", "0", "--l-avg", "150", "--x0", "9",
                    "--m", "0.01"]
        elif "--method" in extra:
            stack = tmp_path / "in.vstk"
            write_stack(_input_stacks()["background"], stack)
            argv = ["perceive", "--input", str(stack), "--output", str(out)]
        else:
            argv = ["gen-corpus", "--out", str(out), "--n-pairs", "2", "--nx", "16", "--nt", "8"]
        assert main(argv + extra) == 1
        printed, err = capsys.readouterr()
        assert printed == ""
        assert len(err.splitlines()) == 1
        report = json.loads(err)
        assert report["error"] == error
        assert word in report["message"]
        assert not out.exists()
        assert not Path(f"{out}{sweep.ERRORS_SUFFIX}").exists()

    @pytest.mark.parametrize("argv, word", [
        (["gen-corpus", "--out", "out", "--n-pairs", "2.5"], "--n-pairs: invalid int value"),
        (["sweep", "--config", "c.json", "--out", "out", "--threads", "1e1"], "--threads"),
        (["gen-corpus", "--out", "out", "--no-such-flag"], "unrecognized arguments"),
        (["gen-corpus", "--nx", "16"], "required: --out"),
        (["csf", "eval", "--u", "4"], "required: --w, --l-avg, --x0, --m"),
        (["perceive", "--input", "a", "--output", "out", "--method", "XY"], "--method"),
        ([], "required: command"),
    ], ids=["non-integer", "non-integer threads", "unknown flag", "missing flag",
            "missing csf flags", "unknown method", "no command"])
    def test_usage_error_is_one_json_line(self, tmp_path, monkeypatch, capsys, argv, word):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        report = json.loads(captured.err)
        assert report["error"] == "ConfigError"
        assert word in report["message"]
        assert os.listdir(tmp_path) == []

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-corpus", "--help"])
        assert exc.value.code == 0
        assert "--n-pairs" in capsys.readouterr().out

    def test_module_help_exits_zero_with_runtime_warnings_as_errors(self):
        # The package imports no submodule, so runpy has no cause to warn before running cli.
        done = _run_module("--help")
        assert (done.returncode, done.stderr) == (0, "")
        assert "gen-corpus" in done.stdout

    def test_module_failure_is_one_json_line_and_writes_nothing(self, tmp_path):
        # The failure contract of the process: exit 1, nothing on stdout, one JSON line on
        # stderr, neither the CSV nor its error manifest.
        done = _run_module("sweep", "--config", str(tmp_path / "nothere.json"),
                           "--out", str(tmp_path / "o.csv"))
        assert (done.returncode, done.stdout) == (1, "")
        assert len(done.stderr.splitlines()) == 1
        assert json.loads(done.stderr)["message"].startswith("--config:")
        assert os.listdir(tmp_path) == []

    # Huge, tiny or non-finite inputs give a result or the one-line JSON error
    # naming the field, never a numpy warning on the way.  "perceive" perceives
    # a background, and the other stack kinds are those of _input_stacks.
    EXTREMES = [
        ("csf u 1e308", "csf", ["--u", "1e308"], None),
        ("csf w 1e308", "csf", ["--w", "1e308"], None),
        ("csf l_avg 1e308", "csf", ["--l-avg", "1e308"], None),
        ("csf m 1e308", "csf", ["--m", "1e308"], None),
        ("csf u inf", "csf", ["--u", "inf"], "spatial frequency u"),
        ("csf w inf at l_avg 1e308", "csf", ["--w", "inf", "--l-avg", "1e308"],
         "temporal frequency w"),
        ("browse speed 1e308", "perceive", ["--browse-speed", "1e308"], None),
        ("l_max 1e308", "perceive", ["--l-max", "1e308"], "l_max"),
        ("l_max 1e-308", "perceive", ["--l-max", "1e-308"], "l_max"),
        ("PM of a 1e308 stack", "bright", ["--method", "PM"], "stack values"),
        ("PM of a 1e308 stack, normalized", "bright", ["--method", "PM", "--normalize"], None),
        ("PM of a NaN voxel", "nan", ["--method", "PM"], "stack values"),
        ("LF of a 1e305 stack", "near-limit", ["--method", "LF"], "LF output"),
        ("PM of a 1e305 stack", "near-limit", ["--method", "PM"], None),
        ("MC of a 1e305 stack", "near-limit", ["--method", "MC", "--mc-seed", "1"], None),
        ("gen-corpus sigma_xy 1e308", "gen-corpus", ["--sigma-xy", "1e308"], "sigma_xy"),
        ("gen-corpus sigma_t 1e-170", "gen-corpus", ["--sigma-t", "1e-170"], "sigma_t"),
        ("lesion sigma_xy 1e300", "sweep", {"sigma_xy": 1e300}, "corpus.lesion: lesion sigma_xy"),
        ("lesion sigma_xy 1e-155", "sweep", {"sigma_xy": 1e-155}, "change no voxel"),
    ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case, command, extra, word", EXTREMES,
                             ids=[c[0] for c in EXTREMES])
    def test_extreme_values_without_warnings(self, tmp_path, capsys, case, command, extra,
                                             word):
        out = tmp_path / "out"
        if command == "sweep":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"corpus": {"n_pairs": 6, "nx": 16, "ny": 16, "nt": 8,
                                                  "lesion": extra}}))
            argv = ["sweep", "--config", str(cfg), "--out", str(out)]
        elif command == "csf":  # the last of two equal flags wins
            argv = ["csf", "eval", "--u", "4", "--w", "0", "--l-avg", "150", "--x0", "9",
                    "--m", "0.01", *extra]
        elif command == "gen-corpus":
            argv = ["gen-corpus", "--out", str(out), "--n-pairs", "2", "--nx", "16", "--nt", "8",
                    *extra]
        else:
            stack = tmp_path / "in.vstk"
            write_stack(_input_stacks()["background" if command == "perceive" else command], stack)
            if command == "perceive":
                extra = ["--normalize", "--method", "PM", *extra]
            argv = ["perceive", "--input", str(stack), "--output", str(out), *extra]
        rc = main(argv)
        printed, err = capsys.readouterr()
        if word is None:
            assert (rc, err) == (0, "")
            return
        assert (rc, printed) == (1, "")
        assert len(err.splitlines()) == 1
        assert word in json.loads(err)["message"]
        assert not out.exists()

    # case: (argv, with {} for the test's directory, which holds the file "file", the
    #        directory "dir" and the background stack "in.vstk"; error; message; the cli
    #        attribute the command must fail before)
    _GEN_CORPUS = ["gen-corpus", "--nx", "16", "--nt", "8", "--out"]
    _PERCEIVE = ["perceive", "--input", "{}/in.vstk", "--method", "PM", "--output"]
    BAD_PATHS = {
        "gen-corpus --out is a file": ([*_GEN_CORPUS, "{}/file"], "NotADirectoryError",
                                       "--out: {}/file is not a directory", "generate_corpus"),
        "gen-corpus --out under a file": ([*_GEN_CORPUS, "{}/file/corpus"], "NotADirectoryError",
                                          "--out: {}/file is not a directory", "generate_corpus"),
        "perceive --output in a missing directory": (
            [*_PERCEIVE, "{}/missing/out.vstk"], "FileNotFoundError",
            "--output: directory {}/missing does not exist", "read_stack"),
        "perceive --output under a file": ([*_PERCEIVE, "{}/in.vstk/out.vstk"],
                                           "NotADirectoryError",
                                           "--output: {}/in.vstk is not a directory", "read_stack"),
        "perceive --output is a directory": ([*_PERCEIVE, "{}/dir"], "IsADirectoryError",
                                             "--output: {}/dir is a directory", "read_stack"),
        "perceive --output is --input": ([*_PERCEIVE, "{}/in.vstk"], "ConfigError",
                                         "--output: {}/in.vstk is the same file as --input",
                                         "percept.perceive"),
        "perceive --output is --input by another path": (
            [*_PERCEIVE, "{}/dir/../in.vstk"], "ConfigError",
            "--output: {}/dir/../in.vstk is the same file as --input", "percept.perceive"),
    }

    @pytest.mark.parametrize("case", list(BAD_PATHS))
    def test_bad_path_fails_before_any_work(self, tmp_path, capsys, monkeypatch, case):
        argv, error, message, attribute = self.BAD_PATHS[case]
        _make_existing_paths(tmp_path)
        write_stack(_input_stacks()["background"], tmp_path / "in.vstk")
        owner, _, name = attribute.rpartition(".")
        calls = []
        monkeypatch.setattr(getattr(cli, owner) if owner else cli, name,
                            lambda *a, **k: calls.append(a))
        before = _tree(tmp_path)
        assert main([arg.format(tmp_path) for arg in argv]) == 1
        printed, err = capsys.readouterr()
        assert printed == "" and len(err.splitlines()) == 1
        assert json.loads(err) == {"error": error, "message": message.format(tmp_path)}
        assert calls == []
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("flag", ["--config", "--input"])
    @pytest.mark.parametrize("kind, error, reason", [
        ("missing", "FileNotFoundError", "No such file or directory"),
        ("directory", "IsADirectoryError", "Is a directory"),
    ], ids=["missing", "directory"])
    def test_unreadable_input_named_by_its_flag(self, tmp_path, capsys, flag, kind, error,
                                                reason):
        (tmp_path / "dir").mkdir()
        path = str(tmp_path / ("nothere" if kind == "missing" else "dir"))
        out = tmp_path / "out"
        if flag == "--config":
            argv = ["sweep", "--config", path, "--out", str(out), "--report", str(out) + ".json"]
        else:
            argv = ["perceive", "--input", path, "--output", str(out), "--method", "PM"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        report = json.loads(err)
        assert report["error"] == error
        assert report["message"] == f"{flag}: {path}: {reason}"
        assert os.listdir(tmp_path) == ["dir"]
        assert os.listdir(tmp_path / "dir") == []


def _run_module(*argv):
    """``python -m vobsim.cli *argv`` on the src beside these tests, with the three warning
    classes that pytest.ini makes errors made errors in the child too."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-W", "error::DeprecationWarning",
                           "-W", "error::FutureWarning", "-W", "error::RuntimeWarning",
                           "-m", "vobsim.cli", *argv], env=env, capture_output=True, text=True)


def _input_stacks():
    """8x8x8 stacks by kind: an ordinary pair ("background", "lesion"), lesions of amplitude
    1e308 ("bright") and 1e305 ("near-limit": forward takes it, LF overflows) and a background
    with a NaN voxel ("nan")."""
    background, lesion = generate_corpus(1, 8, 8, 8, 3.0, LesionSpec(), 0)
    nan = ImageStack(data=background.data.copy())
    nan.data[1, 2, 3] = np.nan
    return {"background": background, "lesion": lesion, "nan": nan,
            "bright": generate_corpus(1, 8, 8, 8, 3.0, LesionSpec(amplitude=1e308), 1)[1],
            "near-limit": generate_corpus(1, 8, 8, 8, 3.0, LesionSpec(amplitude=1e305), 2)[1]}


_NUMBERS = ["0", "-1", "1e-320", "1e-170", "0.5", "3", "1e154", "1e308", "nan", "inf", "-inf"]
_SIZES = ["-1", "0", "7", "8", "9", "16"]
_COUNTS = [*_SIZES, "8.0", "2.5", "1e1", "eight"]  # integer flags also get non-integers
# Kinds of path a path flag can name.  A path flag that is not drawn takes its first kind.
_INPUT_KINDS = ["stack", "missing", "directory", "not a stack", "under a file"]
_OUTPUT_KINDS = ["fresh", "missing parent", "directory", "existing file", "under a file"]
# Each command starts from small valid arguments; drawn flags come after them and win.
_BASE = {
    "gen-corpus": (["--n-pairs=2", "--nx=8", "--nt=8"],
                   {"n-pairs": _COUNTS, "nx": _COUNTS, "nt": _COUNTS, "seed": _COUNTS,
                    "beta": _NUMBERS, "amplitude": _NUMBERS, "sigma-xy": _NUMBERS,
                    "sigma-t": _NUMBERS, "out": _OUTPUT_KINDS}),
    "perceive": ([], {"mc-seed": _COUNTS, "l-max": _NUMBERS, "contrast": _NUMBERS,
                      "ssr": _NUMBERS, "browse-speed": _NUMBERS, "input": _INPUT_KINDS,
                      "output": _OUTPUT_KINDS}),
    "csf": (["eval", "--u=4", "--w=0", "--l-avg=150", "--x0=9", "--m=0.01"],
            {"u": _NUMBERS, "w": _NUMBERS, "l-avg": _NUMBERS, "x0": _NUMBERS, "m": _NUMBERS}),
}
_PATH_FLAGS = ["input", "output", "out"]


def _make_existing_paths(root):
    """The directory and the file (not a stack) that the existing-path kinds name."""
    os.mkdir(os.path.join(root, "dir"))
    Path(root, "file").write_text("kept\n")


def _path(root, kind, fresh):
    """The path of ``kind`` under ``root``; ``fresh`` is the name of a path not made yet."""
    return os.path.join(root, {"fresh": fresh, "missing": fresh,
                               "missing parent": os.path.join("missing", fresh),
                               "under a file": os.path.join("file", fresh),
                               "directory": "dir", "existing file": "file",
                               "not a stack": "file", "not UTF-8": "utf16.json"}[kind])


def _tree(root, skip=()):
    """Every directory (as None) and file (as its bytes) under ``root``, by relative path,
    leaving out the paths in ``skip`` and all that lies under them."""
    tree = {}
    for where, dirs, files in os.walk(root):
        dirs[:] = [d for d in dirs if os.path.join(where, d) not in skip]
        for name in dirs + [f for f in files if os.path.join(where, f) not in skip]:
            path = os.path.join(where, name)
            tree[os.path.relpath(path, root)] = None if name in dirs else Path(path).read_bytes()
    return tree


@pytest.fixture(scope="module")
def input_stacks(tmp_path_factory):
    """The files of every stack of _input_stacks."""
    root = tmp_path_factory.mktemp("inputs")
    stacks = list(_input_stacks().values())
    for i, stack in enumerate(stacks):
        write_stack(stack, root / f"{i}.vstk")
    return [str(root / f"{i}.vstk") for i in range(len(stacks))]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_invocation_succeeds_or_fails_cleanly(input_stacks, data):
    """Exit 0 with nothing on stderr and outputs that read back, or exit 1 with one
    JSON line and nothing written; never a traceback or a numpy warning.  Paths made
    beforehand stay as they were, except the output of a command that succeeds."""
    command = data.draw(st.sampled_from(sorted(_BASE)))
    argv, flags = _BASE[command]
    names = data.draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True))
    drawn = {name: data.draw(st.sampled_from(flags[name]), name) for name in names}
    with tempfile.TemporaryDirectory() as tmp:
        _make_existing_paths(tmp)
        kinds = {name: drawn.get(name, flags[name][0]) for name in _PATH_FLAGS if name in flags}
        paths = {name: data.draw(st.sampled_from(input_stacks), "stack") if kind == "stack"
                 else _path(tmp, kind, name) for name, kind in kinds.items()}
        # --flag=value, so that a value such as -inf is not taken for an option.
        argv = [command, *argv, *(f"--{name}={drawn[name]}" for name in names
                                  if name not in paths),
                *(f"--{name}={path}" for name, path in paths.items())]
        if command == "perceive":
            argv += ["--method", data.draw(st.sampled_from(["LF", "PM", "MC"]), "method"),
                     *(["--normalize"] if data.draw(st.booleans(), "normalize") else [])]
        out = paths.get("output", paths.get("out"))
        written = [out, os.path.join(tmp, "missing")]  # gen-corpus makes missing parents
        before, kept = _tree(tmp), _tree(tmp, written)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv)
        if rc == 1:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}
            assert _tree(tmp) == before
            return
        assert (rc, stderr.getvalue()) == (0, "")
        assert _tree(tmp, written) == kept
        if command == "gen-corpus":
            with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
                manifest = json.load(fh)
            for entry in manifest["stacks"]:
                read_stack(os.path.join(out, entry["path"]))
        elif command == "perceive":
            assert np.isfinite(read_stack(out).data).all()
        else:
            s, p = map(float, stdout.getvalue().split())
            assert 0 <= s < math.inf and 0 <= p <= 1


# A valid 8x8x8, 4-pair sweep; each example changes one or two of its fields.
_SWEEP_BASE = {"methods": ["LF", "PM", "MC"],
               "sweep": {"parameter": "contrast", "values": [100, 200, 400]},
               "corpus": {"n_pairs": 4, "nx": 8, "nt": 8},
               "observer": {"n_channels": 4, "spread": 3.0, "n_readers": 2}}
_FLOATS = [float(v) for v in _NUMBERS]
_INTS = [int(v) for v in _SIZES]
_SWEEP_FIELDS = {
    ("methods",): st.lists(st.sampled_from(["LF", "PM", "MC", "pm"]), min_size=1, max_size=4),
    ("sweep", "parameter"): st.sampled_from(list(sweep.DEFAULT_GRIDS)),
    ("sweep", "values"): st.lists(st.sampled_from(_FLOATS), min_size=3, max_size=3),
    **{("viewing", k): st.sampled_from(_FLOATS) for k in ["l_max", "contrast", "ssr",
                                                          "browse_speed"]},
    **{("corpus", k): st.sampled_from(_INTS) for k in ["n_pairs", "nx", "ny", "nt",
                                                       "master_seed"]},
    ("corpus", "beta"): st.sampled_from(_FLOATS),
    **{("corpus", "lesion", k): st.sampled_from(_FLOATS) for k in ["amplitude", "sigma_xy",
                                                                   "sigma_t"]},
    **{("observer", k): st.sampled_from(_INTS) for k in ["n_channels", "n_readers"]},
    ("observer", "spread"): st.sampled_from(_FLOATS),
}


def _readable_rows(path):
    """The rows of a sweep CSV, each parsed as the documented column types."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        assert list(row) == sweep.CSV_COLUMNS and row["method"] in ("LF", "PM", "MC")
        for col in sweep.CSV_COLUMNS[1:]:
            (int if col in ("n_cases", "n_readers", "master_seed") else float)(row[col])
    return rows


# The path flags of a sweep, each drawn as one of the fields an example changes.
_SWEEP_PATHS = {("--config",): st.sampled_from(["missing", "directory", "not UTF-8",
                                                 "under a file"]),
                ("--out",): st.sampled_from(_OUTPUT_KINDS[1:]),
                ("--report",): st.sampled_from(_OUTPUT_KINDS[1:])}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_sweep_succeeds_or_fails_cleanly(data):
    """A sweep exits 0 with one readable row per (method, value) and a strict-JSON report of
    the CSV's d', or exits 1 with one JSON line, no report and either no CSV or only readable
    rows beside an error manifest.  Paths made beforehand stay as they were, except the CSV
    and report of a sweep that writes them.  On more than one thread it ends as on one: same
    exit code and the same files."""
    config = json.loads(json.dumps(_SWEEP_BASE))
    fields = {**_SWEEP_FIELDS, **_SWEEP_PATHS}
    kinds = {"--config": "valid", "--out": "fresh", "--report": "fresh"}
    paths = data.draw(st.lists(st.sampled_from(sorted(fields)), min_size=1, max_size=2,
                               unique=True), "fields")
    for path in paths:
        if path in _SWEEP_PATHS:
            kinds[path[0]] = data.draw(_SWEEP_PATHS[path], path[0])
            continue
        section = config
        for key in path[:-1]:
            section = section.setdefault(key, {})
        section[path[-1]] = data.draw(_SWEEP_FIELDS[path], ".".join(path))
    threads = data.draw(st.sampled_from([1, 2, 3]), "threads")
    with tempfile.TemporaryDirectory() as tmp:

        def run(threads):
            root = os.path.join(tmp, f"run{threads}")
            os.mkdir(root)
            _make_existing_paths(root)
            Path(root, "cfg.json").write_text(json.dumps(config))
            Path(root, "utf16.json").write_bytes(json.dumps(config).encode("utf-16"))
            out, report = (_path(root, kinds[flag], name)
                           for flag, name in (("--out", "out.csv"), ("--report", "report.json")))
            cfg = (os.path.join(root, "cfg.json") if kinds["--config"] == "valid"
                   else _path(root, kinds["--config"], "absent.json"))
            argv = ["sweep", "--config", cfg, "--out", out, "--threads", str(threads),
                    "--report", report]
            before = _tree(root)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main(argv)
            return rc, stderr.getvalue(), (cfg, out, report), before, _tree(root)

        rc, stderr, (cfg, out, report), before, after = run(threads)
        if threads > 1:
            rc_one, _, _, _, after_one = run(1)
            assert (rc_one, after_one) == (rc, after)
        root = os.path.join(tmp, f"run{threads}")
        if rc == 1:
            lines = stderr.splitlines()
            assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}
            manifest = out + ".errors.json"
            assert _tree(root, [out, manifest]) == {k: v for k, v in before.items()
                                                    if os.path.join(root, k) != out}
            if after != before:
                assert os.path.isfile(manifest)
                _readable_rows(out)
            return
        assert (rc, stderr) == (0, "")
        assert _tree(root, [out, report]) == {k: v for k, v in before.items()
                                              if os.path.join(root, k) not in (out, report)}
        cfg_used, rows = sweep.SweepConfig.from_json(cfg), _readable_rows(out)
        # One row per (method, value): a method listed twice must not run twice.
        points = {(row["method"], float(row[cfg_used.parameter])) for row in rows}
        assert len(points) == len(rows) == len(set(cfg_used.methods)) * len(cfg_used.values)

        def strict(constant):
            raise AssertionError(f"report holds the non-standard JSON constant {constant}")

        report = json.loads(Path(report).read_bytes(), parse_constant=strict)
        assert sorted(report["labels"]) == sorted(cfg_used.methods)
        assert report["d_primes"] == {m: [float(r["d_prime"]) for r in rows if r["method"] == m]
                                      for m in cfg_used.methods}
