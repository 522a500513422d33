"""Layered sweep benchmark for vobsim.

Usage (from the root of a source checkout):

    python3 sweepbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each measured sweep runs the real ``simulate sweep`` entry point in a fresh
child process (``child.py``), so peak RSS and CPU time belong to that sweep.
The child gets only the generated config; the seed stays here.  Every CSV
row is checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` (sweep points) and ``metrics``.

``--trace 0`` reports the end-to-end metrics as medians over the sweeps that
fit in ``--seconds`` (at least one).  ``--trace 1`` pairs an untraced sweep
with a traced one and reports the per-layer metrics of the traced sweep.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fixed shape of every workload: the paper-scale 64x64x32 stack, 4 readers,
# 15 channels, a three-point contrast sweep at default viewing.  Every
# workload goes through run_sweep, which needs at least three values.
SHAPE = {"nx": 64, "ny": 64, "nt": 32}
SMALL_SHAPE = {"nx": 16, "ny": 16, "nt": 8}
SMALL_PAIRS = 6
SWEEP_VALUES = [100.0, 200.0, 400.0]
N_READERS = 4
N_CHANNELS = 15

WORKLOADS = {
    "mc-contrast-50": {
        "methods": ["MC"], "n_pairs": 50, "threads": 1,
        "why": "perception-bound: MC re-runs FFT, CSF, erf and iFFT per reader, "
               "so percept and csf dominate",
    },
    "lfpm-contrast-50-t2": {
        "methods": ["LF", "PM"], "n_pairs": 50, "threads": 2,
        "why": "each stack perceived once, so observer layers weigh more than in MC; "
               "six points on two sweep threads exercise the thread pool",
    },
    "pm-contrast-200": {
        "methods": ["PM"], "n_pairs": 200, "threads": 1,
        "why": "paper scale and memory-bound: 0.42 GB corpus plus a perceived "
               "corpus per point; corpus generation shows in setup_s",
    },
}

# The workload seed picks one of these corpus seeds, for each of which the
# reference d' values of every point were recorded when the benchmark was added
# (reference.json, written by record_reference.py).
N_CORPUS_SEEDS = 10
REFERENCE = HERE / "reference.json"

CSV_TYPES = {
    "method": "method", "contrast": float, "l_max": float, "ssr": float,
    "viewing_distance_cm": float, "browse_speed": float, "auc": float,
    "auc_var": float, "error_bar": float, "d_prime": float,
    "n_cases": int, "n_readers": int, "master_seed": int,
}
METHODS = ("LF", "PM", "MC")

END_TO_END = {
    "sweep_s": "s", "setup_s": "s", "stacks_per_s": "1/s", "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: <module>.<function>.s is self time summed over calls,
# .calls the number of calls; the rest are computed from spans and config.
PER_LAYER = {
    "stackgen.generate_corpus.s": "s", "stackgen.corpus_mb": "MB",
    "stackgen.normalize_to_display.s": "s", "stackgen.normalize_to_display.calls": "count",
    "percept.perceive.s": "s", "percept.perceive.calls": "count",
    "percept.forward.s": "s", "percept.forward.calls": "count",
    "percept.apply.s": "s", "percept.apply.calls": "count",
    "percept.inverse.s": "s", "percept.inverse.calls": "count",
    "percept.fft_gflop": "GFLOP", "percept.forward_per_stack": "count",
    "csf.csf.s": "s", "csf.csf.calls": "count", "csf.csf.bins": "count",
    "csf.detection_probability.s": "s", "csf.detection_probability.calls": "count",
    "observer.channelize.s": "s", "observer.channelize.calls": "count",
    "observer.channelize_stack.s": "s", "observer.channelize_stack.calls": "count",
    "observer.channelize_per_stack": "count",
    "observer.hotelling_weights.s": "s", "observer.hotelling_weights.calls": "count",
    "observer.train.s": "s", "observer.score.s": "s", "observer.score.calls": "count",
    "stats.make_readers.s": "s",
    "stats.mrmc_one_shot.s": "s", "stats.mrmc_one_shot.calls": "count",
    "sweep.run_sweep.s": "s", "sweep.point_s": "s", "sweep.parallelism": "ratio",
    "sweep.csv_bad_fields": "count", "trace.overhead_frac": "ratio",
}

# A run gives up on its sweeps this long after it started, inside the
# 180 s that one benchmark run may take.
RUN_TIMEOUT_S = 170

# BLAS/OpenMP threads per sweep process.  numpy's OpenBLAS would otherwise
# start one per core; with one, sweep threads x BLAS threads stays within
# the cores, and CPU time beyond wall time comes only from the sweep's pool.
BLAS_THREADS = "1"


def make_config(workload: str, master_seed: int, small: bool = False) -> dict:
    w = WORKLOADS[workload]
    shape = SMALL_SHAPE if small else SHAPE
    return {
        "methods": w["methods"],
        "sweep": {"parameter": "contrast", "values": SWEEP_VALUES},
        "corpus": {"n_pairs": SMALL_PAIRS if small else w["n_pairs"],
                   "master_seed": master_seed, **shape},
        "observer": {"n_channels": N_CHANNELS, "n_readers": N_READERS},
    }


def run_child(config: dict, threads: int, trace: bool, workdir: Path,
              deadline: float | None = None) -> dict:
    """Run one sweep in a fresh process; return its result with the CSV rows.

    The child is killed at ``deadline`` (a ``time.perf_counter()`` value),
    by default RUN_TIMEOUT_S from now.
    """
    if deadline is None:
        deadline = time.perf_counter() + RUN_TIMEOUT_S
    timeout = max(1.0, deadline - time.perf_counter())
    run_dir = Path(tempfile.mkdtemp(dir=workdir))
    config_path, csv_path, result_path = (run_dir / n for n in ("config.json", "out.csv", "result.json"))
    config_path.write_text(json.dumps(config))
    env = dict(os.environ, OMP_NUM_THREADS=BLAS_THREADS, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(config_path),
           str(csv_path), str(threads), "1" if trace else "0", str(result_path)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        result = {"status": "timeout", "stderr": f"no result within {timeout:.0f} s"}
    else:
        result = {"status": proc.returncode, "stderr": proc.stderr[-2000:]}
        if proc.returncode == 0:
            result = json.loads(result_path.read_text())
    result["rows"] = []
    if csv_path.exists():
        with open(csv_path, newline="") as fh:
            result["rows"] = list(csv.DictReader(fh))
    shutil.rmtree(run_dir)
    return result


def bad_fields(rows) -> int:
    """CSV fields that do not parse as the documented column type."""
    bad = 0
    for row in rows:
        for col, kind in CSV_TYPES.items():
            text = row.get(col)
            if text is None:
                bad += 1
            elif kind == "method":
                bad += text not in METHODS
            else:
                try:
                    kind(text)
                except ValueError:
                    bad += 1
    return bad


def dprime_of_auc(auc: float, n_cases: int) -> float:
    # 2 * erfinv(2 * AUC - 1) = sqrt(2) * Phi^-1(AUC), with the AUC clamped
    # off 0 and 1 as the sweep does for a perfectly separated sample.
    half = n_cases // 2
    eps = 1.0 / (2.0 * half * half)
    clamped = min(max(auc, eps), 1.0 - eps)
    return math.sqrt(2.0) * statistics.NormalDist().inv_cdf(clamped)


def dprime_error_bar(dp: float, auc_error_bar: float) -> float:
    # The row's AUC error bar carried to the d' scale (delta method, as the
    # sweep's trend report does).
    return auc_error_bar * 2.0 * math.sqrt(math.pi) * math.exp(min((dp / 2.0) ** 2, 50.0))


def check_point(row, config: dict, reference) -> str | None:
    """Why a point's row fails the output check, or None when it passes."""
    if row is None:
        return "row missing"
    try:
        auc = float(row["auc"])
        dp = float(row["d_prime"])
        error_bar = float(row["error_bar"])
        n_cases, n_readers = int(row["n_cases"]), int(row["n_readers"])
    except (TypeError, ValueError) as exc:
        return f"unparseable field: {exc}"
    n_pairs = config["corpus"]["n_pairs"]
    if n_cases != 2 * (n_pairs - n_pairs // 2):
        return f"n_cases {n_cases} does not match the config"
    if n_readers != config["observer"]["n_readers"]:
        return f"n_readers {n_readers} does not match the config"
    if not 0.0 <= auc <= 1.0:
        return f"auc {auc} outside [0, 1]"
    if not math.isclose(dp, dprime_of_auc(auc, n_cases), rel_tol=1e-9, abs_tol=1e-9):
        return f"d_prime {dp} is not 2*erfinv(2*auc - 1)"
    if reference is not None:
        key = f"{row['method']}@{float(row['contrast']):g}"
        if key not in reference:
            return f"no reference d' for {key}"
        if not abs(dp - reference[key]) <= dprime_error_bar(dp, error_bar):
            return f"d_prime {dp} is farther than its error bar from the reference {reference[key]}"
    return None


def check_rows(rows, config: dict, reference):
    """Per-point check results, in (method, value) order, and the bad-field count."""
    by_key = {}
    for row in rows:
        try:
            by_key[(row.get("method"), float(row.get("contrast")))] = row
        except (TypeError, ValueError):
            pass
    failures = [
        check_point(by_key.get((m, v)), config, reference)
        for m in config["methods"] for v in config["sweep"]["values"]
    ]
    return failures, bad_fields(rows)


def _union_length(intervals) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_totals(spans) -> dict:
    """Per span name: summed self seconds, calls, wall seconds and tags.

    Self time is a span's duration minus the part of it that its child spans
    cover.  Spans with no parent in a sweep worker thread (the points) are
    children of run_sweep, which submitted them.
    """
    root = next(s for s in spans if s[3] == "sweep.run_sweep")
    children = defaultdict(list)
    for tid, sid, parent, name, t0, t1, tag in spans:
        if (tid, sid) != (root[0], root[1]):
            key = (tid, parent) if parent is not None else (root[0], root[1])
            children[key].append((t0, t1))
    totals = defaultdict(lambda: {"s": 0.0, "calls": 0, "wall": [], "tags": []})
    for tid, sid, parent, name, t0, t1, tag in spans:
        t = totals[name]
        t["s"] += (t1 - t0) - _union_length(children[(tid, sid)])
        t["calls"] += 1
        t["wall"].append(t1 - t0)
        t["tags"].append(tag)
    return totals


def layer_metrics(traced: dict, untraced_sweep_s: float, config: dict, bad: float) -> dict:
    """Per-layer metrics of one traced sweep, by name (units in PER_LAYER)."""
    t = layer_totals(traced["spans"])
    corpus = config["corpus"]
    n_stacks = 2 * corpus["n_pairs"]
    n_points = len(config["methods"]) * len(config["sweep"]["values"])
    n_voxels = corpus["nx"] * corpus["ny"] * corpus["nt"]
    setup = t["stackgen.generate_corpus"]["wall"][0]
    point_walls = t["sweep.point"]["wall"]
    transforms = t["percept.forward"]["calls"] + t["percept.inverse"]["calls"]
    m = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat in ("s", "calls"):
            m[name] = t[layer][stat]
    m.update({
        "stackgen.corpus_mb": n_stacks * n_voxels * 8 / 1e6,
        "percept.fft_gflop": transforms * 5 * n_voxels * math.log2(n_voxels) / 1e9,
        "percept.forward_per_stack": t["percept.forward"]["calls"] / (n_points * n_stacks),
        "csf.csf.bins": sum(t["csf.csf"]["tags"]),
        "observer.channelize_per_stack":
            t["observer.channelize_stack"]["calls"] / (n_points * n_stacks),
        "sweep.point_s": statistics.median(point_walls),
        "sweep.parallelism": sum(point_walls) / (traced["sweep_s"] - setup),
        "sweep.csv_bad_fields": bad,
        "trace.overhead_frac": traced["sweep_s"] / untraced_sweep_s - 1.0,
    })
    return m


def point_seconds_by_method(traced: dict) -> dict:
    t = layer_totals(traced["spans"])["sweep.point"]
    by_method = defaultdict(list)
    for method, wall in zip(t["tags"], t["wall"]):
        by_method[method].append(wall)
    return {k: statistics.median(v) for k, v in by_method.items()}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "vobsim").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def load_reference(workload: str, master_seed: int) -> dict:
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    return data.get(workload, {}).get(str(master_seed), {})


def measure(config: dict, threads: int, seconds: float, trace: bool):
    """Run sweeps for about ``seconds``: at least one, or one pair when traced."""
    workdir = Path(tempfile.mkdtemp(prefix=".sweepbench_", dir=ROOT))
    untraced, traced = [], []
    try:
        start = time.perf_counter()
        deadline = start + RUN_TIMEOUT_S
        while True:
            untraced.append(run_child(config, threads, False, workdir, deadline))
            if trace:
                traced.append(run_child(config, threads, True, workdir, deadline))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(untraced) > seconds:
                return untraced, traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(workload: str, seed: int, seconds: float, trace: bool, small: bool = False):
    """Measure one workload; return (report lines, result object, traced sweeps).

    ``small`` runs the workload at the self-test shape, with no reference d'.
    Raises RuntimeError when no sweep finished.
    """
    master_seed = seed % N_CORPUS_SEEDS
    config = make_config(workload, master_seed, small)
    reference = None if small else load_reference(workload, master_seed)
    threads = WORKLOADS[workload]["threads"]
    untraced, traced = measure(config, threads, seconds, trace)

    failures, bad = [], []
    for res in untraced + traced:
        f, b = check_rows(res["rows"], config, reference)
        if res["status"] != 0:
            f = [f"sweep exited with status {res['status']}: {res['stderr']}"] * len(f)
        failures.extend(f)
        bad.append(b)
    failed = [f for f in failures if f is not None]
    ok = [r for r in untraced if r["status"] == 0]
    ok_traced = [r for r in traced if r["status"] == 0]
    if not ok or (trace and not ok_traced):
        raise RuntimeError(f"every sweep failed: {failed[:1]}")

    n_points = len(config["methods"]) * len(config["sweep"]["values"])
    n_stacks = 2 * config["corpus"]["n_pairs"]
    e2e = {
        "sweep_s": statistics.median(r["sweep_s"] for r in ok),
        "setup_s": statistics.median(s for r in ok for s in r["setup_s"]),
        "stacks_per_s": statistics.median(
            n_points * n_stacks / (r["sweep_s"] - r["setup_s"][0]) for r in ok),
        "cpu_s": statistics.median(r["cpu_s"] for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }
    provenance = {
        "workload": workload, "seed": seed, "corpus_seed": master_seed,
        "nproc": len(os.sched_getaffinity(0)), "sweep_threads": threads,
        "blas_threads": int(BLAS_THREADS), "versions": ok[0]["versions"],
        "git_sha": git_sha(), "src_sha256": source_digest(),
        "sweeps_untraced": len(untraced), "sweeps_traced": len(traced),
    }
    lines = ["provenance " + json.dumps(provenance)]
    lines += [f"point check failed: {reason}" for reason in failed]
    # Every end-to-end figure by name and unit.  failed_point_frac and
    # csv_bad_fields are 0 on a sound program, so the result object carries
    # them as failed/attempted and as the per-layer sweep.csv_bad_fields.
    shown = {name: (value, END_TO_END[name]) for name, value in e2e.items()}
    shown["failed_point_frac"] = (len(failed) / len(failures), "ratio")
    shown["csv_bad_fields"] = (statistics.median(bad), "count")
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in shown.items()]

    if trace:
        median_traced = sorted(ok_traced, key=lambda r: r["sweep_s"])[len(ok_traced) // 2]
        values = layer_metrics(median_traced, e2e["sweep_s"], config, statistics.median(bad))
        lines += [f"traced point_s[{method}] {secs:.4g} s"
                  for method, secs in point_seconds_by_method(median_traced).items()]
        units = PER_LAYER
    else:
        values, units = e2e, END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    if trace:
        lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    result = {"correct": not failed, "attempted": len(failures), "failed": len(failed),
              "metrics": metrics}
    return lines, result, ok_traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vobsim" / "cli.py").is_file():
        print(f"error: no vobsim sources under {SRC}", file=sys.stderr)
        return 2
    try:
        lines, result, _ = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
