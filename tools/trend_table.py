"""Trend labels of the four criterion-7 sweeps over several master seeds, as markdown.

For each master seed, runs ``run_sweep`` over every parameter's default grid
(``DEFAULT_GRIDS``) and compares each method's label with the acceptance
suite's ``TREND_EXPECTATIONS``.  Prints a label table (the label at each seed,
marked right or wrong, and the count right per seed), then one d' table per
parameter (d' +/- its bar at each value).  Each sweep's CSV is kept in the
output directory as ``<parameter>-seed<seed>.csv``.

    python tools/trend_table.py --seeds 7 8 9 10 11 --pairs 200 --out trend-csv

``--overrides`` takes a JSON object in the layout of ``simulate sweep
--config`` (``corpus``, ``observer``, ``viewing``, ``methods``), for example
``'{"corpus": {"lesion": {"amplitude": 0.12}}}'``; the sweep grid, the pair
count and the seed are the tool's own.  The script imports ``vobsim`` from the
``src`` directory beside it, so a copy of the repository measures its own code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_acceptance import TREND_EXPECTATIONS  # noqa: E402
from vobsim.sweep import DEFAULT_GRIDS, SweepConfig, run_sweep  # noqa: E402


def _is_right(parameter: str, method: str, label: str) -> bool:
    want = TREND_EXPECTATIONS[parameter][method]
    return label != "peaked" if want is None else label == want  # None: just not peaked


def _config(overrides: dict, parameter: str, n_pairs: int, seed: int) -> SweepConfig:
    raw = json.loads(json.dumps(overrides))  # a copy, nested sections included
    raw["sweep"] = {"parameter": parameter}  # over DEFAULT_GRIDS[parameter]
    raw["corpus"] = {**raw.get("corpus", {}), "n_pairs": n_pairs, "master_seed": seed}
    return SweepConfig.from_dict(raw)


def _markdown(rows) -> list[str]:
    lines = ["| " + " | ".join(rows[0]) + " |", "|" + "---|" * len(rows[0])]
    return lines + ["| " + " | ".join(row) + " |" for row in rows[1:]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 8, 9, 10, 11])
    parser.add_argument("--pairs", type=int, default=200, help="n_pairs of every sweep")
    parser.add_argument("--out", required=True, help="directory for the sweeps' CSVs")
    parser.add_argument("--overrides", default="{}", help="JSON config sections, as above")
    args = parser.parse_args(argv)
    overrides = json.loads(args.overrides)
    corpus = overrides.get("corpus", {}) if isinstance(overrides, dict) else None
    malformed = not isinstance(corpus, dict) or "sweep" in overrides
    if malformed or {"n_pairs", "master_seed"} & set(corpus):  # the tool's own keys
        parser.error("--overrides: a JSON object of config sections, without sweep, "
                     "corpus.n_pairs or corpus.master_seed")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    reports = {}  # (parameter, seed) -> TrendReport
    for seed in args.seeds:
        for parameter in TREND_EXPECTATIONS:
            cfg = _config(overrides, parameter, args.pairs, seed)
            csv_path = out / f"{parameter}-seed{seed}.csv"
            reports[parameter, seed] = run_sweep(cfg, csv_path, threads=os.cpu_count() or 1)
            print(f"{parameter} seed {seed}: {reports[parameter, seed].labels}", file=sys.stderr)

    methods = list(next(iter(reports.values())).labels)  # the config's, in its order
    head = ["parameter", "method", "expected", *(f"seed {s}" for s in args.seeds)]
    rows, right = [head], dict.fromkeys(args.seeds, 0)
    for parameter, expected in TREND_EXPECTATIONS.items():
        for method in methods:
            row = [parameter, method, expected[method] or "not peaked"]
            for seed in args.seeds:
                label = reports[parameter, seed].labels[method]
                ok = _is_right(parameter, method, label)
                right[seed] += ok
                row.append(f"{label} {'✓' if ok else '✗'}")
            rows.append(row)
    total = len(rows) - 1
    rows.append(["**right**", "", "", *(f"{right[s]} of {total}" for s in args.seeds)])
    print(f"## Trend labels ({args.pairs} pairs)\n")
    print("\n".join(_markdown(rows)))

    for parameter in TREND_EXPECTATIONS:
        rows = [["method", "seed", *(f"{v:g}" for v in DEFAULT_GRIDS[parameter])]]
        for method in methods:
            for seed in args.seeds:
                report = reports[parameter, seed]
                rows.append([method, str(seed), *(
                    f"{d:.3f} ± {b:.3f}"
                    for d, b in zip(report.d_primes[method], report.error_bars[method]))])
        print(f"\n## d′ ± bar over {parameter}\n")
        print("\n".join(_markdown(rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
