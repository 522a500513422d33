"""Record the reference d' of every workload point for each corpus seed.

Usage: python3 sweepbench/record_reference.py

Run once, at the commit whose results are the reference; writes
reference.json next to this file.  The benchmark then requires each point's
d' to lie within that row's own d'-scale error bar of its reference, so a
legitimate re-seed of the MC draws passes and a broken pipeline fails.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    reference = {}
    workdir = Path(tempfile.mkdtemp(prefix=".sweepbench_", dir=run.ROOT))
    try:
        for workload, w in run.WORKLOADS.items():
            reference[workload] = {}
            for master_seed in range(run.N_CORPUS_SEEDS):
                config = run.make_config(workload, master_seed)
                res = run.run_child(config, w["threads"], False, workdir)
                failures, _ = run.check_rows(res["rows"], config, reference=None)
                if res["status"] != 0 or any(failures):
                    print(f"{workload} seed {master_seed}: {res.get('stderr')} {failures}")
                    return 1
                reference[workload][str(master_seed)] = {
                    f"{row['method']}@{float(row['contrast']):g}": float(row["d_prime"])
                    for row in res["rows"]
                }
                print(f"{workload} seed {master_seed}: sweep_s {res['sweep_s']:.3f} "
                      f"setup_s {res['setup_s']} cpu_s {res['cpu_s']:.3f} "
                      f"peak_rss_mb {res['peak_rss_mb']:.1f}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
