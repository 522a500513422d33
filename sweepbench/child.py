"""One measured sweep, run in a fresh process by ``run.py``.

Usage: ``python3 child.py <src_dir> <config.json> <out.csv> <threads> <trace 0|1> <result.json>``

The sweep runs through the real entry point, ``vobsim.cli.main(["sweep", ...])``.
Before it starts, this script replaces functions of the package at the names
their callers look up (for example ``vobsim.percept.forward``, which
``perceive`` resolves as a module global) with timing wrappers.  Untraced,
only the outer timer around ``generate_corpus`` is installed; traced, every
wrap point below records a span.  Spans are kept per thread in memory and
written to the result file when the sweep has ended.

BLAS/OpenMP thread counts must be set in the environment by the caller:
they are read once, when numpy is first imported.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import threading
import time

import numpy
import scipy

# (module whose global the callers look up, attribute, span name).  Span
# names are <defining module>.<function>; the three apply_* functions share
# one layer, and sweep._run_point is the point-level span.
WRAP_POINTS = [
    ("vobsim.sweep", "run_sweep", "sweep.run_sweep"),
    ("vobsim.sweep", "_run_point", "sweep.point"),
    ("vobsim.sweep", "generate_corpus", "stackgen.generate_corpus"),
    ("vobsim.sweep", "normalize_to_display", "stackgen.normalize_to_display"),
    ("vobsim.percept", "perceive", "percept.perceive"),
    ("vobsim.percept", "forward", "percept.forward"),
    ("vobsim.percept", "apply_lf", "percept.apply"),
    ("vobsim.percept", "apply_pm", "percept.apply"),
    ("vobsim.percept", "apply_mc", "percept.apply"),
    ("vobsim.percept", "inverse", "percept.inverse"),
    ("vobsim.percept", "csf", "csf.csf"),
    ("vobsim.percept", "detection_probability", "csf.detection_probability"),
    ("vobsim.observer", "channelize", "observer.channelize"),
    ("vobsim.observer", "channelize_stack", "observer.channelize_stack"),
    ("vobsim.observer", "hotelling_weights", "observer.hotelling_weights"),
    ("vobsim.observer", "train", "observer.train"),
    ("vobsim.observer", "score", "observer.score"),
    ("vobsim.stats", "make_readers", "stats.make_readers"),
    ("vobsim.stats", "mrmc_one_shot", "stats.mrmc_one_shot"),
]

# Extra generate_corpus calls after the sweep, so that one run yields several
# set-up samples.  They run after the CPU and RSS readings are taken.
EXTRA_SETUPS = 2


def _span_tag(name, args):
    # The CSF's first argument holds the frequency bins it is evaluated on;
    # a point span keeps its method, for per-method point times.
    if name == "csf.csf":
        return int(numpy.size(args[0]))
    if name == "sweep.point":
        return args[2]
    return None


class Tracer:
    """Span recorder.  Each thread appends to its own list; ``dump`` joins them."""

    def __init__(self):
        self._local = threading.local()
        self._lists = []
        self._lock = threading.Lock()

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            spans = []
            with self._lock:
                tid = len(self._lists)
                self._lists.append(spans)
            state = self._local.state = {"tid": tid, "spans": spans, "stack": [], "next": 0}
        return state

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            state = self._thread_state()
            stack = state["stack"]
            sid = state["next"]
            state["next"] = sid + 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                state["spans"].append(
                    [state["tid"], sid, parent, name, t0, t1, _span_tag(name, args)]
                )

        return traced

    def dump(self):
        with self._lock:
            return [span for spans in self._lists for span in spans]


def _install(tracer, trace: bool):
    for mod_name, attr, span in WRAP_POINTS:
        if trace or span == "stackgen.generate_corpus":
            mod = importlib.import_module(mod_name)
            setattr(mod, attr, tracer.wrap(getattr(mod, attr), span))


def main(argv):
    src_dir, config_path, csv_path, threads, trace, result_path = argv
    trace = trace == "1"
    sys.path.insert(0, src_dir)
    import vobsim
    from vobsim import cli, stackgen, sweep

    tracer = Tracer()
    _install(tracer, trace)

    t0 = time.perf_counter()
    status = cli.main(["sweep", "--config", config_path, "--out", csv_path, "--threads", threads])
    sweep_s = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if status != 0:
        return status
    spans = tracer.dump()

    # The sweep's own generate_corpus span is the first set-up sample.  An
    # untraced run repeats the same call for more samples, outside the
    # sweep's CPU and RSS readings.
    first = next(s for s in spans if s[3] == "stackgen.generate_corpus")
    setups = [first[5] - first[4]]
    config = sweep.SweepConfig.from_json(config_path)
    for _ in range(0 if trace else EXTRA_SETUPS):
        t = time.perf_counter()
        stackgen.generate_corpus(
            config.n_pairs, config.nx, config.ny, config.nt, config.beta,
            config.lesion, config.master_seed,
        )
        setups.append(time.perf_counter() - t)

    result = {
        "status": status,
        "sweep_s": sweep_s,
        "setup_s": setups,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "spans": spans if trace else None,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "vobsim": vobsim.__version__,
        },
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
