"""Command-line interface: ``simulate`` with sweep/gen-corpus/perceive/csf subcommands."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import percept, sweep as sweep_mod
from .csf import FieldGeometry, csf, detection_probability
from .errors import ConfigError, VobsimError
from .stackgen import (
    LesionSpec,
    ViewingConditions,
    generate_corpus,
    normalize_to_display,
    read_stack,
    write_json,
    write_manifest,
    write_stack,
)


def _field_flags(parser, cls) -> None:
    for f in fields(cls):  # one float flag per field, named and defaulted after it
        parser.add_argument(f"--{f.name.replace('_', '-')}", type=float, default=f.default)


def _build_parser() -> argparse.ArgumentParser:
    class Parser(argparse.ArgumentParser):  # usage errors, too, reach main's one-line JSON
        def error(self, message):
            raise ConfigError(f"{self.prog}: {message}")

    parser = Parser(
        prog="simulate",
        description="Virtual observer simulation over 3D image stacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a configured parameter sweep")
    p_sweep.add_argument("--config", required=True, help="JSON run configuration")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--threads", type=int, default=1)
    p_sweep.add_argument("--report", help="optional JSON trend-report path")
    p_sweep.set_defaults(run=_cmd_sweep)

    p_gen = sub.add_parser("gen-corpus", help="generate a labeled stack corpus (square slices)")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--n-pairs", type=int, default=sweep_mod.SweepConfig.n_pairs)
    p_gen.add_argument("--nx", type=int, default=sweep_mod.SweepConfig.nx)
    p_gen.add_argument("--nt", type=int, default=sweep_mod.SweepConfig.nt)
    p_gen.add_argument("--beta", type=float, default=sweep_mod.SweepConfig.beta)
    p_gen.add_argument("--seed", type=int, default=sweep_mod.SweepConfig.master_seed)
    _field_flags(p_gen, LesionSpec)
    p_gen.set_defaults(run=_cmd_gen_corpus)

    p_perc = sub.add_parser("perceive", help="apply one perception method to a stack file")
    p_perc.add_argument("--input", required=True)
    p_perc.add_argument("--output", required=True)
    p_perc.add_argument("--method", required=True, type=str.upper, choices=percept.METHODS)
    p_perc.add_argument("--mc-seed", type=int)
    _field_flags(p_perc, ViewingConditions)
    p_perc.add_argument(
        "--normalize", action="store_true",
        help="normalize the stack to the display range before perceiving",
    )
    p_perc.set_defaults(run=_cmd_perceive)

    p_csf = sub.add_parser("csf", help="contrast sensitivity diagnostics")
    csf_sub = p_csf.add_subparsers(dest="csf_command", required=True)
    p_eval = csf_sub.add_parser("eval", help="print S and p for one operating point")
    p_eval.add_argument("--u", type=float, required=True, help="spatial frequency, cycles/deg")
    p_eval.add_argument("--w", type=float, required=True, help="temporal frequency, cycles/s")
    p_eval.add_argument("--l-avg", type=float, required=True, help="average luminance, cd/m^2")
    p_eval.add_argument("--x0", type=float, required=True, help="apparent size, deg")
    p_eval.add_argument("--m", type=float, required=True, help="component modulation")
    p_eval.set_defaults(run=_cmd_csf_eval)
    return parser


def _check_not_under_file(flag: str, path: Path) -> None:
    found = next(p for p in (path, *path.parents) if p.exists())  # the nearest that exists
    if not found.is_dir():
        raise NotADirectoryError(f"{flag}: {found} is not a directory")


def _check_output_dirs(*flagged) -> None:
    """Fail before any work when an output is a directory, has no directory or names a path
    before it in ``flagged``: another output, or an input already read (which it would replace)."""
    files = {}
    for flag, path in ((flag, Path(p)) for flag, p in flagged if p is not None):
        if path.is_dir():
            raise IsADirectoryError(f"{flag}: {path} is a directory")
        _check_not_under_file(flag, path.parent)
        if not path.parent.is_dir():
            raise FileNotFoundError(f"{flag}: directory {path.parent} does not exist")
        first = files.setdefault(path.parent.resolve() / path.name, flag)
        if first != flag:  # its write would replace the earlier output
            raise ConfigError(f"{flag}: {path} is the same file as {first}")


def _read(flag: str, read, path):
    try:  # an OSError keeps its type, and its message names the flag and the path
        return read(path)
    except OSError as exc:
        raise type(exc)(f"{flag}: {path}: {exc.strerror or exc}") from exc


def _cmd_sweep(args) -> int:
    config = _read("--config", sweep_mod.SweepConfig.from_json, args.config)
    _check_output_dirs(("--config", args.config), ("--out", args.out),
                       ("manifest", args.out + sweep_mod.ERRORS_SUFFIX), ("--report", args.report))
    report = sweep_mod.run_sweep(config, args.out, threads=args.threads)
    if args.report:
        write_json(args.report, asdict(report))
    for method, label in report.labels.items():
        print(f"{method}\t{report.parameter}\t{label}")
    return 0


def _cmd_gen_corpus(args) -> int:
    lesion = LesionSpec(**{f.name: getattr(args, f.name) for f in fields(LesionSpec)})
    out_dir = Path(args.out)
    manifest = out_dir / "manifest.json"
    _check_not_under_file("--out", out_dir)
    if manifest.is_dir():
        raise IsADirectoryError(f"manifest: {manifest} is a directory")
    stacks = generate_corpus(args.n_pairs, args.nx, args.nx, args.nt, args.beta, lesion, args.seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest.unlink(missing_ok=True)  # written last, it lists only stacks of this run
    entries = [(f"stack_{i:05d}.vstk", stack.label) for i, stack in enumerate(stacks)]
    for (name, _), stack in zip(entries, stacks):
        write_stack(stack, out_dir / name)
    write_manifest(manifest, entries, args.seed)
    print(f"wrote {len(stacks)} stacks to {out_dir}")
    return 0


def _cmd_perceive(args) -> int:
    vc = ViewingConditions(**{f.name: getattr(args, f.name) for f in fields(ViewingConditions)})
    _check_output_dirs(("--output", args.output))
    stack = _read("--input", read_stack, args.input)
    _check_output_dirs(("--input", args.input), ("--output", args.output))
    if args.normalize:
        stack = normalize_to_display(stack, vc)
    out = percept.perceive(stack, args.method, vc, mc_seed=args.mc_seed)
    write_stack(out, args.output)
    return 0


def _cmd_csf_eval(args) -> int:
    geom = FieldGeometry(x0=args.x0, l_avg=args.l_avg)
    s = csf(args.u, args.w, geom)
    p = detection_probability(args.m, s)
    print(s)
    print(p)
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except (VobsimError, OSError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
