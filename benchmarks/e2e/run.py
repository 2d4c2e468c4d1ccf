#!/usr/bin/env python3
"""The repo benchmark: one command, four workloads, every metric by name.

    python3 benchmarks/e2e/run.py --workload tpch_solo --seed 1 \
        --seconds 20 --trace 0

runs one workload in this process, prints every metric of the requested
kind (``--trace 0``: end to end, tracing off; ``--trace 1``: per layer,
tracing on) with its unit, checks every exact final against an oracle,
and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--all`` runs each workload in a process of its own;
``--repeat N`` runs N sets on N seeds and prints each end-to-end
metric's spread beside its declared bound.  ``BENCHMARK.json`` at the
repo root declares the metrics; README.md here defines them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from spec import (
    PRESETS,
    THREAD_PINS,
    WORKLOADS,
    layer_applies,
    load_declaration,
)

HERE = Path(__file__).resolve().parent
WORK_ROOT = HERE / "_work"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", help="one of the declared workloads")
    which.add_argument("--all", action="store_true",
                       help="every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=1,
                        help="data, interleaving and submission seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one round (plumbing check)")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="N sets on seeds seed..seed+N-1, then the "
                             "spread of every end-to-end metric")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the full result here")
    parser.add_argument("--spans", type=Path, default=None,
                        help="where a traced run dumps its spans "
                             "(default: _work/spans_<workload>.json)")
    return parser


# ---------------------------------------------------------------------------
# One workload, this process
# ---------------------------------------------------------------------------


def _emitted(declaration: dict, workload: str, traced: bool,
             computed: dict[str, float]) -> tuple[dict, list[str]]:
    """The declared metrics of the requested kind, in declared order,
    as ``{name: {"value", "unit"}}`` plus the names this workload does
    not compute (printed as 0).  A name computed but not declared, or
    declared for this workload but not computed, is a benchmark bug."""
    declared = declaration["per_layer" if traced else "end_to_end"]
    names = {m["name"] for m in declared}
    undeclared = sorted(set(computed) - names)
    if undeclared:
        raise SystemExit(f"computed but not declared: {undeclared}")
    emitted: dict[str, dict] = {}
    not_applicable: list[str] = []
    for metric in declared:
        name = metric["name"]
        applies = not traced or layer_applies(name, workload)
        if applies and name not in computed:
            raise SystemExit(f"{workload} did not compute {name}")
        if not applies and name in computed:
            raise SystemExit(f"{workload} computed {name}, which "
                             f"spec.py maps to other workloads")
        if not applies:
            not_applicable.append(name)
        emitted[name] = {"value": computed.get(name, 0.0),
                         "unit": metric["unit"]}
    return emitted, not_applicable


def _print_table(declaration: dict, traced: bool, emitted: dict,
                 not_applicable: list[str]) -> None:
    declared = declaration["per_layer" if traced else "end_to_end"]
    width = max(len(m["name"]) for m in declared)
    for metric in declared:
        name = metric["name"]
        value = emitted[name]["value"]
        note = ("   (n/a)" if name in not_applicable
                else f"   bound {metric['bound']:.0%}"
                if "bound" in metric else "")
        print(f"  {name:<{width}}  {value:>14.6g} {metric['unit']:<7}"
              f" {metric['better']:<6}{note}")


def run_one(args: argparse.Namespace) -> int:
    # Imported here, not at the top: harness pulls in numpy and repro,
    # which need main()'s thread pins and sys.path entry first.
    from harness import Config, env_stamp

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"expected one of {WORKLOADS}")
    declaration = load_declaration()
    seconds = (args.seconds if args.seconds is not None
               else declaration["run_seconds"])
    preset = PRESETS["smoke" if args.smoke else "full"]
    stamp = env_stamp(preset, args.seed, seconds)
    if stamp["noisy_host"]:
        print(f"warning: load average {stamp['load1_at_start']:.2f} on "
              f"{stamp['nproc']} cpus; timings will be noisy",
              file=sys.stderr)
    module = importlib.import_module(args.workload)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=WORK_ROOT))
    try:
        outcome = module.run(Config(
            seed=args.seed, seconds=seconds, trace=bool(args.trace),
            preset=preset, workdir=workdir,
        ))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emitted, not_applicable = _emitted(
        declaration, args.workload, bool(args.trace), outcome.metrics)
    violations = outcome.violations if preset.strict else []
    correct = outcome.failed == 0 and not violations
    print(f"{args.workload}  seed={args.seed}  seconds={seconds:g}  "
          f"trace={args.trace}  preset={preset.name}")
    _print_table(declaration, bool(args.trace), emitted, not_applicable)
    for failure in outcome.failures:
        print(f"WRONG FINAL: {failure}")
    for violation in outcome.violations:
        print(f"TRACE VIOLATION: {violation}")
    if args.trace:
        spans_path = args.spans or (
            WORK_ROOT / f"spans_{args.workload}.json")
        spans_path.write_text(json.dumps(outcome.spans))
        print(f"{len(outcome.spans)} spans -> {spans_path}")
    if args.json is not None:
        args.json.write_text(json.dumps({
            "workload": args.workload, "trace": args.trace,
            "env": stamp, "correct": correct,
            "attempted": outcome.attempted, "failed": outcome.failed,
            "failures": outcome.failures,
            "violations": outcome.violations,
            "metrics": emitted, "not_applicable": not_applicable,
            "detail": outcome.detail,
        }, indent=1))
    print(json.dumps({
        "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed, "metrics": emitted,
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Several workloads / several sets: one child process per run
# ---------------------------------------------------------------------------


def _child(args: argparse.Namespace, workload: str, seed: int) -> dict:
    """Run one workload in its own process; returns its result line
    with the exit code added."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(args.trace)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    if args.json is not None:
        tag = f"{workload}.seed{seed}.trace{args.trace}"
        command += ["--json", str(args.json.with_suffix(f".{tag}.json"))]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0,
                  "metrics": {}}
    result["exit_code"] = done.returncode
    return result


def _print_spreads(declaration: dict, workloads: list[str],
                   sets: list[dict[str, dict]]) -> None:
    print(f"\nspread of {len(sets)} sets "
          f"((q3 - q1) / median; the driver refuses spread > bound)")
    print(f"  {'workload':<13} {'metric':<18} {'median':>11} "
          f"{'q1':>11} {'q3':>11} {'spread':>8} {'bound':>6}")
    for workload in workloads:
        for metric in declaration["end_to_end"]:
            name = metric["name"]
            values = [s[workload]["metrics"][name]["value"]
                      for s in sets if name in s[workload]["metrics"]]
            if len(values) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / q2
            flag = ("" if share <= metric["bound"] or name == "setup_s"
                    else "  OVER BOUND")
            print(f"  {workload:<13} {name:<18} {q2:>11.5g} {q1:>11.5g} "
                  f"{q3:>11.5g} {share:>8.1%} {metric['bound']:>6.0%}"
                  f"{flag}")


def run_many(args: argparse.Namespace) -> int:
    workloads = list(WORKLOADS) if args.all else [args.workload]
    sets = []
    ok = True
    for offset in range(args.repeat):
        results = {w: _child(args, w, args.seed + offset)
                   for w in workloads}
        ok = ok and all(r["exit_code"] == 0 and r["correct"]
                        for r in results.values())
        sets.append(results)
    if args.repeat > 1 and not args.trace:
        _print_spreads(load_declaration(), workloads, sets)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # BLAS pins must be in place before numpy is first imported.
    for pin in THREAD_PINS:
        os.environ[pin] = "1"
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    if args.all or args.repeat > 1:
        return run_many(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
