"""Benchmark of the PArADISE processor: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload paper_chain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics with no instrumentation in
place; ``--trace 1`` installs the span wrappers and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full report (every metric, sample counts and the run's context),
which is also written to ``perfbench/out/``.  ``--workload all`` runs every
workload untraced and traced, one process each, and prints a table.

The exit code is 0 when every timed op matched its oracle, 1 when one did
not, and 2 when the program cannot be imported or run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
#: The metric lists of the result line, their units and their bounds.
SPEC_PATH = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("paper_chain", "tree_sessions", "standing_ingest")

#: Set-up repetitions per run; ``setup_s`` is their host-adjusted median.
#: The first two workloads set up in a few milliseconds, so they repeat it
#: often.
SETUP_REPEATS = {"paper_chain": 41, "tree_sessions": 41, "standing_ingest": 7}


def _commit() -> Optional[str]:
    """The checked-out commit, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _reset_peak_rss() -> None:
    """Start the peak-memory mark afresh (Linux: write 5 to clear_refs)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def _peak_rss_mb() -> float:
    """Peak resident memory since the last reset, in MiB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # the line is in kB
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _pin_to_one_cpu() -> int:
    """Run this process and every thread it starts on one CPU (Linux).

    The calibration loop then times the CPU that all of the workload's
    threads run on; two vCPUs of a shared host drift apart in speed.
    Under the interpreter lock the threads never ran Python in parallel.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Build, verify, warm and time one workload; returns the full report."""
    from perfbench import report, tracer as tracing
    from perfbench.calibration import Calibration
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed, seconds)
    setup_samples: List[float] = []
    # One calibration loop right before each set-up gives the host's speed
    # for that set-up (see report.end_to_end).
    setup_calibration = Calibration()
    try:
        for _ in range(SETUP_REPEATS[name]):
            gc.collect()
            setup_calibration.sample()
            started = time.perf_counter()
            workload.build()
            setup_samples.append(time.perf_counter() - started)
        workload.prepare()
        gc.collect()
        # The peak covers the timed window only, not the repeated set-ups,
        # the oracle or the warm-up.
        _reset_peak_rss()

        span_tracer = tracing.Tracer() if trace else None
        with tracing.Instrumentation(span_tracer) if trace else nullcontext():
            wrapped = tracing.wrapped_sites()
            before = report.registry_reading()
            ops = workload.run(seconds, span_tracer)
            after = report.registry_reading()
        peak_rss_mb = _peak_rss_mb()
        extra = workload.extra_metrics()
        context = workload.describe()
    finally:
        workload.close()

    e2e, samples = report.end_to_end(
        ops, workload.mix, setup_samples, setup_calibration.samples, peak_rss_mb,
        extra, workload.calibration.samples, workload.loop == "closed",
    )
    full: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "context": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": _commit(),
            "cost_model": "off (cost_model=None)",
            "instrumented_sites": wrapped,
            "workload": context,
            "ops_by_kind": {
                kind: sum(op.kind == kind for op in ops) for kind in workload.mix
            },
        },
        "end_to_end": {key: {"value": v, "unit": u} for key, (v, u) in e2e.items()},
        "samples": samples,
    }
    if trace:
        layers, ledger = report.per_layer(
            ops, span_tracer.spans, workload.mix, before, after
        )
        full["per_layer"] = {key: {"value": v, "unit": u} for key, (v, u) in layers.items()}
        full["ledger"] = ledger
        full["spans"] = span_tracer.spans
    return full


def _result_line(full: Dict[str, Any]) -> Dict[str, Any]:
    """The result line: the ``BENCHMARK.json`` metrics of this run's kind."""
    spec = json.loads(SPEC_PATH.read_text())
    if full["trace"]:
        listed, source = spec["per_layer"], full["per_layer"]
    else:
        listed, source = spec["end_to_end"], full["end_to_end"]
    for metric in listed:
        if source[metric["name"]]["unit"] != metric["unit"]:
            raise ValueError(f"{metric['name']}: unit differs from {SPEC_PATH.name}")
    return {
        "correct": full["failed"] == 0,
        "attempted": full["attempted"],
        "failed": full["failed"],
        "metrics": {metric["name"]: source[metric["name"]] for metric in listed},
    }


def _write_outputs(full: Dict[str, Any]) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{full['workload']}-seed{full['seed']}-trace{full['trace']}"
    spans = full.pop("spans", None)
    if spans is not None:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w") as handle:
            for span in spans:
                handle.write(json.dumps(span.to_dict()) + "\n")
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(full, indent=1) + "\n")
    return path


def _run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, one child process each."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ]
            done = subprocess.run(command, capture_output=True, text=True, check=False)
            status = max(status, done.returncode)
            lines = done.stdout.strip().splitlines()
            if done.returncode == 2 or len(lines) < 2:
                sys.stderr.write(done.stderr)
                print(f"{name} trace={trace}: failed (exit {done.returncode})")
                continue
            full = json.loads(lines[-2])
            section = full["per_layer"] if trace else full["end_to_end"]
            print(f"== {name} trace={trace} attempted={full['attempted']} "
                  f"failed={full['failed']}")
            for key, metric in section.items():
                print(f"  {key:34s} {metric['value']:14.4f} {metric['unit']}")
            if trace:
                ledger = full["ledger"]
                print(f"  reconciled (self + unaccounted) / op wall = "
                      f"{ledger['reconciled']:.4f}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    try:
        import repro  # noqa: F401
        import benchmarks.common  # noqa: F401
    except ImportError as error:
        print(f"cannot import the program under test: {error}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return _run_all(args.seed, args.seconds)

    cpu = _pin_to_one_cpu()
    full = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    full["context"]["pinned_cpu"] = cpu
    result = _result_line(full)
    path = _write_outputs(full)
    full["report_path"] = str(path.relative_to(ROOT))
    print(json.dumps(full))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # the boundary: report and exit without a result line
        import traceback

        traceback.print_exc()
        sys.exit(2)
