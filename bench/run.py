#!/usr/bin/env python3
"""Benchmark of ``rmot-eval evaluate`` on seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload perfect-attrs --seed 1 --seconds 28 --trace 0

With ``--trace 0`` it generates the workload's inputs (several times, to time
set-up), then runs the real CLI as a subprocess, one process at a time, for
``--seconds`` seconds, checking every report. With ``--trace 1`` it also
replays the CLI's call sequence in-process with a span around each layer
(see tracing.py). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the input size, the machine, every run and the report's sha256.
See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
if not (SRC / "rmot_eval" / "__init__.py").is_file():
    sys.exit(f"error: no rmot_eval package under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from rmot_eval.model import EvalConfig  # noqa: E402

from tracing import COUNT_METRICS, layer_metrics, replay  # noqa: E402
from workloads import WORKLOADS, Inputs, Workload, build  # noqa: E402

SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 3.0
IMPORT_REPEATS = 5
MIN_TIMED_RUNS = 3
CLI_TIMEOUT_S = 60.0

END_TO_END_UNITS = {
    "eval_s": "s",
    "boxes_per_s": "boxes/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "io_formats.load_bundle_s": "s",
    "io_formats.parse_predictions_s": "s",
    "io_formats.lines_parsed": "count",
    "io_formats.write_report_s": "s",
    "io_formats.write_inputs_s": "s",
    "synth.generate_s": "s",
    "synth.perturb_s": "s",
    "model.validate_s": "s",
    "model.filter_s": "s",
    "model.kept_frac": "ratio",
    "pipeline.evaluate_s": "s",
    "pipeline.self_s": "s",
    "pipeline.units": "count",
    "hota.match_s": "s",
    "hota.match_calls": "count",
    "hota.unit_arrays_s": "s",
    "hota.match_self_s": "s",
    "hota.dense_cells_max": "count",
    "hota.solver_frame_frac": "ratio",
    "assignment.solve_s": "s",
    "assignment.solve_calls": "count",
    "assignment.cells_max": "count",
    "assignment.cells_sum": "count",
    "attributes.restrict_s": "s",
    "attributes.restrict_calls": "count",
    "attributes.match_s": "s",
    "trace.overhead_s": "s",
}

CLI = "import sys; from rmot_eval.cli import main; sys.argv[0] = 'rmot-eval'; sys.exit(main())"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import rmot_eval.cli; "
    "print(time.perf_counter() - t)"
)


@dataclass
class CliRun:
    eval_s: float
    peak_rss_mb: float
    exit_code: int
    errors: List[str]


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _digest_tree(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def check_report(data: bytes, inputs: Inputs, perfect: bool) -> List[str]:
    """Output checks on one report.json; returns the errors found."""
    try:
        metrics = json.loads(data)["metrics"]
        rows = metrics["per_alpha"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    out = []
    if perfect and metrics.get("HOTA") != 100.0:
        out.append(f"HOTA is {metrics.get('HOTA')!r}, expected exactly 100")
    for row in rows:
        tp, fn, fp = row.get("tp"), row.get("fn"), row.get("fp")
        if not all(isinstance(v, int) for v in (tp, fn, fp)):
            out.append(f"alpha {row.get('alpha')}: missing tp/fn/fp")
            continue
        if tp + fn != inputs.gt_boxes:
            out.append(f"alpha {row['alpha']}: tp+fn={tp + fn} != {inputs.gt_boxes} GT boxes")
        if tp + fp != inputs.kept_preds:
            out.append(
                f"alpha {row['alpha']}: tp+fp={tp + fp} != {inputs.kept_preds} kept predictions"
            )
        if perfect and (fn or fp):
            out.append(f"alpha {row['alpha']}: fn={fn} fp={fp} on perfect predictions")
    if len(rows) != len(EvalConfig().alpha_grid):
        out.append(f"{len(rows)} alpha rows, expected {len(EvalConfig().alpha_grid)}")
    return out


def run_cli(
    w: Workload, inputs: Inputs, out_dir: Path, log_path: Path
) -> Tuple[CliRun, Optional[bytes]]:
    """One ``rmot-eval evaluate`` process; returns (CliRun, report bytes or None)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [
        sys.executable, "-c", CLI, "evaluate",
        str(inputs.bundle_dir), str(inputs.pred_dir),
        "--out", str(out_dir), "--workers", str(w.workers),
    ]
    with log_path.open("ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=log, stderr=subprocess.STDOUT, env=_env(), cwd=ROOT,
            start_new_session=True,
        )
        # on a hang, kill the CLI together with its pool workers
        watchdog = threading.Timer(CLI_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)  # reaped by wait4, not Popen
    # ru_maxrss (KiB on Linux) covers the process and every child it reaped
    run = CliRun(elapsed, usage.ru_maxrss / 1024.0, code, [])
    report = out_dir / "report.json"
    data = report.read_bytes() if code == 0 and report.is_file() else None
    if data is None:
        tail = log_path.read_text(errors="replace").strip().splitlines()[-1:]
        run.errors.append(f"exit code {code}, no report.json: {' '.join(tail)}")
    return run, data


def import_time() -> float:
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=_env(), cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=CLI_TIMEOUT_S,
    )
    return float(out.stdout.strip())


def setup(w: Workload, seed: int, work: Path) -> Tuple[Inputs, List[Dict[str, float]], List[str]]:
    """Generate the inputs at least SETUP_MIN_REPEATS times and for at least
    SETUP_MIN_S seconds; keep the first copy.

    Returns (inputs, per-repeat timings, errors). Every copy must be
    byte-identical, since the same seed must give the same inputs.
    """
    first = build(w, seed, work / "inputs")
    digest = _digest_tree(work / "inputs")
    timings, errors = [first.timings], []
    start = time.perf_counter()
    while len(timings) < SETUP_MIN_REPEATS or time.perf_counter() - start < SETUP_MIN_S:
        timings.append(build(w, seed, work / "copy").timings)
        if _digest_tree(work / "copy") != digest:
            errors.append("the same seed gave different inputs")
        shutil.rmtree(work / "copy")
    return first, timings, errors


def measure(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> Tuple[dict, dict]:
    """Set up and measure one workload; returns (result, record)."""
    inputs, setup_timings, setup_errors = setup(w, seed, work)
    perfect = w.perturbation is None  # synth's unperturbed predictions are exact
    log_path = work / "cli.log"
    attempts: List[List[str]] = [setup_errors]  # the errors of each attempt
    runs: List[CliRun] = []
    replays: List[Dict[str, float]] = []
    first: Optional[bytes] = None
    absent: set = set()
    tracer = None
    first_errors: List[str] = []

    def check(data: Optional[bytes], errors: List[str]) -> None:
        nonlocal first
        attempts.append(errors)
        if data is None:
            return
        if first is None:
            first = data
            first_errors.extend(check_report(data, inputs, perfect))
        if data != first:
            errors.append("report.json differs from the first run's")
        errors.extend(first_errors)

    imports = [import_time() for _ in range(IMPORT_REPEATS)] if trace else []
    warm, data = run_cli(w, inputs, work / "out", log_path)  # fills caches, writes .pyc
    check(data, warm.errors)
    start = time.perf_counter()
    while len(runs) < MIN_TIMED_RUNS or time.perf_counter() - start < seconds:
        run, data = run_cli(w, inputs, work / "out", log_path)
        check(data, run.errors)
        runs.append(run)
        if trace:
            try:
                data, tracer, absent = replay(inputs.bundle_dir, inputs.pred_dir, work / "replay")
            except Exception:  # a failed replay is a failed attempt, not a crash
                attempts.append([f"traced replay raised: {traceback.format_exc(limit=-1)}"])
                continue
            check(data, [])
            replays.append(layer_metrics(tracer, absent))

    eval_s = statistics.median(r.eval_s for r in runs)
    if not trace:
        metrics = {
            "eval_s": eval_s,
            "boxes_per_s": (inputs.gt_boxes + inputs.pred_lines) / eval_s,
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
            "setup_s": statistics.median(sum(t.values()) for t in setup_timings),
        }
        units = END_TO_END_UNITS
    elif not replays:
        metrics, units = {}, PER_LAYER_UNITS
    else:
        (WORK / f"spans-{w.name}-s{seed}.json").write_text(json.dumps(tracer.spans))
        attempts.append([
            f"count {name} differs between replays"
            for name in COUNT_METRICS
            if name in replays[0] and any(r[name] != replays[0][name] for r in replays)
        ])
        metrics = {name: statistics.median(r[name] for r in replays) for name in replays[0]}
        metrics["cli.import_s"] = statistics.median(imports)
        for name in setup_timings[0]:
            metrics[name] = statistics.median(t[name] for t in setup_timings)
        replay_s = metrics.pop("trace.replay_s")
        metrics["trace.overhead_s"] = replay_s - (eval_s - metrics["cli.import_s"])
        units = PER_LAYER_UNITS
    failed = sum(1 for errors in attempts if errors)
    result = {
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    record = {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "workers": w.workers,
        "input": inputs.size(),
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "report_sha256": hashlib.sha256(first).hexdigest() if first else None,
        "failed_frac": failed / len(attempts),
        "errors": sorted({e for errors in attempts for e in errors}),
        "absent": sorted(absent),
        "runs": [
            {"eval_s": r.eval_s, "peak_rss_mb": r.peak_rss_mb, "exit": r.exit_code}
            for r in runs
        ],
    }
    return result, record


def main(argv: Optional[List[str]] = None, workloads: Mapping[str, Workload] = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = workloads[args.workload]
    work = WORK / f"{w.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result, record = measure(w, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
