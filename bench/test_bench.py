"""Self-tests of the benchmark: python3 -m pytest bench -q (from the repository root)."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run  # first: puts the repository's src/ on sys.path
import tracing
from rmot_eval import hota, pipeline
from workloads import WORKLOADS, build

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# one or two short sequences per workload, same shape otherwise
TINY = {
    name: dataclasses.replace(
        w,
        sequences=min(w.sequences, 2),
        frames=min(w.frames, 20),
        expressions=min(w.expressions, 3),
    )
    for name, w in WORKLOADS.items()
}


def _run(capsys, name: str, trace: int) -> tuple:
    assert run.main(
        ["--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        workloads=TINY,
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_benchmark_json_lists_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_prints_every_metric(capsys, name, trace):
    record, result = _run(capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["errors"]
    expected = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert record["report_sha256"] and record["failed_frac"] == 0.0
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["pipeline.units"] == record["input"]["units"]
        assert m["io_formats.lines_parsed"] == record["input"]["pred_lines"]
        assert m["model.kept_frac"] == pytest.approx(
            record["input"]["kept_preds"] / record["input"]["pred_lines"]
        )
        assert m["hota.dense_cells_max"] == 19 * record["input"]["max_fgp"]


def test_corrupted_report_is_caught(tmp_path):
    w = TINY["perfect-attrs"]
    inputs = build(w, 5, tmp_path / "inputs")
    log = tmp_path / "cli.log"
    cli_run, data = run.run_cli(w, inputs, tmp_path / "out", log)
    assert cli_run.exit_code == 0 and data is not None, log.read_text()
    assert run.check_report(data, inputs, perfect=True) == []

    doc = json.loads(data)
    doc["metrics"]["per_alpha"][3]["tp"] -= 1
    doc["metrics"]["per_alpha"][3]["fn"] += 1
    errors = run.check_report(json.dumps(doc).encode(), inputs, perfect=True)
    assert any("fn=1" in e for e in errors)
    doc["metrics"]["per_alpha"][3]["fn"] -= 1
    assert any("GT boxes" in e for e in run.check_report(json.dumps(doc).encode(), inputs, False))
    doc = json.loads(data)
    doc["metrics"]["HOTA"] = 99.99
    assert run.check_report(json.dumps(doc).encode(), inputs, perfect=True)
    assert run.check_report(data[: len(data) // 2], inputs, perfect=True)


def test_same_seed_gives_identical_inputs(tmp_path):
    w = TINY["noisy-units"]
    build(w, 7, tmp_path / "a")
    build(w, 7, tmp_path / "b")
    build(w, 8, tmp_path / "c")
    a, b, c = (run._digest_tree(tmp_path / d) for d in "abc")
    assert a == b
    assert a != c


def test_missing_entry_point_is_reported_absent(tmp_path, monkeypatch):
    # The program no longer exposes hota.UnitArrays but still evaluates:
    # the replay reports the metrics that need the hook as absent.
    inputs = build(TINY["perfect-attrs"], 5, tmp_path / "inputs")
    expected, _, _ = tracing.replay(inputs.bundle_dir, inputs.pred_dir, tmp_path / "r0")
    original = hota.match_unit_all_alphas
    match = types.FunctionType(
        original.__code__, {**original.__globals__}, original.__name__, original.__defaults__
    )
    monkeypatch.setattr(pipeline, "match_unit_all_alphas", match)
    monkeypatch.delattr(hota, "UnitArrays")
    data, tracer, absent = tracing.replay(inputs.bundle_dir, inputs.pred_dir, tmp_path / "r1")
    assert data == expected
    assert absent == set(tracing._NEEDS["hota.UnitArrays"])
    metrics = tracing.layer_metrics(tracer, absent)
    assert not absent & set(metrics)
    assert metrics["hota.match_calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "perfect-attrs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
