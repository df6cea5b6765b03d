"""End-to-end evaluation orchestration: pooling, workers, macro mode."""

import dataclasses
import json
import math
import multiprocessing.pool
import os
import signal
import subprocess
import sys
import threading
import time
from collections.abc import Mapping
from pathlib import Path

import pytest

from rmot_eval import pipeline
from rmot_eval.hota import match_unit_all_alphas
from rmot_eval.io_formats import (
    DatasetBundle,
    ParseError,
    PredictionFiles,
    report_payload,
    unit_filename,
    write_predictions,
)
from rmot_eval.model import (
    Attribute,
    AttributeFrameLabels,
    EvalConfig,
    UnitBoxes,
    filter_predictions,
)
from rmot_eval.pipeline import WORKERS_ENV, evaluate, resolve_workers
from rmot_eval.synth import PerturbationConfig, ScenarioConfig, generate_scenario, perturb

from .conftest import det, box


def perturbed_setup(seed=21, **pert):
    sc = generate_scenario(
        ScenarioConfig(seed=seed, sequence_length=60, n_tracks=6, n_expressions=5)
    )
    preds = {
        key: perturb(list(dets), PerturbationConfig(seed=seed, sequence_length=60, **pert))
        for key, dets in sc.predictions.items()
    }
    bundle = DatasetBundle(
        sequences={sc.sequence.sequence_id: sc.sequence},
        tasks=sc.tasks,
        attributes={sc.sequence.sequence_id: sc.labels},
    )
    return bundle, preds


@pytest.fixture(params=["fork", "forkserver", "spawn"])
def start_method(request, monkeypatch):
    """Pools that ``evaluate`` makes start their workers by this method."""
    get_context = multiprocessing.get_context
    monkeypatch.setattr(
        multiprocessing, "get_context", lambda method=None: get_context(request.param)
    )
    return request.param


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers(None) == 5

    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1

    def test_floor_at_one(self):
        assert resolve_workers(0) == 1


class TestEvaluate:
    def test_perfect_is_100(self, mini_bundle, mini_predictions):
        report, attrs = evaluate(mini_bundle, mini_predictions, EvalConfig())
        assert report.hota == 100.0
        assert attrs is not None and attrs.hota_s == 100.0

    def test_missing_units_are_empty_predictions(self, mini_bundle):
        no_attrs = dataclasses.replace(mini_bundle, attributes={})
        report, _ = evaluate(no_attrs, {}, EvalConfig())
        # every gt box becomes a FN; the no-target unit contributes nothing
        assert report.per_alpha[0].fn == 29
        assert report.per_alpha[0].fp == 0
        assert report.hota == 0.0

    def test_worker_count_invariance(self, start_method):
        bundle, preds = perturbed_setup(miss_rate=0.2, fp_rate=0.4, jitter=2,
                                        idswitch_rate=0.03)
        cfg = EvalConfig()
        for macro in (False, True):
            # the units' tally arrays come back from 1, 2 or 3 processes
            payloads = [
                json.dumps(
                    report_payload(*evaluate(bundle, preds, cfg, workers=w, macro=macro)),
                    sort_keys=True,
                )
                for w in (1, 2, 3)
            ]
            assert payloads[0] == payloads[1] == payloads[2]
            assert pipeline._WORKER is None  # set in the workers only
            payload = json.loads(payloads[0])
            assert ("MACRO_AGGREGATION" in payload["metrics"]["flags"]) is macro
            assert any(v is not None for v in payload["attributes"]["per_attribute"].values())

    @pytest.mark.parametrize("workers, n_units, processes", [(4, 2, 2), (2, 3, 2)])
    def test_never_more_workers_than_units(self, start_method, workers, n_units, processes):
        bundle, preds = perturbed_setup(miss_rate=0.2, fp_rate=0.4, jitter=2)
        bundle = dataclasses.replace(bundle, tasks=bundle.tasks[:n_units])
        ctx = multiprocessing.get_context()
        make_pool, made = ctx.Pool, []

        def recording_pool(processes=None, *args, **kwargs):
            made.append(processes)
            return make_pool(processes, *args, **kwargs)

        ctx.Pool = recording_pool
        try:
            pooled = evaluate(bundle, preds, EvalConfig(), workers=workers)
        finally:
            del ctx.Pool
        assert made == [processes]
        assert report_payload(*pooled) == report_payload(*evaluate(bundle, preds, EvalConfig()))

    def test_unit_order_invariance_bitwise(self):
        bundle, preds = perturbed_setup(miss_rate=0.3, fp_rate=0.5, jitter=3)
        cfg = EvalConfig()
        permuted = DatasetBundle(
            sequences=bundle.sequences,
            tasks=tuple(reversed(bundle.tasks)),
            attributes=bundle.attributes,
        )
        ra, aa = evaluate(bundle, preds, cfg)
        rb, ab = evaluate(permuted, preds, cfg)
        assert report_payload(ra, attributes=aa) == report_payload(rb, attributes=ab)

    def test_filtering_applied(self, mini_bundle):
        task = mini_bundle.tasks[0]
        good = det(1, task.targets[1]["a1"], "p1", confidence=0.9, referring_score=0.9)
        weak = det(2, task.targets[2]["a1"], "p2", confidence=0.9, referring_score=0.1)
        report, _ = evaluate(
            dataclasses.replace(mini_bundle, attributes={}),
            {("seq-a", "e1"): [good, weak]},
            EvalConfig(),
        )
        assert report.per_alpha[0].tp == 1  # weak referring score filtered out

    def test_no_units(self):
        bundle = DatasetBundle(
            sequences={"s": next(iter(perturbed_setup()[0].sequences.values()))},
            tasks=(),
            attributes={},
        )
        report, attrs = evaluate(bundle, {}, EvalConfig())
        assert report.flags == ("EMPTY_EVAL",)
        assert attrs is None

    def test_macro_mode_flag_and_value(self, mini_bundle, mini_predictions):
        pooled, _ = evaluate(mini_bundle, mini_predictions, EvalConfig(), macro=False)
        macro, _ = evaluate(mini_bundle, mini_predictions, EvalConfig(), macro=True)
        assert pooled.flags == ()
        assert macro.flags == ("MACRO_AGGREGATION",)
        assert macro.hota == 100.0  # perfect either way

    def test_macro_differs_from_pooled_on_unbalanced_units(self):
        bundle, preds = perturbed_setup(miss_rate=0.5)
        cfg = EvalConfig()
        no_attrs = dataclasses.replace(bundle, attributes={})
        pooled, _ = evaluate(no_attrs, preds, cfg)
        macro, _ = evaluate(no_attrs, preds, cfg, macro=True)
        assert pooled.hota != macro.hota

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("frame", [0, 11, 999])
    def test_prediction_outside_the_sequence_rejected(
        self, mini_bundle, mini_predictions, workers, frame
    ):
        # seq-a has 10 frames; the detection is rejected even though its
        # scores would have it filtered out
        preds = dict(mini_predictions)
        preds[("seq-a", "e2")] = preds[("seq-a", "e2")] + [
            det(frame, box(0, 0, 5, 5), "late", confidence=0.1, referring_score=0.1)
        ]
        with pytest.raises(ValueError) as exc:
            evaluate(mini_bundle, preds, EvalConfig(), workers=workers)
        assert str(exc.value) == (
            f"unit seq-a/e2: a prediction lies on frame {frame}, "
            "outside the sequence's frames 1-10"
        )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "bad, expected",
        [
            pytest.param(
                det(4, box(math.nan, 0, 5, 5), "p"),
                "has box coordinates x, y, w, h nan, 0.0, 5.0, 5.0; they must be finite",
                id="nan-x",
            ),
            pytest.param(
                det(4, box(0, 0, math.inf, 5), "p"),
                "has box coordinates x, y, w, h 0.0, 0.0, inf, 5.0; they must be finite",
                id="inf-w",
            ),
            pytest.param(
                det(4, box(0, 0, 5, 5), "p", confidence=math.nan),
                "has a confidence/referring score outside [0, 1]: nan, 1.0",
                id="nan-confidence",
            ),
            pytest.param(
                det(4, box(0, 0, 5, 5), "p", confidence=-0.25),
                "has a confidence/referring score outside [0, 1]: -0.25, 1.0",
                id="negative-confidence",
            ),
            pytest.param(
                det(4, box(0, 0, 5, 5), "p", referring_score=1.5),
                "has a confidence/referring score outside [0, 1]: 1.0, 1.5",
                id="referring-score-above-1",
            ),
        ],
    )
    def test_malformed_prediction_rejected(
        self, mini_bundle, mini_predictions, workers, bad, expected
    ):
        # the parser's NON_FINITE and SCORE_RANGE rules, for predictions
        # passed in memory; seq-a/e2 fails before seq-b/e1
        preds = dict(mini_predictions)
        preds[("seq-a", "e2")] = preds[("seq-a", "e2")] + [bad]
        preds[("seq-b", "e1")] = [det(1, box(0, 0, 5, 5), "q", confidence=math.inf)]
        with pytest.raises(ValueError) as exc:
            evaluate(mini_bundle, preds, EvalConfig(), workers=workers)
        assert str(exc.value) == f"unit seq-a/e2: a prediction on frame 4 {expected}"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_prediction_past_int64_rejected(self, mini_bundle, mini_predictions, workers):
        preds = dict(mini_predictions)
        preds[("seq-a", "e2")] = [det(2**64, box(0, 0, 5, 5), "late")]
        with pytest.raises(ValueError) as exc:
            evaluate(mini_bundle, preds, EvalConfig(), workers=workers)
        assert str(exc.value) == (
            f"unit seq-a/e2: frame {2**64} does not fit in a 64-bit integer"
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_attribute_rows_past_the_sequence_left_out(
        self, mini_bundle, mini_predictions, workers
    ):
        # seq-a has 10 frames; rows 11-15 (a FRAME_OUT_OF_BOUNDS violation)
        # change neither the attribute scores nor the frame counts
        flags = dict(mini_bundle.attributes["seq-a"].flags)
        late = frozenset({Attribute.NIGHT, Attribute.OCCLUSION})
        flags.update({f: late for f in range(11, 16)})
        longer = dataclasses.replace(
            mini_bundle, attributes={"seq-a": AttributeFrameLabels("seq-a", flags)}
        )
        cfg = EvalConfig()
        expected = report_payload(*evaluate(mini_bundle, mini_predictions, cfg, workers=workers))
        got = report_payload(*evaluate(longer, mini_predictions, cfg, workers=workers))
        assert got == expected
        assert got["attributes"]["frame_counts"]["night"] == 5

    def test_oracle_solver_injection(self, mini_bundle, mini_predictions):
        from rmot_eval.assignment import solve_oracle

        no_attrs = dataclasses.replace(mini_bundle, attributes={})
        base, _ = evaluate(no_attrs, mini_predictions, EvalConfig())
        via_oracle, _ = evaluate(no_attrs, mini_predictions, EvalConfig(),
                                 solver=solve_oracle)
        assert report_payload(base) == report_payload(via_oracle)

    def test_nested_evaluate(self, mini_bundle, mini_predictions):
        # a lookup that runs a whole evaluation of its own before it answers
        bundle, preds = perturbed_setup(miss_rate=0.2, fp_rate=0.4)
        cfg = EvalConfig()
        inner = []

        class Nested(Mapping):
            def __getitem__(self, key):
                if not inner:
                    inner.append(report_payload(*evaluate(bundle, preds, cfg)))
                return mini_predictions[key]

            def __iter__(self):
                return iter(mini_predictions)

            def __len__(self):
                return len(mini_predictions)

        got = report_payload(*evaluate(mini_bundle, Nested(), cfg))
        assert got == report_payload(*evaluate(mini_bundle, mini_predictions, cfg))
        assert inner == [report_payload(*evaluate(bundle, preds, cfg))]

    def test_concurrent_calls(self):
        runs = [
            perturbed_setup(seed=21, miss_rate=0.2, fp_rate=0.4, jitter=2),
            perturbed_setup(seed=58, miss_rate=0.4, fp_rate=0.2, idswitch_rate=0.05),
        ]
        cfg = EvalConfig()
        expected = [report_payload(*evaluate(b, p, cfg)) for b, p in runs]
        assert expected[0] != expected[1]
        got = [[], []]

        def work(i):
            for _ in range(10):
                got[i].append(report_payload(*evaluate(*runs[i], cfg)))

        threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[expected[0]] * 10, [expected[1]] * 10]


class TestInputForms:
    """Predictions read from files (``PredictionFiles``, columns) and the same
    detections passed as lists score identically."""

    @pytest.mark.parametrize("seed", [3, 21, 58])
    def test_files_and_detection_lists_agree(self, tmp_path, seed):
        bundle, preds = perturbed_setup(
            seed=seed, miss_rate=0.2, fp_rate=0.6, idswitch_rate=0.05, jitter=3,
            confidence_range=(0.0, 1.0), referring_range=(0.0, 1.0),
        )
        cfg = EvalConfig()
        files = {}
        for task in bundle.tasks:
            key = (task.sequence_id, task.expression_id)
            path = tmp_path / unit_filename(*key)
            write_predictions(preds.get(key, []), path)
            files[key] = (path, bundle.sequences[task.sequence_id].length)
            # the file holds the detections in (frame, track id) order
            preds[key] = sorted(preds.get(key, []), key=lambda d: (d.frame, d.track_id))
        from_files = PredictionFiles(files)
        assert evaluate(bundle, from_files, cfg) == evaluate(bundle, preds, cfg)
        for task in bundle.tasks:
            key = (task.sequence_id, task.expression_id)
            columns = from_files[key]
            assert isinstance(columns, UnitBoxes) and columns == preds[key]
            frames = range(1, bundle.sequences[task.sequence_id].length + 1)
            whole = [
                match_unit_all_alphas(task, filter_predictions(d, cfg), cfg.alpha_grid, frames)
                for d in (columns, preds[key])
            ]
            assert whole[0] == whole[1]
            assert any(s.pair_tpa for s in whole[0]) or not task.targets


class LoggedLookups(Mapping):
    """Predictions whose lookups append ``<unit> <pid>`` to a log file, so
    lookups made in pool workers can be counted by the parent."""

    def __init__(self, preds, log, fail=None):
        self.preds, self.log, self.fail = preds, log, fail or {}

    def __getitem__(self, key):
        with open(self.log, "a") as fh:
            fh.write(f"{'/'.join(key)} {os.getpid()}\n")
        if key in self.fail:
            delay, exc = self.fail[key]
            time.sleep(delay)
            raise exc
        return self.preds[key]

    def __iter__(self):
        return iter(self.preds)

    def __len__(self):
        return len(self.preds)


class TestPerUnitLookup:
    def test_each_unit_looked_up_once_in_a_worker(self, tmp_path):
        bundle, preds = perturbed_setup(miss_rate=0.2, fp_rate=0.4)
        log = tmp_path / "lookups.log"
        cfg = EvalConfig()
        r2, a2 = evaluate(bundle, LoggedLookups(preds, log), cfg, workers=2)
        lines = [line.split() for line in log.read_text().splitlines()]
        units = sorted(unit for unit, _ in lines)
        assert units == sorted(f"{t.sequence_id}/{t.expression_id}" for t in bundle.tasks)
        assert all(int(pid) != os.getpid() for _, pid in lines)
        r1, a1 = evaluate(bundle, preds, cfg, workers=1)
        assert report_payload(r2, attributes=a2) == report_payload(r1, attributes=a1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_failing_unit_in_order_wins(self, tmp_path, workers, start_method):
        bundle, preds = perturbed_setup()
        keys = [(t.sequence_id, t.expression_id) for t in bundle.tasks]
        # unit 1 fails slowly and unit 3 at once, so unit 3's error reaches
        # the parent first when two workers run
        fail = {
            keys[1]: (0.5, ParseError("SCORE_RANGE", "unit1.txt", 7, "late")),
            keys[3]: (0.0, ParseError("NON_FINITE", "unit3.txt", 1, "early")),
        }
        lookups = LoggedLookups(preds, tmp_path / "lookups.log", fail)
        with pytest.raises(ParseError) as exc:
            evaluate(bundle, lookups, EvalConfig(), workers=workers)
        assert (exc.value.code, exc.value.path, exc.value.line) == ("SCORE_RANGE", "unit1.txt", 7)


# Evaluates a 3-unit bundle whose prediction lookup raises an exception that
# pickles but cannot be unpickled (its __init__ needs a keyword argument).
UNPICKLABLE_ERROR_RUN = """
import sys
from collections.abc import Mapping

from rmot_eval.io_formats import DatasetBundle
from rmot_eval.model import EvalConfig
from rmot_eval.pipeline import evaluate
from rmot_eval.synth import ScenarioConfig, generate_scenario


class Rejected(Exception):
    def __init__(self, message, *, unit):
        super().__init__(message)
        self.unit = unit


class Rejecting(Mapping):
    def __getitem__(self, key):
        raise Rejected("no predictions for " + "/".join(key), unit=key)

    def __iter__(self):
        return iter(())

    def __len__(self):
        return 0


sc = generate_scenario(ScenarioConfig(seed=3, sequence_length=10, n_tracks=2, n_expressions=3))
bundle = DatasetBundle({sc.sequence.sequence_id: sc.sequence}, sc.tasks, {})
try:
    evaluate(bundle, Rejecting(), EvalConfig(), workers=int(sys.argv[1]))
except Exception as exc:
    print(type(exc).__name__, exc)
"""


class TestWorkerErrors:
    def test_error_closes_and_joins_the_pool(self, tmp_path, monkeypatch, start_method):
        # a worker killed by terminate() while it writes a result can leave
        # the result queue locked and the pool's shutdown waiting for ever
        bundle, preds = perturbed_setup()
        keys = [(t.sequence_id, t.expression_id) for t in bundle.tasks]
        lookups = LoggedLookups(
            preds, tmp_path / "lookups.log", {keys[0]: (0.0, ParseError("NON_FINITE", "u", 1, "x"))}
        )
        calls = []
        for name in ("close", "join", "terminate"):
            original = getattr(multiprocessing.pool.Pool, name)

            def traced(pool, _name=name, _original=original):
                calls.append(_name)
                return _original(pool)

            monkeypatch.setattr(multiprocessing.pool.Pool, name, traced)
        with pytest.raises(ParseError) as exc:
            evaluate(bundle, lookups, EvalConfig(), workers=2)
        assert exc.value.path == "u"
        assert calls == ["close", "join"]
        assert pipeline._WORKER is None  # set in the workers only

    @pytest.mark.parametrize(
        "workers, expected",
        [
            (1, "Rejected no predictions for synth-0000/e000"),
            (2, "WorkerError Rejected: no predictions for synth-0000/e000"),
        ],
    )
    def test_unpicklable_error_reaches_the_caller(self, workers, expected):
        src = Path(__file__).resolve().parents[1] / "src"
        path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        # its own session, so a hung run is killed together with its workers
        proc = subprocess.Popen(
            [sys.executable, "-c", UNPICKLABLE_ERROR_RUN, str(workers)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail(f"evaluate with {workers} worker(s) hung on an unpicklable error")
        assert proc.returncode == 0, err
        assert out.strip() == expected
