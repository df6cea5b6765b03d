"""Command-line front end: evaluate, stats, synth, validate.

Exit codes: 0 success, 1 I/O, parse or option error, 2 validation
violations (suppressed by --allow-violations where offered).
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

import click

from . import __version__
from .io_formats import (
    ParseError,
    PredictionFiles,
    load_bundle,
    report_payload,
    unit_filename,
    write_bundle,
    write_predictions,
    write_report,
)
from .model import EvalConfig, validate_dataset
from .pipeline import evaluate, resolve_workers

EXIT_OK = 0
EXIT_IO = 1
EXIT_VIOLATIONS = 2


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _digest_tree(root: Path) -> Dict[str, str]:
    return {
        str(p.relative_to(root)): _sha256(p)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _write_manifest(
    out_dir: Path,
    config: Dict[str, object],
    inputs: Dict[str, Path],
    elapsed: float,
    workers: int,
) -> None:
    manifest = {
        "tool": "rmot-eval",
        "version": __version__,
        "workers": workers,
        "elapsed_seconds": elapsed,
        "config": config,
        "inputs": {
            name: {"path": str(path), "digests": _digest_tree(path)}
            for name, path in inputs.items()
        },
    }
    with (out_dir / "run_manifest.json").open("w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_alphas(text: Optional[str]) -> Optional[Tuple[float, ...]]:
    if not text:
        return None
    return tuple(float(v) for v in text.split(","))


class CommandError(Exception):
    """An input fault a command finds itself; reported like a ParseError."""


class _Commands(click.Group):
    """The command group; every command's input faults exit here, as
    ``error: …`` and exit code 1, and so do click's usage errors (a bad
    option value, a missing argument, an unknown option or command), with
    click's message."""

    def make_context(self, *args, **kwargs) -> click.Context:
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = EXIT_IO
            raise

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = EXIT_IO
            raise
        except (CommandError, ParseError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_IO)


@click.group(cls=_Commands)
@click.version_option(version=__version__, prog_name="rmot-eval")
def main() -> None:
    """Referring multi-object tracking evaluation toolkit."""


@main.command("evaluate")
@click.argument("gt_dir", type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.argument("pred_dir", type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.option("--beta-ref", type=float, default=0.4, show_default=True)
@click.option("--score-threshold", type=float, default=0.5, show_default=True)
@click.option("--alphas", type=str, default=None, help="Comma-separated alpha grid override.")
@click.option("--attributes", "attributes_dir", type=click.Path(path_type=Path), default=None,
              help="Bundle directory holding attribute files (defaults to GT_DIR).")
@click.option("--macro", is_flag=True, help="Macro-average per expression unit.")
@click.option("--workers", type=int, default=None, help=f"Worker count (env fallback).")
@click.option("--out", "out_dir", type=click.Path(path_type=Path), default=Path("eval-out"),
              show_default=True)
@click.option("--strict", is_flag=True, help="Missing prediction files are errors.")
@click.option("--allow-violations", is_flag=True, help="Evaluate despite validation violations.")
def cmd_evaluate(
    gt_dir: Path,
    pred_dir: Path,
    beta_ref: float,
    score_threshold: float,
    alphas: Optional[str],
    attributes_dir: Optional[Path],
    macro: bool,
    workers: Optional[int],
    out_dir: Path,
    strict: bool,
    allow_violations: bool,
) -> None:
    """Evaluate predictions in PRED_DIR against the bundle in GT_DIR."""
    started = time.monotonic()
    try:
        cfg_kwargs = dict(score_threshold=score_threshold, beta_ref=beta_ref)
        grid = _parse_alphas(alphas)
        if grid:
            cfg_kwargs["alpha_grid"] = grid
        cfg = EvalConfig(**cfg_kwargs)
        n_workers = resolve_workers(workers)
    except ValueError as exc:
        raise CommandError(f"invalid option: {exc}") from None

    inputs = {"gt_dir": gt_dir, "pred_dir": pred_dir}
    bundle = load_bundle(gt_dir)
    if attributes_dir is not None and attributes_dir != gt_dir:
        inputs["attributes_dir"] = attributes_dir
        attr_bundle = load_bundle(attributes_dir)
        bundle = type(bundle)(
            sequences=bundle.sequences,
            tasks=bundle.tasks,
            attributes=attr_bundle.attributes,
            warnings=bundle.warnings,
        )
    for w in bundle.warnings:
        click.echo(f"warning: {w}", err=True)

    violations = validate_dataset(bundle.sequences, bundle.tasks, bundle.attributes)
    if violations:
        for v in violations:
            click.echo(f"violation: {v.code} in {v.sequence_id}: {v.message}", err=True)
        if not allow_violations:
            sys.exit(EXIT_VIOLATIONS)

    # each unit's file is parsed by the process that evaluates the unit
    files = {}
    for task in bundle.tasks:
        pred_path = pred_dir / unit_filename(task.sequence_id, task.expression_id)
        if not pred_path.exists():
            if strict:
                raise CommandError(f"missing prediction file {pred_path}")
            click.echo(
                f"warning: no prediction file for "
                f"{task.sequence_id}/{task.expression_id}; treating as empty",
                err=True,
            )
            continue
        files[(task.sequence_id, task.expression_id)] = (
            pred_path, bundle.sequences[task.sequence_id].length
        )
    units = {unit_filename(t.sequence_id, t.expression_id) for t in bundle.tasks}
    for stray in sorted(p for p in pred_dir.glob("*.txt") if p.name not in units):
        if strict:
            raise CommandError(f"prediction file {stray} matches no unit")
        click.echo(f"warning: prediction file {stray} matches no unit", err=True)

    report, attr_report = evaluate(
        bundle, PredictionFiles(files), cfg, workers=n_workers, macro=macro
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    config = {
        "score_threshold": cfg.score_threshold,
        "beta_ref": cfg.beta_ref,
        "alpha_grid": list(cfg.alpha_grid),
        "aggregation": "macro" if macro else "pooled",
    }
    json_path, table_path = write_report(
        report_payload(report, attributes=attr_report, config=config), out_dir
    )
    _write_manifest(out_dir, config, inputs, time.monotonic() - started, n_workers)
    click.echo(table_path.read_text().rstrip("\n"))
    click.echo(f"report written to {json_path}")


@main.command("stats")
@click.argument("gt_dir", type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.option("--out", "out_dir", type=click.Path(path_type=Path), default=Path("stats-out"),
              show_default=True)
def cmd_stats(gt_dir: Path, out_dir: Path) -> None:
    """Compute dataset statistics and histograms for the bundle in GT_DIR."""
    from .stats import compute_stats, emit_histograms

    bundle = load_bundle(gt_dir)
    report = compute_stats(bundle.sequences, bundle.tasks)
    out_dir.mkdir(parents=True, exist_ok=True)
    stats_path = out_dir / "stats.json"
    with stats_path.open("w", encoding="utf-8", newline="\n") as fh:
        json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    emit_histograms(report, out_dir)
    click.echo(
        f"videos={report.videos} frames={report.frames} "
        f"expressions={report.expressions_total} "
        f"temporal_ratio={report.temporal_ratio_mean:.3f}"
    )
    click.echo(f"stats written to {stats_path}")


@main.command("synth")
@click.argument("config_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.argument("out_dir", type=click.Path(path_type=Path))
def cmd_synth(config_file: Path, out_dir: Path) -> None:
    """Generate a synthetic bundle plus predictions from CONFIG_FILE (JSON)."""
    from .synth import PerturbationConfig, ScenarioConfig, generate_scenario, perturb

    try:
        with config_file.open("r", encoding="utf-8-sig") as fh:
            doc = json.load(fh)
        scenarios = doc.get("scenarios") if isinstance(doc, dict) else None
        if not scenarios:
            raise CommandError("config must define a non-empty 'scenarios' list")

        sequences = {}
        tasks = []
        attributes = {}
        all_preds = {}
        for i, entry in enumerate(scenarios):
            entry = dict(entry)
            entry.setdefault("sequence_id", f"synth-{i:04d}")
            cfg = ScenarioConfig(**entry)
            if cfg.sequence_id in sequences:
                raise CommandError(
                    f"invalid config: scenario {i} repeats sequence_id {cfg.sequence_id!r}"
                )
            scenario = generate_scenario(cfg)
            sequences[cfg.sequence_id] = scenario.sequence
            tasks.extend(scenario.tasks)
            attributes[cfg.sequence_id] = scenario.labels
            all_preds.update(scenario.predictions)

        pert = doc.get("perturbation")
        if pert:
            pert = dict(pert)
            pert.pop("sequence_length", None)  # each sequence supplies its own
            for key, dets in list(all_preds.items()):
                pcfg = PerturbationConfig(
                    sequence_length=sequences[key[0]].length,
                    **pert,
                )
                all_preds[key] = perturb(dets, pcfg)

        bundle_dir = Path(out_dir) / "bundle"
        pred_dir = Path(out_dir) / "predictions"
        write_bundle(bundle_dir, sequences, tasks, attributes)
        pred_dir.mkdir(parents=True, exist_ok=True)
        for (seq_id, expr_id), dets in sorted(all_preds.items()):
            write_predictions(dets, pred_dir / unit_filename(seq_id, expr_id))
        click.echo(f"bundle written to {bundle_dir}")
        click.echo(f"predictions written to {pred_dir}")
    except (TypeError, ValueError) as exc:
        raise CommandError(f"invalid config: {exc}") from None


@main.command("validate")
@click.argument("gt_dir", type=click.Path(path_type=Path))
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None,
              help="Write the violation report to this JSON file.")
def cmd_validate(gt_dir: Path, out_path: Optional[Path]) -> None:
    """Validate the dataset bundle in GT_DIR; exit 2 if violations exist."""
    if not gt_dir.is_dir():
        raise CommandError(f"{gt_dir} is not a readable directory")
    bundle = load_bundle(gt_dir)
    violations = validate_dataset(bundle.sequences, bundle.tasks, bundle.attributes)
    payload = [v.as_dict() for v in violations]
    if out_path is not None:
        with Path(out_path).open("w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    for v in violations:
        click.echo(f"violation: {v.code} in {v.sequence_id}: {v.message}")
    click.echo(f"{len(violations)} violation(s)")
    if violations:
        sys.exit(EXIT_VIOLATIONS)


if __name__ == "__main__":
    main()
