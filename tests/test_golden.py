"""Golden reports: ``rmot-eval evaluate`` on checked-in bundles writes the
checked-in ``report.json`` byte for byte, for 1 and 3 workers, pooled and
macro-averaged.

Each bundle under ``tests/data/golden`` was made by ``rmot-eval synth`` from
the ``config.json`` beside it, which ``test_bundle_made_by_synth`` checks
byte for byte, and its reports by ``rmot-eval evaluate``
(``report-macro.json`` with ``--macro``). ``crowded`` packs 60 tracks and
10 false positives per frame into 640x480 frames, so its units reach the
closed forms and the exact solver; ``two-sequences`` has two perturbed
sequences with attribute labels. A change that moves a report's bytes,
such as summing a float array in another order, fails this test: a report
is meant to change only on purpose, with these files regenerated.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from rmot_eval.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def _tree(root: Path) -> dict:
    """Every file under ``root``, by relative path, as bytes."""
    files = sorted(f for f in root.rglob("*") if f.is_file())
    return {str(f.relative_to(root)): f.read_bytes() for f in files}


@pytest.mark.parametrize("name", ["crowded", "two-sequences"])
def test_bundle_made_by_synth(tmp_path, name):
    root = GOLDEN / name
    result = CliRunner().invoke(main, ["synth", str(root / "config.json"), str(tmp_path)])
    assert result.exit_code == 0, result.output
    for part in ("bundle", "predictions"):
        assert _tree(tmp_path / part) == _tree(root / part), part


@pytest.mark.parametrize("name", ["crowded", "two-sequences"])
@pytest.mark.parametrize("macro", [False, True])
@pytest.mark.parametrize("workers", ["1", "3"])
def test_report_bytes(tmp_path, name, macro, workers):
    root = GOLDEN / name
    args = ["evaluate", str(root / "bundle"), str(root / "predictions"),
            "--workers", workers, "--out", str(tmp_path)]
    result = CliRunner().invoke(main, args + (["--macro"] if macro else []))
    assert result.exit_code == 0, result.output
    expected = root / ("report-macro.json" if macro else "report.json")
    assert (tmp_path / "report.json").read_bytes() == expected.read_bytes()
