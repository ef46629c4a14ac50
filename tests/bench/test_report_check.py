"""EXPERIMENTS.md regeneration and the ``report --check`` staleness gate."""

import os

import pytest

from repro.bench.report import (
    check_experiments_md,
    generate_experiments_md,
    write_experiments_md,
)
REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
COMMITTED_DOC = os.path.join(REPO, "EXPERIMENTS.md")
COMMITTED_MANIFEST = os.path.join(REPO, "benchmarks", "MANIFEST_sweep.jsonl")


@pytest.fixture
def manifest(bench_manifest):
    """The session's bench-scale manifest (``tests/bench/conftest.py``)."""
    return bench_manifest


def test_generation_is_deterministic(manifest):
    assert generate_experiments_md(manifest) == generate_experiments_md(manifest)


def test_check_passes_on_fresh_doc(manifest, tmp_path):
    doc = tmp_path / "EXPERIMENTS.md"
    write_experiments_md(str(doc), manifest)
    assert check_experiments_md(str(doc), manifest) == []


def test_check_catches_stale_table(manifest, tmp_path):
    doc = tmp_path / "EXPERIMENTS.md"
    write_experiments_md(str(doc), manifest)
    text = doc.read_text()
    assert "2179" in text, "the Cache-Hit anchor should appear in the doc"
    doc.write_text(text.replace("2179", "1234", 1))
    problems = check_experiments_md(str(doc), manifest)
    assert problems, "a stale measured value must fail the check"
    assert any("1234" in line for line in problems)


def test_check_catches_missing_doc(manifest, tmp_path):
    problems = check_experiments_md(str(tmp_path / "absent.md"), manifest)
    assert problems == [f"{tmp_path / 'absent.md'} does not exist"]


def test_generation_names_missing_cells(manifest, tmp_path):
    import json

    pruned = tmp_path / "pruned.jsonl"
    with open(manifest) as src, open(pruned, "w") as dst:
        for line in src:
            record = json.loads(line)
            if record.get("cell_id") != "fig7/aquila":
                dst.write(line)
    with pytest.raises(KeyError, match="fig7/aquila"):
        generate_experiments_md(str(pruned))


@pytest.mark.skipif(
    not (os.path.exists(COMMITTED_DOC) and os.path.exists(COMMITTED_MANIFEST)),
    reason="committed sweep artifacts not present",
)
def test_committed_doc_matches_committed_manifest():
    """The repo's EXPERIMENTS.md must regenerate from the repo's manifest.

    This is the same gate CI runs (``python -m repro.bench report
    --check``); failing here means someone edited the doc by hand or
    changed the claims/generators without regenerating.
    """
    problems = check_experiments_md(COMMITTED_DOC, COMMITTED_MANIFEST)
    assert problems == [], "\n".join(problems[:40])
