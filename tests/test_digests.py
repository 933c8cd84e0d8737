"""Pinned output bytes: the sha256 of every artifact of fixed runs.

The runs take their corpora from perfbench/workloads.py at seed 1:

- report-full through all five stages, report with --confidences;
- report again on that cache, without confidences and with
  --duplicate-scope corpus;
- ingest and detect on detect-dense;
- hashtag-burst through ingest, detect, cluster and report, whose
  C(m, 2) hashtag edges pin the edge-file writer and reader.

The same runs check that every CSV cell they write is a finite number,
an empty (undefined) value, or sits in a column of names.

tests/digests.json holds the digests beside the Python and numpy
versions that wrote them. A change meant to move bytes rewrites the file
(`PYTHONPATH=src python tests/test_digests.py`) in the same commit and
says which entries moved and why.
"""

import csv
import importlib.util
import json
import math
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from coordnet.cli import main
from coordnet.manifest import file_sha256

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("digests.json")
SEED = 1

_spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def runs() -> dict[str, list[list[str]]]:
    """Workload -> the CLI argv of each stage, run in a directory beside
    the workload's input.jsonl."""
    report_full = [argv for _, argv in workloads.WORKLOADS["report-full"]["stages"]]
    corpus_scope = [
        "report", "cache.jsonl", "-o", "bundle-corpus", "--edges", "det",
        "--story-hashtags", workloads.STORY_HASHTAGS, "--duplicate-scope", "corpus",
    ]
    detect_dense = [argv for name, argv in workloads.WORKLOADS["detect-dense"]["stages"]
                    if name in ("ingest", "detect")]
    hashtag_burst = [argv for _, argv in workloads.WORKLOADS["hashtag-burst"]["stages"]]
    return {
        "report-full": report_full + [corpus_scope],
        "detect-dense": detect_dense,
        "hashtag-burst": hashtag_burst,
    }


def _main_in(cwd: Path, argv: list[str]) -> int:
    old = os.getcwd()
    os.chdir(cwd)
    try:
        return main(argv)
    finally:
        os.chdir(old)


def run_digests(base: Path) -> dict[str, str]:
    """"<workload>/<file>" -> sha256 of the input and of every file the runs write."""
    digests = {}
    for workload, stages in runs().items():
        work = base / workload
        workloads.generate(workload, SEED, work)
        out = work / "run"
        out.mkdir()
        for argv in stages:
            assert _main_in(out, argv) == 0, f"{workload}: coordnet {' '.join(argv)} failed"
        digests[f"{workload}/input.jsonl"] = file_sha256(work / "input.jsonl")
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digests[f"{workload}/{path.relative_to(out).as_posix()}"] = file_sha256(path)
    return digests


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


@pytest.fixture(scope="module")
def pinned_runs(tmp_path_factory) -> tuple[Path, dict[str, str]]:
    """The directory the runs wrote under, and run_digests' result."""
    base = tmp_path_factory.mktemp("pinned")
    return base, run_digests(base)


def test_artifact_bytes_match_the_pinned_digests(pinned_runs):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    _, got = pinned_runs
    moved = sorted(
        key for key in pinned["sha256"].keys() | got.keys()
        if pinned["sha256"].get(key) != got.get(key)
    )
    assert not moved, (
        f"{len(moved)} artifacts moved: {', '.join(moved)} "
        f"(pinned under {pinned['versions']}, this run {versions()})"
    )


# The columns whose cells are names, not numbers: ids, evidence keys,
# detector, day, scope (deltas.csv's "cluster"), characteristic, label,
# language and the member ids that continue a clusters.csv row.
TEXT_COLUMNS = {
    "account_a", "account_b", "account_id", "tweet_id", "member_ids", "evidence",
    "detector", "day", "scope", "cluster", "characteristic", "label", "language",
}


def test_every_csv_cell_is_a_finite_number_or_text(pinned_runs):
    # Under numpy 2 an np.float64 reaching formats.fmt is written as
    # "np.float64(...)", which float() cannot read back; nan and inf are
    # no values either. An empty cell is an undefined value (None).
    base, _ = pinned_runs
    paths = sorted(base.glob("*/run/**/*.csv"))
    assert len(paths) == 32
    for path in paths:
        with open(path, encoding="utf-8", newline="") as fp:
            header, *rows = csv.reader(fp)
        numeric = [name not in TEXT_COLUMNS for name in header]
        for line_no, row in enumerate(rows, start=2):
            # cells past the header continue its last column
            for cell, is_number in zip(row, numeric + numeric[-1:] * len(row)):
                if is_number and cell:
                    assert math.isfinite(float(cell)), (path, line_no, cell)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        payload = {"seed": SEED, "versions": versions(), "sha256": run_digests(Path(tmp))}
    DIGESTS.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(payload['sha256'])} digests -> {DIGESTS}", file=sys.stderr)
