"""The coordnet names the benchmark reaches still resolve.

perfbench/tracer.py wraps coordnet functions by name and replays the
postings it captured through every kernel backend; perfbench/run.py
probes the kernel backends for the provenance of every run. Deleting
or renaming one of those names makes every benchmark run fail, so the
check runs here, in a subprocess that loads perfbench as the benchmark
does.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from helpers import subprocess_env

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, os, sys
sys.path.insert(0, "perfbench")
import numpy as np
import coordnet.kernels
import run, tracer

t = tracer.Tracer("t")
t.install()
# one postings array through the traced kernel, then the replay
coordnet.kernels.accumulate_pair_products(
    np.array([0, 3]), np.array([0, 1, 2]), np.array([0.5, 0.25, 0.125])
)
truth = {"workload": "w", "seed": 0, "records": 0, "accounts": 0}
print(json.dumps([t.check_backends(), run.provenance(dict(os.environ), truth, "")]))
"""


def test_tracer_installs_and_provenance_probe_runs():
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        cwd=ROOT, env=subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    check, provenance = json.loads(out.stdout)
    assert len(provenance["kernel_backends_importable"]) >= 2
    assert provenance["kernel_backend"] in provenance["kernel_backends_importable"]
    assert check["postings"] == 1 and check["identical"] is True


# Wrapped names the CLI no longer calls: the tracer still wraps them, so
# they stay until the benchmark stops naming them.
UNREACHED = {
    "corpus.to_jsonl",
    "formats.read_account_list",
    "sociolinguistics.rows_for",
    "stats.daily_mean_confidence",
}


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_has_a_span(tmp_path):
    # A wrapped function the CLI stops calling reads 0 in its per-layer
    # metric without failing any run; one traced report-full pipeline
    # (every stage, report with --confidences) shows it.
    workloads, tracer = _load("workloads"), _load("tracer")
    workloads.generate("report-full", 1, tmp_path)
    rep = tmp_path / "rep"
    rep.mkdir()
    reached = set()
    for stage, args in workloads.WORKLOADS["report-full"]["stages"]:
        spans = rep / f"spans_{stage}.json"
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--out", str(spans),
             "--run", stage, "--", "--threads", "1", "--seed", "1", *args],
            cwd=rep, env=subprocess_env(), capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, (stage, out.stderr)
        reached |= {span["name"] for span in json.loads(spans.read_text())["spans"]}
    wrapped = {f"{layer}.{attr.split('.')[-1]}" for layer, attr, *_ in tracer.WRAPPED}
    assert sorted(wrapped - reached - UNREACHED) == []
