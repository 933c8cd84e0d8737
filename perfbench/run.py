#!/usr/bin/env python3
"""Pipeline benchmark for coordnet: seeded corpora through the real CLI.

    python3 perfbench/run.py --workload detect-dense --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The workload's corpus is
generated from --seed, then whole pipelines (one CLI subprocess per
stage, --threads 1, one after another) repeat while the next one is
expected to end within --seconds. Every stage run is checked: exit code, byte-identical outputs
across repetitions (and across runs of the same code and seed in this
checkout) and the planted ground truth. The last line of stdout is one
JSON object: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_CALLS = 5
DEADLINE_S = 170.0  # every run exits well inside 180 s
MIB = 1024.0 * 1024.0


@dataclass
class Stage:
    """One finished stage process."""

    name: str
    code: int
    wall_s: float
    rss_mib: float
    problems: list[str] = field(default_factory=list)


def run_process(cmd: list[str], cwd: Path, env: dict, log: Path, deadline: float) -> tuple[int, float, float]:
    """Run cmd to completion; return exit code, wall seconds, peak RSS in MiB.

    The child is reaped with wait4, so its ru_maxrss is its own peak and
    not that of any other child. A timer kills it at the deadline.
    """
    lock = threading.Lock()
    exited = False
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=out
        )

        def kill():
            with lock:
                if not exited:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
        timer.start()
        # wait without reaping, so the pid cannot be reused before the timer is off
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            exited = True
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def stage_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_args(args: list[str], seed: int) -> list[str]:
    """Global flags every stage gets, then the stage's own arguments."""
    return ["--threads", "1", "--seed", str(seed)] + args


def setup_time(env: dict, log: Path, deadline: float) -> list[float]:
    """Wall times of `coordnet --version`: interpreter start plus imports."""
    samples = []
    for _ in range(SETUP_CALLS):
        code, wall, _ = run_process(
            [sys.executable, "-m", "coordnet.cli", "--version"], ROOT, env, log, deadline
        )
        if code != 0:
            raise SystemExit(f"coordnet --version exited {code}; see {log}")
        samples.append(wall)
    return samples


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def output_digests(rep: Path) -> dict[str, str]:
    """sha256 of every deterministic output file, plus each manifest digest."""
    out = {}
    for rel in workloads.DETERMINISTIC:
        path = rep / rel
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            if f.exists():
                out[str(f.relative_to(rep))] = sha256_file(f)
    for rel in workloads.MANIFESTS:
        path = rep / rel
        if path.exists():
            with open(path, encoding="utf-8") as fp:
                out[rel + "#digest"] = json.load(fp)["digest"]
    return out


def digest_stage(key: str) -> str:
    """The stage that wrote the file a digest key names."""
    if key.startswith("det/"):
        return "detect"
    if key.startswith("bundle/"):
        return "report"
    if key.startswith("cache"):
        return "ingest"
    if key.startswith("confidences"):
        return "score"
    return "cluster"


def read_clusters(path: Path) -> set[frozenset]:
    with open(path, encoding="utf-8") as fp:
        next(fp)
        return {frozenset(line.rstrip("\n").split(",")[3:]) for line in fp if line.strip()}


def count_rows(path: Path) -> int:
    with open(path, "rb") as fp:
        return sum(1 for _ in fp) - 1


def check_truth(rep: Path, truth: dict, stages: dict[str, Stage]) -> None:
    """Planted groups come back exactly as clusters; planted accounts are flagged."""
    with open(rep / "cache.jsonl.manifest.json", encoding="utf-8") as fp:
        counts = json.load(fp)["counts"]
    if counts["records"] != truth["records"] or counts["skipped"] != 0:
        stages["ingest"].problems.append(f"ingest counts {counts} != {truth['records']} records")
    for name, expected in truth["edges"].items():
        got = count_rows(rep / "det" / f"edges_{name}.csv")
        if got != expected:
            stages["detect"].problems.append(f"{got} {name} edges, expected {expected}")
    for name, members in truth["flagged"].items():
        with open(rep / "det" / f"flagged_{name}.txt", encoding="utf-8") as fp:
            flagged = {line.strip() for line in fp}
        missing = set(members) - flagged
        if missing:
            stages["detect"].problems.append(f"{len(missing)} planted accounts not flagged by {name}")
    for stage, path in (("cluster", rep / "clusters.csv"), ("report", rep / "bundle" / "clusters.csv")):
        clusters = read_clusters(path)
        lost = sum(1 for group in truth["clusters"] if frozenset(group) not in clusters)
        if lost:
            stages[stage].problems.append(f"{lost} planted groups not returned as clusters")
    if "score" in stages:
        with open(rep / "confidences.csv.manifest.json", encoding="utf-8") as fp:
            scored = json.load(fp)["counts"]["tweets_scored"]
        if scored != truth["records"]:
            stages["score"].problems.append(f"{scored} tweets scored, expected {truth['records']}")


class Reference:
    """Digests every repetition must reproduce.

    The first repetition of a run sets them unless an earlier run of the
    same source, workload and seed in this checkout stored them already.
    """

    def __init__(self, path: Path):
        self.path = path
        self.digests = None
        if path.exists():
            with open(path, encoding="utf-8") as fp:
                self.digests = json.load(fp)

    def check(self, digests: dict, stages: dict[str, Stage]) -> None:
        if self.digests is None:
            self.digests = digests
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "w", encoding="utf-8") as fp:
                json.dump(digests, fp, sort_keys=True, indent=1)
            return
        for key in sorted(set(digests) | set(self.digests)):
            if digests.get(key) != self.digests.get(key):
                stage = stages.get(digest_stage(key))
                if stage is not None:
                    stage.problems.append(f"{key} differs from the reference run")


# ---------------------------------------------------------------------------
# One pipeline repetition
# ---------------------------------------------------------------------------


@dataclass
class Repetition:
    """One pass through the workload's stages."""

    stages: dict[str, Stage]
    output_bytes: int
    spans: list | None  # per traced stage: its wall time and spans
    backend_checks: list[dict]

    @property
    def pipeline_s(self) -> float:
        return sum(s.wall_s for s in self.stages.values())

    def failed(self) -> int:
        return sum(1 for s in self.stages.values() if s.code != 0 or s.problems)


def run_pipeline(ctx: Context, index: int, traced: bool) -> Repetition:
    rep = ctx.workdir / f"rep{index}"
    shutil.rmtree(rep, ignore_errors=True)
    rep.mkdir()
    stages: dict[str, Stage] = {}
    spans: list | None = [] if traced else None
    backend_checks = []
    for name, args in ctx.spec["stages"]:
        span_file = rep / f"spans_{name}.json"
        if traced:
            prefix = [sys.executable, str(HERE / "tracer.py"), "--out", str(span_file),
                      "--run", f"{ctx.workload}/{ctx.seed}/rep{index}/{name}", "--"]
        else:
            prefix = [sys.executable, "-m", "coordnet.cli"]
        cmd = prefix + cli_args(args, ctx.seed)
        code, wall, rss = run_process(cmd, rep, ctx.env, ctx.workdir / "stages.log", ctx.deadline)
        stage = Stage(name, code, wall, rss)
        stages[name] = stage
        if code != 0:
            stage.problems.append(f"exit code {code}")
            break
        if traced:
            with open(span_file, encoding="utf-8") as fp:
                payload = json.load(fp)
            span_file.unlink()
            spans.append({"stage": name, "wall_s": wall, "spans": payload["spans"]})
            check = payload["backend_check"]
            backend_checks.append(check)
            if check["identical"] is False:
                stage.problems.append("kernel backends disagree on the workload's postings")

    output_bytes = sum(p.stat().st_size for p in rep.rglob("*") if p.is_file())
    if all(s.code == 0 for s in stages.values()) and len(stages) == len(ctx.spec["stages"]):
        check_truth(rep, ctx.truth, stages)
        ctx.reference.check(output_digests(rep), stages)
    for s in stages.values():
        for problem in s.problems:
            print(f"FAIL rep{index} {s.name}: {problem}", file=sys.stderr)
    shutil.rmtree(rep, ignore_errors=True)
    return Repetition(stages, output_bytes, spans, backend_checks)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def source_digest() -> str:
    """sha256 over the program sources, standing in for the commit outside git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "coordnet").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".csv"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(sha256_file(path).encode())
    return h.hexdigest()


def provenance(env: dict, truth: dict, src_digest: str) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c",
         "import coordnet.kernels as k, numpy, scipy, json;"
         "print(json.dumps([k.BACKEND, k.available_backends(), numpy.__version__, scipy.__version__]))"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    backend, backends, np_version, sp_version = json.loads(probe.stdout)
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        # only this checkout's own repository, not one that encloses it
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT.resolve():
            commit = lines[1]
    except OSError:
        pass
    mem_kib = None
    with open("/proc/meminfo", encoding="ascii") as fp:
        for line in fp:
            if line.startswith("MemTotal:"):
                mem_kib = int(line.split()[1])
    return {
        "kernel_backend": backend,
        "kernel_backends_importable": backends,
        "python": platform.python_version(),
        "numpy": np_version,
        "scipy": sp_version,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mib": round(mem_kib / 1024) if mem_kib else None,
        "git_commit": commit or "unknown (not a git checkout)",
        "source_sha256": src_digest,
        "workload": truth["workload"],
        "seed": truth["seed"],
        "records": truth["records"],
        "accounts": truth["accounts"],
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def timing_line(name: str, unit: str, samples: list[float]) -> str:
    """Median, sample count and maximum.

    A tail percentile is reported only with at least ten samples beyond
    it; a run holds a handful of repetitions, so none is, and the
    maximum is shown instead.
    """
    return (f"{name:>16} {statistics.median(samples):12.4f} {unit:<6} "
            f"median of n={len(samples)}, max={max(samples):.4f}")


def end_to_end(reps: list[Repetition], setup_samples: list[float], records: int) -> tuple[dict, list[str]]:
    """Per-metric samples over the repetitions whose stages all exited 0."""
    complete = [r for r in reps if all(s.code == 0 for s in r.stages.values())] or reps
    samples: dict[str, list[float]] = {
        "setup_s": setup_samples,
        "pipeline_s": [r.pipeline_s for r in complete],
        "records_per_s": [records / r.pipeline_s for r in complete],
    }
    for stage in ("ingest", "detect", "cluster", "score", "report"):
        samples[f"{stage}_s"] = [r.stages[stage].wall_s for r in complete if stage in r.stages]
    samples["peak_rss_mib"] = [max(s.rss_mib for s in r.stages.values()) for r in complete]
    for stage in ("detect", "report"):
        samples[f"{stage}_rss_mib"] = [r.stages[stage].rss_mib for r in complete if stage in r.stages]
    samples["output_mib"] = [r.output_bytes / MIB for r in complete]
    # a stage the workload does not run reports no value, not zero
    samples = {name: values for name, values in samples.items() if values}
    lines = [timing_line(name, layers.unit_of(name), values) for name, values in samples.items()]
    metrics = {
        name: {"value": statistics.median(values), "unit": layers.unit_of(name), "samples": values}
        for name, values in samples.items()
    }
    return metrics, lines


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


@dataclass
class Context:
    """What every repetition of one run shares."""

    workload: str
    seed: int
    spec: dict
    deadline: float
    env: dict
    workdir: Path
    truth: dict
    reference: Reference


def benchmark_metrics(kind: str) -> list[str]:
    """Metric names BENCHMARK.json declares for --trace 0 or --trace 1."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        return [m["name"] for m in json.load(fp)[kind]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "coordnet" / "cli.py").is_file():
        print(f"perfbench: no coordnet sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workdir = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    truth = workloads.generate(args.workload, args.seed, workdir)
    src_digest = source_digest()
    # outputs must repeat for the same program sources and the same input
    key = hashlib.sha256((src_digest + sha256_file(workdir / "input.jsonl")).encode()).hexdigest()
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        spec=workloads.WORKLOADS[args.workload],
        deadline=deadline,
        env=stage_env(),
        workdir=workdir,
        truth=truth,
        reference=Reference(WORK / "reference" / f"{args.workload}-{key[:24]}.json"),
    )
    prov = provenance(ctx.env, truth, src_digest)

    setup_samples = setup_time(ctx.env, workdir / "stages.log", deadline)

    # Repeat whole pipelines while the next one is expected to end within
    # the budget, at least once. A traced run alternates untraced and
    # traced repetitions so the overhead is measured on the same machine state.
    reps: list[Repetition] = []
    traced: list[Repetition] = []
    rounds: list[float] = []
    measure_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        reps.append(run_pipeline(ctx, len(reps) + len(traced), traced=False))
        if args.trace:
            traced.append(run_pipeline(ctx, len(reps) + len(traced), traced=True))
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - measure_start + statistics.median(rounds) > args.seconds:
            break

    everything = reps + traced
    attempted = sum(len(ctx.spec["stages"]) for _ in everything)
    failed = sum(r.failed() for r in everything)
    # a stage skipped after an earlier one failed counts as failed too
    failed += sum(len(ctx.spec["stages"]) - len(r.stages) for r in everything)

    e2e, lines = end_to_end(reps, setup_samples, truth["records"])
    layer_metrics = None
    if args.trace:
        layer_metrics, layer_lines = layers.per_layer(
            [r.spans for r in traced], [r.pipeline_s for r in reps], [r.backend_checks for r in traced]
        )
        # stage wall times of the untraced repetitions, reported without a bound
        for stage in ("ingest", "detect", "cluster", "report"):
            layer_metrics[f"stage.{stage}_s"] = e2e[f"{stage}_s"]
        lines += layer_lines
    print(f"perfbench {args.workload} seed={args.seed}: {ctx.spec['why']}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"{'failed_frac':>16} {failed / attempted:12.4f} {'':<6} {failed} of {attempted} stage runs "
          f"({len(everything)} pipelines x {len(ctx.spec['stages'])} stages) failed")
    for line in lines:
        print(line)

    metrics = layer_metrics if args.trace else e2e
    declared = benchmark_metrics("per_layer" if args.trace else "end_to_end")
    missing = [name for name in declared if name not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {k: metrics[name][k] for k in ("value", "unit")} for name in declared},
    }
    record = dict(result, provenance=prov, trace=args.trace, seconds=args.seconds,
                  end_to_end=e2e, per_layer=layer_metrics)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fp:
        json.dump(record, fp, sort_keys=True, indent=1)
    shutil.rmtree(ctx.workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
