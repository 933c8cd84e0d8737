"""Run one coordnet CLI stage with a span around each layer's public calls.

    PYTHONPATH=src python3 perfbench/tracer.py --out spans.json --run ID -- <cli args>

The wrappers are installed from outside: every binding of a wrapped
function in a loaded coordnet module (including names a caller imported
with `from ... import`) is replaced, so the program code is unchanged.
Each span holds its name, layer, start, end, parent, run id, the rise
in ru_maxrss while it was open, and counts taken from the call's
arguments and result. Spans stay in memory and are written at exit.
When more than one kernel backend imports, every postings array the
detectors built is replayed through each backend and compared bit for bit.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time

import numpy as np

import coordnet.cli
import coordnet.corpus
import coordnet.detectors
import coordnet.formats
import coordnet.graph
import coordnet.kernels
import coordnet.manifest
import coordnet.report
import coordnet.sociolinguistics
import coordnet.stats


def _len0(result):
    return len(result[0])


def _vector_counts(args, kwargs, result):
    return {"docs": len(result), "nnz": sum(len(v) for v in result.values())}


def _pair_products(args, kwargs, result):
    lengths = np.diff(args[0])
    return {"pair_products": int((lengths * (lengths - 1) // 2).sum())}


def _bootstrap_draws(args, kwargs, result):
    b = kwargs.get("b", args[2] if len(args) > 2 else 1000)
    return {"bootstrap_draws": int(b) * np.asarray(args[0]).shape[1] * 2}


def _vector_tag(args, kwargs):
    term = kwargs.get("term", args[1] if len(args) > 1 else None)
    return {"retweeted_id": "rt", "time_bin": "time"}.get(term)


# (module, attribute, counter, tag). The counter maps (args, kwargs,
# result) to counts; the tag names the detector the span's subtree
# serves (".rt" or ".time" in the metric names).
WRAPPED = [
    ("corpus", "parse_corpus", lambda a, k, r: {"records": len(r)}, None),
    ("corpus", "Corpus.to_jsonl", None, None),
    ("corpus", "daily_volume", None, None),
    ("detectors", "detect_all", None, None),
    ("detectors", "detect_hashtag_coordination", lambda a, k, r: {"edges": len(r)}, None),
    ("detectors", "detect_retweet_coordination", lambda a, k, r: {"edges": _len0(r)}, "rt"),
    ("detectors", "detect_time_coordination", lambda a, k, r: {"edges": _len0(r)}, "time"),
    ("detectors", "build_account_vectors", _vector_counts, _vector_tag),
    ("detectors", "candidate_pair_similarities", lambda a, k, r: {"candidates": _len0(r)}, None),
    ("kernels", "accumulate_pair_products", _pair_products, None),
    ("formats", "write_edges_csv", lambda a, k, r: {"rows": len(a[0])}, None),
    ("formats", "read_edges_csv", lambda a, k, r: {"rows": len(r)}, None),
    ("formats", "write_account_list", None, None),
    ("formats", "read_account_list", None, None),
    ("graph", "CoordinationGraph.from_edges", None, None),
    ("graph", "connected_components", None, None),
    ("graph", "label_clusters", None, None),
    ("graph", "duplicate_shares", None, None),
    ("graph", "activity_shares", None, None),
    ("graph", "retweet_interactions", None, None),
    ("sociolinguistics", "score_corpus", lambda a, k, r: {"tweets": len(r)}, None),
    ("sociolinguistics", "load_confidences", None, None),
    ("sociolinguistics", "builtin_lexicon", None, None),
    ("sociolinguistics", "load_lexicon", None, None),
    ("sociolinguistics", "write_confidences", None, None),
    ("sociolinguistics", "binarize", None, None),
    ("sociolinguistics", "CharacteristicTable.rows_for", None, None),
    ("stats", "column_deltas", _bootstrap_draws, None),
    ("stats", "daily_mean_confidence", None, None),
    ("stats", "language_mix", None, None),
    ("stats", "spearman", None, None),
    ("stats", "mann_whitney_u", None, None),
    ("stats", "rankdata", None, None),
    ("report", "write_report_bundle", None, None),
    ("report", "write_daily_volume", None, None),
    ("report", "write_activity_shares", None, None),
    ("report", "write_duplicate_shares", None, None),
    ("report", "write_clusters", None, None),
    ("report", "correlation_matrices", None, None),
    ("report", "write_matrix", None, None),
    ("report", "write_cluster_deltas", None, None),
    ("report", "write_binarized_rates", None, None),
    ("report", "write_daily_confidence", None, None),
    ("report", "confidence_vs_binarized", None, None),
    ("report", "write_language_mix", None, None),
    ("report", "story_share", None, None),
    ("manifest", "RunManifest.add_input", None, None),
    ("manifest", "RunManifest.add_artifact", None, None),
    ("manifest", "RunManifest.write", None, None),
]


LAYERS = sorted({layer for layer, *_ in WRAPPED})


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.postings: list[tuple] = []
        self.capture_postings = len(coordnet.kernels.available_backends()) > 1

    def open(self, name: str, layer: str, tag) -> int:
        parent = self._stack[-1] if self._stack else None
        if tag is None and parent is not None:
            tag = self.spans[parent]["tag"]
        idx = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "layer": layer,
                "tag": tag,
                "parent": parent,
                "run": self.run_id,
                "counts": {},
                "rss_kib": _maxrss_kib(),
                "start": time.perf_counter(),
            }
        )
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span["end"] = time.perf_counter()
        span["rss_rise_kib"] = _maxrss_kib() - span.pop("rss_kib")
        self._stack.pop()

    def active(self, name: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]]["name"] == name

    def wrap(self, func, name: str, layer: str, counter, tag):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            # a function re-entering itself (path -> open file) is one call
            if self.active(name):
                return func(*args, **kwargs)
            span_tag = tag(args, kwargs) if callable(tag) else tag
            idx = self.open(name, layer, span_tag)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                self.spans[idx]["counts"] = counter(args, kwargs, result)
            if name == "kernels.accumulate_pair_products" and self.capture_postings:
                self.postings.append(tuple(np.array(a, copy=True) for a in args[:3]))
            return result

        return traced

    def install(self) -> None:
        modules = [coordnet.cli] + [sys.modules[f"coordnet.{layer}"] for layer in LAYERS]
        for layer, attr, counter, tag in WRAPPED:
            module = sys.modules[f"coordnet.{layer}"]
            name = f"{layer}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(raw.__func__, name, layer, counter, tag)))
                else:
                    setattr(cls, meth, self.wrap(raw, name, layer, counter, tag))
                continue
            original = getattr(module, attr)
            traced = self.wrap(original, name, layer, counter, tag)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def check_backends(self) -> dict:
        """Replay captured postings through every importable backend."""
        names = coordnet.kernels.available_backends()
        result = {"backends": names, "postings": len(self.postings), "identical": None}
        if len(names) < 2:
            return result
        identical = True
        for offsets, accounts, weights in self.postings:
            outputs = [coordnet.kernels.get_backend(n)(offsets, accounts, weights) for n in names]
            for keys, dots in outputs[1:]:
                same_keys = np.array_equal(keys, outputs[0][0])
                same_bits = same_keys and np.array_equal(
                    dots.view(np.int64), outputs[0][1].view(np.int64)
                )
                identical = identical and same_bits
        result["identical"] = identical
        return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="spans JSON written at exit")
    parser.add_argument("--run", required=True, help="run id shared by the run's spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer(args.run)
    tracer.install()
    root = tracer.open("cli.main", "cli", None)
    try:
        code = coordnet.cli.main(cli_args)
    finally:
        tracer.close(root)
        payload = {
            "run": args.run,
            "kernel_backend": coordnet.kernels.BACKEND,
            "backend_check": tracer.check_backends(),
            "spans": tracer.spans,
        }
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump(payload, fp)
    return code


if __name__ == "__main__":
    sys.exit(main())
