"""Run manifests: reproducibility metadata for every pipeline stage.

A manifest snapshots the effective configuration, input digests, seed,
tool version, data time range, and row counts, and carries a sha256
digest of that snapshot. Identical inputs always produce an identical
digest; nothing wall-clock-dependent is recorded.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from coordnet import __version__


def file_sha256(path) -> str:
    with open(path, "rb") as fp:
        return hashlib.file_digest(fp, "sha256").hexdigest()


class RunManifest:
    def __init__(self, command: str, seed: int = 0, config: dict | None = None):
        self.command = command
        self.seed = int(seed)
        self.config = dict(config or {})
        self.inputs: dict[str, dict] = {}
        self.counts: dict[str, int] = {}
        self.data_time_range: dict | None = None
        self.artifacts: dict[str, str] = {}
        self.notes: list[str] = []

    def add_input(self, role: str, path) -> None:
        """Record path's name, sha256 and size; a pipe or other input
        that is not a regular file was drained by the stage, so its
        digest and size are null."""
        p = Path(path)
        regular = p.is_file()
        self.inputs[role] = {
            "path": p.name,
            "sha256": file_sha256(p) if regular else None,
            "bytes": p.stat().st_size if regular else None,
        }

    def add_artifact(self, path) -> None:
        p = Path(path)
        self.artifacts[p.name] = file_sha256(p)

    def set_time_range(self, start_iso: str, end_iso: str) -> None:
        self.data_time_range = {"start": start_iso, "end": end_iso}

    def _payload(self) -> dict:
        return {
            "tool": "coordnet",
            "version": __version__,
            "command": self.command,
            "seed": self.seed,
            "config": self.config,
            "inputs": self.inputs,
            "counts": self.counts,
            "data_time_range": self.data_time_range,
            "notes": self.notes,
        }

    @property
    def digest(self) -> str:
        canonical = json.dumps(self._payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def as_dict(self) -> dict:
        out = self._payload()
        out["digest"] = self.digest
        out["artifacts"] = self.artifacts
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(self.as_dict(), fp, sort_keys=True, indent=2)
            fp.write("\n")
