"""Run manifests: what ran, with which inputs/outputs, reproducibly."""
from __future__ import annotations

import datetime as dt
import hashlib
import json
import time
from pathlib import Path

from . import __version__

__all__ = ["sha256_file", "ManifestWriter"]


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class ManifestWriter:
    """Collects one run's facts and writes the manifest JSON at the end.

    Re-running a subcommand with an identical manifest (same config, seed,
    input hashes) reproduces byte-identical primary outputs.
    """

    def __init__(self, subcommand: str, seed: int | None, config: dict):
        self.subcommand = subcommand
        self.seed = seed
        self.config = config
        self.inputs: dict[str, dict] = {}
        self.outputs: dict[str, dict] = {}
        self.counters: dict[str, int] = {}
        self._t0 = time.monotonic()

    def add_input(self, name: str, path):
        self.inputs[name] = {"path": str(path), "sha256": sha256_file(path)}

    def add_output(self, name: str, path):
        self.outputs[name] = {"path": str(path), "sha256": sha256_file(path)}

    def add_counters(self, **counts: int):
        """Diagnostic counts of the run (what it attempted, kept and dropped)."""
        self.counters.update(counts)

    def write(self, path):
        doc = {
            "subcommand": self.subcommand,
            "version": __version__,
            "seed": self.seed,
            "config": self.config,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "counters": self.counters,
            "wall_clock_seconds": round(time.monotonic() - self._t0, 6),
            "created_utc": dt.datetime.now(dt.timezone.utc).isoformat(),
        }
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return doc
