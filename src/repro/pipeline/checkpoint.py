"""Per-stage checkpoint artifacts under ``--checkpoint-dir``.

Layout::

    <checkpoint-dir>/
      <run-key>/                 # RunConfig.content_hash(points), truncated
        manifest.json            # format, config summary, completed stages
        CollectPartials.npz      # one or two artifact files per stage
        CollectPartials.json
        MergePartials.npz
        MergePartials.json
        ...

The run key embeds both the semantic configuration and the input data
(see `RunConfig.content_hash`), so "is this checkpoint compatible?" is a
directory lookup: a changed ``eps`` or different points land in a fresh,
empty run directory and every stage re-runs.  The manifest only lists
stages whose artifacts were *completely* written (files first, manifest
updated last, atomically via rename), so a crash mid-write can never
produce a resumable-but-corrupt stage.  The manifest also records the
artifacts' `FORMAT`; one of another format — or of none, as written
before the format was recorded — is ignored, so a stage whose documents
changed shape runs cold instead of failing to load.
"""

from __future__ import annotations

import json
import os
from typing import Any

import numpy as np

#: The artifacts' format.  Bump it whenever a stage's documents change
#: shape without the run key changing: 1 is the collect stages'
#: `ClusterTable` npz columns.
FORMAT = 1


class CheckpointError(Exception):
    """A checkpoint directory is unreadable or internally inconsistent."""


class CheckpointStore:
    """Artifact store for one (config, data) run key."""

    MANIFEST = "manifest.json"

    def __init__(self, root: str, run_key: str, config_summary: dict | None = None):
        self.root = root
        self.run_key = run_key
        self.dir = os.path.join(root, run_key[:32])
        self._config_summary = config_summary or {}
        self._stages: dict[str, dict[str, Any]] = {}
        self._pending: dict[str, list[str]] = {}
        os.makedirs(self.dir, exist_ok=True)
        self._load_manifest()

    # -- manifest -------------------------------------------------------------
    def _manifest_path(self) -> str:
        return os.path.join(self.dir, self.MANIFEST)

    def _load_manifest(self) -> None:
        path = self._manifest_path()
        if not os.path.exists(path):
            return
        try:
            with open(path) as f:
                manifest = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable manifest {path!r}: {exc}") from exc
        if (manifest.get("run_key") != self.run_key
                or manifest.get("format") != FORMAT):
            # A truncated-key collision, a hand-edited directory or
            # documents this code cannot read; treat as cold rather than
            # resuming someone else's artifacts.
            return
        self._stages = manifest.get("stages", {})

    def _write_manifest(self) -> None:
        manifest = {
            "run_key": self.run_key,
            "format": FORMAT,
            "config": self._config_summary,
            "stages": self._stages,
        }
        tmp = self._manifest_path() + ".tmp"
        with open(tmp, "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
        os.replace(tmp, self._manifest_path())

    # -- queries --------------------------------------------------------------
    def has(self, stage: str) -> bool:
        """True iff the stage completed and all its artifact files exist."""
        entry = self._stages.get(stage)
        if not entry:
            return False
        return all(
            os.path.exists(os.path.join(self.dir, name))
            for name in entry.get("files", [])
        )

    def completed_stages(self) -> list[str]:
        """Names of stages with complete artifacts, manifest order."""
        return [s for s in self._stages if self.has(s)]

    # -- artifact io ----------------------------------------------------------
    def _record(self, stage: str, filename: str) -> None:
        self._pending.setdefault(stage, [])
        if filename not in self._pending[stage]:
            self._pending[stage].append(filename)

    def save_json(self, stage: str, obj: Any) -> None:
        """Write the stage's JSON artifact (atomic)."""
        name = f"{stage}.json"
        tmp = os.path.join(self.dir, name + ".tmp")
        with open(tmp, "w") as f:
            json.dump(obj, f, separators=(",", ":"))
        os.replace(tmp, os.path.join(self.dir, name))
        self._record(stage, name)

    def load_json(self, stage: str) -> Any:
        """Read the stage's JSON artifact."""
        path = os.path.join(self.dir, f"{stage}.json")
        try:
            with open(path) as f:
                return json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable artifact {path!r}: {exc}") from exc

    def save_npz(self, stage: str, **arrays: np.ndarray) -> None:
        """Write the stage's array artifact (atomic)."""
        name = f"{stage}.npz"
        tmp = os.path.join(self.dir, name + ".tmp")
        with open(tmp, "wb") as f:
            np.savez(f, **arrays)
        os.replace(tmp, os.path.join(self.dir, name))
        self._record(stage, name)

    def load_npz(self, stage: str) -> dict[str, np.ndarray]:
        """Read the stage's array artifact."""
        path = os.path.join(self.dir, f"{stage}.npz")
        try:
            with np.load(path) as data:
                return {k: data[k] for k in data.files}
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"unreadable artifact {path!r}: {exc}") from exc

    def complete(self, stage: str) -> None:
        """Commit the stage: record its files in the manifest, atomically.

        Only now does the stage become visible to ``has``/resume; a crash
        before this point leaves at most orphaned ``.tmp``/artifact files
        that the next run overwrites.
        """
        self._stages[stage] = {"files": self._pending.pop(stage, [])}
        self._write_manifest()
