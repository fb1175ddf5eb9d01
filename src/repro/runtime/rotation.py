"""Rotated, crash-safe checkpoint generations with fall-back recovery.

Layout — one directory per supervised stream::

    <dir>/ckpt-0000000400.npz    # StreamingCAD state (atomic, see
    <dir>/ckpt-0000000400.json   #   repro.core.checkpoint) + runtime sidecar
    <dir>/ckpt-0000000800.npz    # newer generation
    <dir>/ckpt-0000000800.json

The zero-padded number is the global round index at which the generation
was taken, so lexicographic order equals recency.  ``keep`` generations are
retained; older pairs are pruned after each successful write.

The sidecar carries everything the *supervisor* (as opposed to the
detector) accumulates — breaker states, ingest counters, emitted-round
count — so a restarted process resumes quarantine decisions and suppresses
already-delivered records.  Both files are written with the one durable
routine :func:`repro.core.checkpoint.atomic_write` (tmp + fsync +
``os.replace`` + directory flush), and :meth:`CheckpointRotation.recover` scans
newest-to-oldest, *falling back past* any generation whose archive or
sidecar is corrupt instead of dying on it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..core.checkpoint import (
    CheckpointError,
    atomic_write,
    load_checkpoint,
    save_checkpoint,
)
from ..core.streaming import StreamingCAD
from .errors import ConfigurationError

__all__ = ["CheckpointRotation", "Generation", "RecoveredStream"]

_SIDECAR_FORMAT = "repro-runtime-state"
_SIDECAR_VERSION = 1
_NAME_RE = re.compile(r"^ckpt-(\d{10})\.npz$")


@dataclass(frozen=True)
class Generation:
    """One on-disk checkpoint generation (archive + sidecar pair)."""

    round_index: int
    path: Path
    sidecar: Path


@dataclass(frozen=True)
class RecoveredStream:
    """Result of a successful recovery scan.

    ``skipped`` lists the newer generations that had to be passed over
    because their archive or sidecar was corrupt.
    """

    stream: StreamingCAD
    generation: Generation
    runtime_state: dict[str, Any]
    skipped: tuple[Path, ...]


class CheckpointRotation:
    """Write/prune/recover rotated checkpoint generations in a directory."""

    def __init__(self, directory: str | Path, keep: int = 3) -> None:
        if keep < 1:
            raise ConfigurationError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.keep = keep
        self.directory.mkdir(parents=True, exist_ok=True)

    # ----------------------------------------------------------------- #
    # Writing
    # ----------------------------------------------------------------- #

    def write(
        self,
        stream: StreamingCAD,
        round_index: int,
        runtime_state: dict[str, Any],
    ) -> Generation:
        """Persist one generation atomically and prune old ones.

        ``runtime_state`` is the supervisor's own state payload; it is
        stamped with format/version/counters and written to the sidecar.
        """
        if round_index < 0:
            raise ConfigurationError(f"round_index must be >= 0, got {round_index}")
        path = self.directory / f"ckpt-{round_index:010d}.npz"
        sidecar = path.with_suffix(".json")
        save_checkpoint(stream, path)
        payload = {
            "format": _SIDECAR_FORMAT,
            "version": _SIDECAR_VERSION,
            "round_index": round_index,
            "samples_seen": stream.samples_seen,
            "runtime": runtime_state,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        atomic_write(sidecar, "w", lambda handle: handle.write(text))
        self.prune()
        return Generation(round_index, path, sidecar)

    def prune(self) -> list[Generation]:
        """Delete all but the newest ``keep`` generations; return removals."""
        generations = self.generations()
        removed = []
        for generation in generations[self.keep :]:
            generation.path.unlink(missing_ok=True)
            generation.sidecar.unlink(missing_ok=True)
            removed.append(generation)
        return removed

    # ----------------------------------------------------------------- #
    # Scanning / recovery
    # ----------------------------------------------------------------- #

    def generations(self) -> list[Generation]:
        """On-disk generations, newest first.  Foreign files are ignored.

        The directory scan is explicitly sorted by name before the
        round-index sort: ``iterdir``/``os.listdir`` order is a filesystem
        artifact (hash order on some, insertion order on others), and
        recovery decisions must never depend on it.
        """
        found = []
        for entry in sorted(self.directory.iterdir()):
            match = _NAME_RE.match(entry.name)
            if match is None:
                continue
            found.append(
                Generation(int(match.group(1)), entry, entry.with_suffix(".json"))
            )
        found.sort(key=lambda g: g.round_index, reverse=True)
        return found

    def min_covered_samples(self) -> int:
        """Smallest ``samples_seen`` over the retained, readable generations.

        The supervisor keeps its replay buffer back to this sample count so
        that recovery can fall back to *any* retained generation and still
        replay forward.  0 when no generation is readable (the replay
        buffer must then cover the whole stream or recovery starts fresh).
        """
        counts = []
        for generation in self.generations():
            payload = self._read_sidecar(generation.sidecar)
            if payload is not None:
                counts.append(payload["samples_seen"])
        return min(counts) if counts else 0

    def recover(self) -> RecoveredStream | None:
        """Restore the newest *valid* generation, falling back past corrupt ones.

        Returns None when the directory holds no recoverable generation at
        all (including the empty/fresh-start case).
        """
        skipped: list[Path] = []
        for generation in self.generations():
            payload = self._read_sidecar(generation.sidecar)
            if payload is None:
                skipped.append(generation.sidecar)
                continue
            try:
                stream = load_checkpoint(generation.path)
            except CheckpointError:
                # Torn or corrupt archive: fall back to the previous
                # generation — exactly why more than one is retained.
                skipped.append(generation.path)
                continue
            if stream.samples_seen != payload["samples_seen"]:
                skipped.append(generation.path)
                continue
            return RecoveredStream(
                stream=stream,
                generation=generation,
                runtime_state=dict(payload["runtime"]),
                skipped=tuple(skipped),
            )
        return None

    @staticmethod
    def _read_sidecar(sidecar: Path) -> dict[str, Any] | None:
        """Parse and validate a sidecar; None when missing or corrupt.

        Corrupt includes well-formed JSON with mistyped fields: a
        ``samples_seen`` that is not a non-negative int or a ``runtime``
        that is not an object marks the generation unreadable, so recovery
        falls back past it instead of raising.
        """
        try:
            with open(sidecar, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            # ValueError covers mangled JSON and bytes that are not UTF-8.
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("format") != _SIDECAR_FORMAT:
            return None
        if payload.get("version") != _SIDECAR_VERSION:
            return None
        samples_seen = payload.get("samples_seen")
        if not isinstance(samples_seen, int) or samples_seen < 0:
            return None
        if not isinstance(payload.get("runtime"), dict):
            return None
        return payload
