"""Rotated, crash-safe checkpoint generations with fall-back recovery.

Layout — one directory per supervised stream::

    <dir>/ckpt-0000000400.npz    # StreamingCAD state (atomic, see
    <dir>/ckpt-0000000400.json   #   repro.core.checkpoint) + runtime sidecar
    <dir>/ckpt-0000000800.npz    # newer generation
    <dir>/ckpt-0000000800.json

The zero-padded number is the global round index at which the generation
was taken, so lexicographic order equals recency.  ``keep`` generations are
retained; older pairs are pruned after each successful write.

Pruning is rename-then-reclaim.  Freeing a file's blocks is the slow part
of deleting it (tens of milliseconds per file on a filesystem mounted with
``discard``, whatever the file's size), while a rename costs microseconds.
So :meth:`CheckpointRotation.prune` renames each surplus file to
``<name>.reclaim`` on the caller's thread, which hides it from every scan
at once, and hands the batch to one short-lived non-daemon thread that
unlinks it.  At most one batch is in flight per rotation: the next prune
joins the previous batch first, so reclaim can never fall behind without
bound, and interpreter exit waits for the last one.  The free is hidden
only while no ``fsync`` runs: the next checkpoint's fsync waits for a
batch still being freed, so the round path pays whatever part of the free
outlasts the rounds between two checkpoints.  Staging ``*.tmp`` and
``*.reclaim`` files a killed process left behind are swept into the first
batch when the rotation is constructed.

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
import os
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

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
_LEFTOVER_RE = re.compile(r"^ckpt-\d{10}\.(npz|json)\.(tmp|reclaim)$")


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
    because their archive or sidecar was corrupt.  ``runtime_state`` is
    the sidecar's runtime payload as ``recover``'s ``parse_runtime``
    returned it.
    """

    stream: StreamingCAD
    generation: Generation
    runtime_state: Any
    skipped: tuple[Path, ...]


class CheckpointRotation:
    """Write/prune/recover rotated checkpoint generations in a directory."""

    def __init__(self, directory: str | Path, keep: int = 3) -> None:
        if keep < 1:
            raise ConfigurationError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.keep = keep
        self.directory.mkdir(parents=True, exist_ok=True)
        self._reclaim: threading.Thread | None = None
        #: sidecar -> ((st_mtime_ns, st_size, st_ino), samples_seen or None)
        #: as last parsed by :meth:`min_covered_samples`.
        self._covered: dict[Path, tuple[tuple[int, int, int], int | None]] = {}
        self._start_reclaim(
            [
                entry
                for entry in sorted(self.directory.iterdir())
                if _LEFTOVER_RE.match(entry.name)
            ]
        )

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
        # Compact separators keep CPython on its C encoder (``indent`` turns
        # it off); the reader does not care about layout.
        text = json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"
        atomic_write(sidecar, "w", lambda handle: handle.write(text))
        self.prune()
        return Generation(round_index, path, sidecar)

    def prune(self) -> list[Generation]:
        """Retire all but the newest ``keep`` generations; return them.

        Each surplus archive and sidecar is renamed to ``<name>.reclaim``
        here, so every scan sees exactly ``keep`` generations once this
        returns; the unlinks that free their blocks run on a background
        reclaim thread (see :meth:`join_reclaim`).
        """
        removed = self.generations()[self.keep :]
        batch = []
        for generation in removed:
            # Sidecar first: a process killed between the two renames leaves
            # an archive without a sidecar, which every scan already skips
            # and the next prune retires, never an orphaned sidecar.
            for path in (generation.sidecar, generation.path):
                retired = path.with_name(path.name + ".reclaim")
                try:
                    path.rename(retired)
                except FileNotFoundError:
                    continue  # a sidecar a crashed write never produced
                batch.append(retired)
        self._start_reclaim(batch)
        return removed

    def join_reclaim(self) -> None:
        """Block until the in-flight reclaim batch has unlinked its files."""
        if self._reclaim is not None:
            self._reclaim.join()
            self._reclaim = None

    def _start_reclaim(self, batch: list[Path]) -> None:
        """Unlink ``batch`` off the caller's thread, one batch at a time."""
        if not batch:
            return
        self.join_reclaim()
        self._reclaim = threading.Thread(
            target=_unlink_all,
            args=(batch,),
            name="checkpoint-reclaim",
            daemon=False,  # interpreter exit waits for the batch
        )
        self._reclaim.start()

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

        It runs after every write, so a sidecar is parsed again only when
        its ``(st_mtime_ns, st_size, st_ino)`` changed since the last call.
        """
        counts = []
        covered = {}
        for generation in self.generations():
            sidecar = generation.sidecar
            try:
                info = sidecar.stat()
            except OSError:
                continue  # missing: unreadable, like a failed parse
            key = (info.st_mtime_ns, info.st_size, info.st_ino)
            cached = self._covered.get(sidecar)
            if cached is not None and cached[0] == key:
                samples_seen = cached[1]
            else:
                payload = self._read_sidecar(sidecar)
                samples_seen = None if payload is None else payload["samples_seen"]
            covered[sidecar] = (key, samples_seen)
            if samples_seen is not None:
                counts.append(samples_seen)
        self._covered = covered
        return min(counts) if counts else 0

    def recover(
        self, parse_runtime: Callable[[dict[str, Any]], Any] = dict
    ) -> RecoveredStream | None:
        """Restore the newest *valid* generation, falling back past corrupt ones.

        ``parse_runtime`` turns the sidecar's ``runtime`` payload into the
        caller's own state before anything is adopted; a ``None`` result
        marks the generation corrupt, exactly like a torn archive.  The
        default keeps a copy of the raw payload.

        Returns None when the directory holds no recoverable generation at
        all (including the empty/fresh-start case).
        """
        skipped: list[Path] = []
        for generation in self.generations():
            payload = self._read_sidecar(generation.sidecar)
            runtime_state = (
                parse_runtime(payload["runtime"]) if payload is not None else None
            )
            if runtime_state is None:
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
                runtime_state=runtime_state,
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


def _unlink_all(paths: list[Path]) -> None:
    """Reclaim-thread body: free each retired file's blocks.

    A file that cannot be unlinked keeps its ``.reclaim`` name, which no
    scan reads, and the next rotation built on the directory sweeps it.
    """
    for path in paths:
        try:
            os.unlink(path)
        except OSError:
            continue
