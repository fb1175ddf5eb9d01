"""Checkpoint / restore for long-running streams.

A checkpoint freezes everything a :class:`~repro.core.streaming.StreamingCAD`
has accumulated — the detector's ``n_r`` moments, co-appearance history,
previous outlier set and round counter, plus the sample buffer and stream
counters — into a single ``.npz`` file.  Restoring rebuilds the stream
*bit-identically*: the resumed process emits the exact same
:class:`~repro.core.result.RoundRecord` sequence an uninterrupted run would
have (the determinism the paper's Table VIII rests on), with no warm-up
replay.

Format: one ``.npz`` archive.  Float state (moments, co-appearance sums,
RC vectors, the sample buffer) is stored as float64 arrays so nothing is
rounded through text; structural metadata (config, counters, the outlier
set) rides in one JSON string.  ``allow_pickle`` is never used, so a
checkpoint is safe to load from untrusted storage.
"""

from __future__ import annotations

import json
import os
import tokenize
import zipfile
from pathlib import Path
from typing import IO, Any, Callable, Mapping

import numpy as np

from .streaming import StreamingCAD


class CheckpointError(ValueError):
    """A checkpoint file could not be read back as a valid stream state.

    Raised by :func:`load_checkpoint` for *every* failure mode — a missing
    or unreadable file, a truncated/corrupt ``.npz`` archive, a foreign
    file, an unsupported version, or an archive missing required entries —
    so callers (notably the runtime supervisor's recovery scan, which falls
    back past corrupt generations) can catch one narrow type instead of
    ``zipfile``/``KeyError``/``OSError`` leakage.  ``path`` names the
    offending file.

    Subclasses :class:`ValueError` so pre-existing callers that caught the
    old untyped errors keep working.
    """

    def __init__(self, path: str | Path, reason: str) -> None:
        super().__init__(f"{path}: {reason}")
        self.path = Path(path)
        self.reason = reason

#: Bump when the checkpoint layout changes; loaders reject unknown versions.
#: Version 2 added the fast engine's rolling-correlation kernel state;
#: version 3 added the TSG candidate cache.  Version-3 files written
#: before warm-start Louvain was removed also carry its bookkeeping
#: (``has_warm_labels``/``warm_trusted``/``verify_counter`` meta keys, a
#: ``delta_warm_labels`` array, a ``louvain_verify`` config key); loading
#: ignores all of it.
CHECKPOINT_VERSION = 3

#: Versions :func:`load_checkpoint` can read.  Version-1 files (written
#: before the fast engine existed) migrate on load: they carry no kernel
#: state and no ``engine``/``corr_refresh``/``n_jobs`` config keys, and are
#: pinned to ``engine="reference"`` — the only engine that existed when they
#: were written — so a resumed stream replays the exact pipeline that
#: produced the checkpoint.  Version-2 files predate the TSG candidate
#: cache; they carry no delta state, which is legal (the builder re-ranks
#: from scratch on its first resumed round — exact, just not a resumed
#: cache).  A config saved with ``engine="delta"`` loads as ``"fast"``.
SUPPORTED_VERSIONS = (1, 2, CHECKPOINT_VERSION)

_FORMAT = "repro-streaming-cad"

#: Checkpoint v4 is the *fleet manifest*: a layer above the per-stream
#: ``.npz`` archives (which stay at :data:`CHECKPOINT_VERSION`).  One
#: atomic JSON document records the tenant set, each tenant's shard and
#: checkpoint-generation directory, and the scheduler cursor, so a fleet
#: resume restores every tenant from its own rotation to its exact round.
FLEET_MANIFEST_VERSION = 4

_MANIFEST_FORMAT = "repro-fleet-manifest"


def save_checkpoint(stream: StreamingCAD, path: str | Path) -> None:
    """Write ``stream``'s full state to ``path`` as an ``.npz`` archive.

    The write is *atomic* (:func:`atomic_write`): a crash mid-write can
    never leave a truncated archive at ``path`` — the worst case is a stale
    ``.tmp`` file next to the intact previous checkpoint.
    """
    state = stream.to_state()
    detector = state["detector"]
    tracker = detector["tracker"]
    moments = detector["moments"]
    pipeline = detector.get("pipeline") or {}
    kernel = pipeline.get("kernel")
    delta = pipeline.get("delta")

    meta = {
        "format": _FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": detector["config"],
        "n_sensors": detector["n_sensors"],
        "rounds_processed": detector["rounds_processed"],
        "previous_outliers": detector["previous_outliers"],
        "moments_count": moments["count"],
        "tracker_mode": tracker["mode"],
        "tracker_decay": tracker["decay"],
        "tracker_window": tracker["window"],
        "tracker_rounds": tracker["rounds"],
        "tracker_history_len": len(tracker["history"]),
        "has_previous_labels": tracker["previous_labels"] is not None,
        "has_last_rc": tracker["last_rc"] is not None,
        "samples_seen": state["samples_seen"],
        "next_round_end": state["next_round_end"],
        "has_kernel": kernel is not None,
        "has_delta": delta is not None,
    }
    if delta is not None:
        builder = delta["builder"]
        meta["delta"] = {
            "k": builder["k"],
            "tau": builder["tau"],
            "has_members": builder["members"] is not None,
        }
    if kernel is not None:
        # Scalars ride in JSON; the float arrays go into the npz below so
        # the kernel resumes bit-identically (incremental sums included).
        meta["kernel"] = {
            "n_sensors": kernel["n_sensors"],
            "window": kernel["window"],
            "step": kernel["step"],
            "refresh_every": kernel["refresh_every"],
            "min_overlap": kernel["min_overlap"],
            "round": kernel["round"],
            "dirty": kernel["dirty"],
            "arrays": [
                name
                for name in ("baseline", "sums", "cross", "prev")
                if kernel[name] is not None
            ],
        }

    arrays: dict[str, np.ndarray] = {
        "meta": np.array(json.dumps(meta)),
        # mean/m2/decay_weight are float64 — keep them out of JSON so the
        # round-trip is bit-exact by construction, not by repr formatting.
        "moment_values": np.array([moments["mean"], moments["m2"]], dtype=np.float64),
        "tracker_sum": np.asarray(tracker["sum"], dtype=np.float64),
        "tracker_decay_weight": np.array([tracker["decay_weight"]], dtype=np.float64),
        "buffer": np.asarray(state["buffer"], dtype=np.float64),
    }
    if tracker["previous_labels"] is not None:
        arrays["tracker_previous_labels"] = np.asarray(
            tracker["previous_labels"], dtype=np.int64
        )
    if tracker["history"]:
        arrays["tracker_history"] = np.stack(
            [np.asarray(s, dtype=np.float64) for s in tracker["history"]]
        )
    if tracker["last_rc"] is not None:
        arrays["tracker_last_rc"] = np.asarray(tracker["last_rc"], dtype=np.float64)
    if kernel is not None:
        for name in meta["kernel"]["arrays"]:
            arrays[f"kernel_{name}"] = np.asarray(kernel[name], dtype=np.float64)
    if delta is not None and delta["builder"]["members"] is not None:
        arrays["delta_members"] = np.asarray(delta["builder"]["members"], dtype=bool)

    atomic_write(path, "wb", lambda handle: np.savez(handle, **arrays))


def atomic_write(
    path: str | Path, mode: str, write: Callable[[IO[Any]], object]
) -> None:
    """Durably replace ``path`` with whatever ``write`` puts in a handle.

    The one crash-safe write routine behind every durable file (stream
    archives, runtime sidecars, fleet manifests): ``write`` fills a
    ``<path>.tmp`` sibling opened with ``mode``, which is flushed and
    fsynced, moved into place with :func:`os.replace`, and the directory
    entry is flushed so the rename survives power loss.  A crash mid-write
    leaves the previous ``path`` intact; a failed write removes the staging
    file and re-raises.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        # Never leave the staging file behind on a failed write; the
        # exception itself still propagates (R7: no swallowed state errors).
        tmp.unlink(missing_ok=True)
        raise
    _fsync_directory(path.parent)


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry so a rename survives power loss.

    Best-effort: some filesystems (and non-POSIX platforms) refuse to open
    directories; the data fsync above already ran, so failure here only
    weakens crash durability of the *rename*, not file integrity.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        return
    finally:
        os.close(fd)


def load_checkpoint(path: str | Path) -> StreamingCAD:
    """Rebuild a :class:`StreamingCAD` from a :func:`save_checkpoint` file.

    Every failure mode — unreadable file, truncated or corrupt archive,
    missing entries, malformed metadata, unsupported version — surfaces as
    one typed :class:`CheckpointError` naming the offending path, so
    recovery code can scan checkpoint generations without special-casing
    ``zipfile``/``KeyError``/``OSError`` internals.
    """
    try:
        return _read_checkpoint(path)
    except CheckpointError:
        raise
    except (
        OSError,
        EOFError,
        KeyError,
        ValueError,
        TypeError,
        OverflowError,
        NotImplementedError,
        tokenize.TokenError,
        zipfile.BadZipFile,
    ) as exc:
        # np.load raises BadZipFile/OSError/EOFError on truncation,
        # NotImplementedError on a mangled zip compression method, KeyError
        # on missing archive members, and ValueError or TokenError on a
        # mangled .npy header; JSONDecodeError (a ValueError) covers mangled
        # metadata, and mistyped or absurd metadata fields raise
        # TypeError/ValueError/OverflowError from the state rebuild.
        raise CheckpointError(path, f"corrupt or invalid checkpoint ({exc})") from exc


def _read_checkpoint(path: str | Path) -> StreamingCAD:
    with np.load(path, allow_pickle=False) as archive:
        if "meta" not in archive:
            raise CheckpointError(path, "not a StreamingCAD checkpoint (no meta entry)")
        meta = json.loads(str(archive["meta"]))
        if not isinstance(meta, dict):
            raise CheckpointError(
                path, "not a StreamingCAD checkpoint (meta is not an object)"
            )
        if meta.get("format") != _FORMAT:
            raise CheckpointError(
                path,
                f"not a StreamingCAD checkpoint (format {meta.get('format')!r})",
            )
        version = meta.get("version")
        if version not in SUPPORTED_VERSIONS:
            raise CheckpointError(
                path,
                f"unsupported checkpoint version {version!r} "
                f"(this build reads versions {SUPPORTED_VERSIONS})",
            )
        config = dict(meta["config"])
        if version == 1:
            # v1 -> v2 migration: the reference engine was the only engine,
            # and the newer config knobs did not exist yet.
            config.setdefault("engine", "reference")
            config.setdefault("corr_refresh", 1)
            config.setdefault("n_jobs", 1)
        # Early v3 files carry the removed warm-start Louvain knob.
        config.pop("louvain_verify", None)

        mean, m2 = (float(v) for v in archive["moment_values"])
        history_len = int(meta["tracker_history_len"])
        if history_len:
            history = [row.copy() for row in archive["tracker_history"]]
            if len(history) != history_len:
                raise CheckpointError(path, "truncated tracker history")
        else:
            history = []
        kernel_state = None
        if meta.get("has_kernel"):
            kernel_meta = meta["kernel"]
            kernel_state = {
                "n_sensors": kernel_meta["n_sensors"],
                "window": kernel_meta["window"],
                "step": kernel_meta["step"],
                "refresh_every": kernel_meta["refresh_every"],
                "min_overlap": kernel_meta["min_overlap"],
                "round": kernel_meta["round"],
                "dirty": kernel_meta["dirty"],
            }
            for name in ("baseline", "sums", "cross", "prev"):
                kernel_state[name] = (
                    archive[f"kernel_{name}"]
                    if name in kernel_meta["arrays"]
                    else None
                )
        delta_state = None
        if meta.get("has_delta"):
            delta_meta = meta["delta"]
            delta_state = {
                "builder": {
                    "n_sensors": meta["n_sensors"],
                    "k": delta_meta["k"],
                    "tau": delta_meta["tau"],
                    "members": (
                        archive["delta_members"]
                        if delta_meta["has_members"]
                        else None
                    ),
                },
            }
        state = {
            "detector": {
                "config": config,
                "n_sensors": meta["n_sensors"],
                "rounds_processed": meta["rounds_processed"],
                "previous_outliers": meta["previous_outliers"],
                "moments": {"count": meta["moments_count"], "mean": mean, "m2": m2},
                "tracker": {
                    "n_sensors": meta["n_sensors"],
                    "mode": meta["tracker_mode"],
                    "decay": meta["tracker_decay"],
                    "window": meta["tracker_window"],
                    "rounds": meta["tracker_rounds"],
                    "sum": archive["tracker_sum"],
                    "decay_weight": float(archive["tracker_decay_weight"][0]),
                    "history": history,
                    "previous_labels": (
                        archive["tracker_previous_labels"]
                        if meta["has_previous_labels"]
                        else None
                    ),
                    "last_rc": (
                        archive["tracker_last_rc"] if meta["has_last_rc"] else None
                    ),
                },
                "pipeline": {"kernel": kernel_state, "delta": delta_state},
            },
            "samples_seen": meta["samples_seen"],
            "next_round_end": meta["next_round_end"],
            "buffer": archive["buffer"],
        }
    return StreamingCAD.from_state(state)


def save_fleet_manifest(
    path: str | Path,
    *,
    shards: int,
    seed: int,
    cycle: int,
    tenants: Mapping[str, Mapping[str, Any]],
) -> None:
    """Atomically write a checkpoint-v4 fleet manifest to ``path``.

    ``tenants`` maps tenant id to a JSON-safe description (at minimum the
    tenant's ``shard`` and checkpoint ``directory``, relative to the
    manifest's parent).  Written with :func:`atomic_write`, so a crash
    mid-write leaves the previous manifest intact.
    """
    payload = {
        "format": _MANIFEST_FORMAT,
        "version": FLEET_MANIFEST_VERSION,
        "shards": int(shards),
        "seed": int(seed),
        "cycle": int(cycle),
        "tenants": {
            tenant: dict(description) for tenant, description in tenants.items()
        },
    }
    atomic_write(
        path, "w", lambda handle: json.dump(payload, handle, indent=2, sort_keys=True)
    )


def load_fleet_manifest(path: str | Path) -> dict[str, Any]:
    """Read back a :func:`save_fleet_manifest` document.

    Returns the manifest payload (``shards``, ``seed``, ``cycle``,
    ``tenants``).  Every failure mode — missing/unreadable file, mangled
    JSON, a foreign format, an unsupported version, missing keys — raises
    :class:`CheckpointError` naming the path, mirroring
    :func:`load_checkpoint` so fleet recovery scans stay single-except.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CheckpointError(path, f"corrupt or unreadable fleet manifest ({exc})") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(path, "not a fleet manifest (not a JSON object)")
    if payload.get("format") != _MANIFEST_FORMAT:
        raise CheckpointError(
            path, f"not a fleet manifest (format {payload.get('format')!r})"
        )
    version = payload.get("version")
    if version != FLEET_MANIFEST_VERSION:
        raise CheckpointError(
            path,
            f"unsupported fleet manifest version {version!r} "
            f"(this build reads version {FLEET_MANIFEST_VERSION})",
        )
    tenants = payload.get("tenants")
    if not isinstance(tenants, dict):
        raise CheckpointError(path, "fleet manifest has no tenants table")
    for key in ("shards", "seed", "cycle"):
        if not isinstance(payload.get(key), int):
            raise CheckpointError(path, f"fleet manifest missing integer {key!r}")
    return {
        "shards": payload["shards"],
        "seed": payload["seed"],
        "cycle": payload["cycle"],
        "tenants": tenants,
    }
