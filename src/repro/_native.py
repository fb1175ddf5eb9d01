"""Build-on-first-use loader for the fast engine's compiled kernels.

One C source (``_kernels.c``), one cached shared library, one memoised
loader: :func:`load_kernels` returns a :class:`Kernels` whose methods run
the per-round passes of the fast engine -- the rolling correlation's
normalisation and the passes of its exact refresh around the Gram product
(:mod:`repro.timeseries.rolling`), the delta TSG builder's separation
certificate and CSR assembly over its ``(n, k)`` pick table
(:mod:`repro.graph.delta`) and Louvain (:mod:`repro.graph.csr`).  Each one
reproduces the numpy or dict code it replaces bit for bit.

The package runs straight from a source tree (``PYTHONPATH=src``) with no
install step, so no setuptools extension is ever built.  Instead the first
call compiles ``_kernels.c`` with the C compiler Python itself was built
with (``sysconfig``'s ``CC``) and loads the library with :mod:`ctypes`:

* flags ``-O3 -fPIC -shared -ffp-contract=off`` (and ``-lm``), never
  ``-ffast-math``: a fused multiply-add or a reassociated sum would change
  the kernels' bits.  ``-O3`` lets the compiler vectorise the row scans,
  which ``-O2`` leaves scalar; they are element-wise, integer reductions
  or numpy's eight independent pairwise-sum lanes, so the vector code
  returns the scalar code's bits;
* never ``-march=native``, because the cached library may be shared
  between hosts.  On x86-64 ELF targets the correlation normalisation, the
  two refresh passes and the TSG certificate are built as
  ``target_clones("avx2", "default")``
  instead, and the dynamic loader picks the clone the host runs;
* the library is cached in ``$XDG_CACHE_HOME/repro`` (default
  ``~/.cache/repro``, created with mode 0700) under a name hashed from the
  source, the compiler command, the flags and the platform tag, so an
  edited source never loads a stale build;
* it is compiled to a temporary file in the cache directory and moved into
  place with :func:`os.replace`, so concurrent processes (and forked pool
  workers) never load a half-written library;
* after a successful build every other finished ``*.so`` in the directory
  is unlinked, so the cache holds one library however often the source
  changes (a process that already mapped a pruned library keeps using it;
  one that finds its build gone compiles it again);
* when the cache directory is not writable, it is compiled into a private
  per-process temporary directory instead.

When no compiler works, :func:`load_kernels` warns once and returns
``None``; every caller then runs the reference code it replaces (numpy for
correlation and TSG, the dict Louvain).  The result is memoised per
process.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import warnings
from pathlib import Path
from typing import Any

import numpy as np

SOURCE = Path(__file__).with_name("_kernels.c")
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
LIBS = ("-lm",)

#: ``repro_louvain_labels`` status codes (see ``_kernels.c``) -> message.
STATUS_MESSAGES = {
    1: "indptr[0] must be 0",
    2: "indptr must never decrease",
    3: "indptr[n] must equal len(indices)",
    4: "every index must lie in [0, n)",
}
STATUS_NO_MEMORY = 5


class KernelBuildError(RuntimeError):
    """The compiled kernels could not be built."""


def compiler_command() -> list[str]:
    """The C compiler Python was built with, split into argv words."""
    cc = sysconfig.get_config_var("CC")
    return shlex.split(cc) if isinstance(cc, str) else []


def cache_name(source: bytes, command: list[str]) -> str:
    """Library file name for one (source, compiler, flags, platform) build."""
    digest = hashlib.sha256()
    for part in (
        source,
        "\0".join(command).encode(),
        "\0".join(FLAGS + LIBS).encode(),
        sysconfig.get_platform().encode(),
    ):
        # Length-prefixed, so no two distinct inputs hash the same bytes.
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return f"kernels-{digest.hexdigest()[:32]}.so"


def cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro``; the XDG spec ignores a relative value."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro"


def _temp_target(target: Path) -> tuple[Path, str]:
    """``(target, temp file)`` in the cache dir, else in a private dir."""
    try:
        target.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        fd, temp = tempfile.mkstemp(prefix=".kernels-", suffix=".so", dir=target.parent)
    except OSError:
        private = tempfile.mkdtemp(prefix="repro-kernels-")
        atexit.register(lambda: shutil.rmtree(private, ignore_errors=True))
        target = Path(private) / target.name
        fd, temp = tempfile.mkstemp(suffix=".so", dir=private)
    os.close(fd)
    return target, temp


def prune_stale(target: Path) -> None:
    """Unlink every finished library beside ``target`` but ``target``.

    Temporary files of builds still in flight start with a dot and are
    left alone.  Unlinking a mapped library is safe: processes that loaded
    it keep their mapping.
    """
    for path in target.parent.glob("*.so"):
        if path.name != target.name and not path.name.startswith("."):
            try:
                path.unlink()
            except OSError:
                pass  # already gone, or not ours to remove


def build(command: list[str], target: Path) -> Path:
    """Compile the kernels to ``target`` atomically; returns where it landed."""
    if not command:
        raise KernelBuildError("sysconfig names no C compiler (CC)")
    target, temp = _temp_target(target)
    try:
        subprocess.run(
            [*command, *FLAGS, "-o", temp, str(SOURCE), *LIBS],
            check=True,
            capture_output=True,
        )
        os.replace(temp, target)
    except (OSError, subprocess.CalledProcessError) as exc:
        Path(temp).unlink(missing_ok=True)
        detail = getattr(exc, "stderr", b"") or b""
        raise KernelBuildError(
            f"compiling {SOURCE.name} with {command[0]!r} failed: {exc}"
            + (f"\n{detail.decode(errors='replace').strip()}" if detail else "")
        ) from exc
    prune_stale(target)
    return target


def raise_for_status(status: int) -> None:
    """Raise for a non-zero ``repro_louvain_labels`` status."""
    if status == STATUS_NO_MEMORY:
        raise MemoryError("the Louvain kernel could not allocate its working arrays")
    if status:
        raise ValueError(f"malformed CSR graph: {STATUS_MESSAGES[status]}")


def _bind(function: Any, restype: Any, argtypes: list[Any]) -> Any:
    function.restype = restype
    function.argtypes = argtypes
    return function


_I64 = ctypes.c_int64
_F64 = ctypes.c_double
_PTR = ctypes.c_void_p


def _pick_table(corr: np.ndarray, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``corr`` as contiguous ``(n, n)`` float64, ``picks`` as ``(n, k)`` int64.

    Refuses a pick table the C code could read out of bounds with: a
    wrong shape, ``k`` outside ``[1, n)`` or a pick outside ``[0, n)``.  A
    repeated or diagonal pick stays legal; the certificate marks its row
    stale.
    """
    corr = np.ascontiguousarray(corr, dtype=np.float64)
    picks = np.ascontiguousarray(picks, dtype=np.int64)
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise ValueError(f"corr must be square, got shape {corr.shape}")
    n = corr.shape[0]
    if picks.ndim != 2 or picks.shape[0] != n or not 1 <= picks.shape[1] < n:
        raise ValueError(
            f"picks must have shape ({n}, k) with 1 <= k < {n}, got {picks.shape}"
        )
    # One reduction checks both ends: a negative pick wraps to >= 2**63.
    if picks.view(np.uint64).max() >= n:
        raise ValueError(f"every pick must lie in [0, {n})")
    return corr, picks


def rows_contiguous(window: np.ndarray) -> bool:
    """Whether the refresh kernel reads ``window`` in place.

    True for an aligned, native float64 2-D array whose rows each hold
    adjacent elements -- a C-contiguous window or a column slice of one,
    such as a view of a ring buffer.  numpy reduces such rows in the
    pairwise order the kernel replicates; any other layout takes the numpy
    refresh.
    """
    return (
        window.ndim == 2
        and window.dtype == np.float64
        and window.flags.aligned
        and window.strides[1] == window.itemsize
        and window.strides[0] % window.itemsize == 0
    )


class Kernels:
    """Shape-checked entry points into one loaded kernel library.

    Every method validates its arguments in numpy before the C call, so a
    malformed input raises ``ValueError`` instead of reading out of bounds.
    Array arguments are held in locals for the duration of each call,
    which keeps the buffers the C code reads alive and contiguous.
    """

    def __init__(self, library: Any) -> None:
        self._louvain = _bind(
            library.repro_louvain_labels,
            ctypes.c_int,
            [_I64, _PTR, _PTR, _PTR, _I64, _F64, _F64, _PTR],
        )
        self._certify = _bind(
            library.repro_tsg_certify, _I64, [_I64, _I64, _PTR, _PTR, _PTR]
        )
        self._tsg_csr = _bind(
            library.repro_tsg_csr,
            _I64,
            [_I64, _I64, _PTR, _PTR, _F64, _PTR, _PTR, _PTR],
        )
        self._corr = _bind(
            library.repro_corr_from_sums, ctypes.c_int, [_I64, _F64, _PTR, _PTR, _PTR]
        )
        self._refresh_unit = _bind(
            library.repro_refresh_unit,
            _I64,
            [_I64, _I64, _PTR, _I64, _PTR, _PTR, _PTR, _PTR, _PTR],
        )
        self._refresh_finish = _bind(
            library.repro_refresh_finish, None, [_I64, _PTR, _PTR, _PTR, _I64, _PTR]
        )

    def louvain_labels(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        resolution: float,
        min_gain: float,
    ) -> np.ndarray:
        """Louvain labels of a CSR graph; the C code checks the structure."""
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        if indptr.ndim != 1 or indptr.size < 2 or indices.shape != weights.shape:
            raise ValueError("malformed CSR graph: array lengths disagree")
        labels = np.empty(indptr.size - 1, dtype=np.int64)
        raise_for_status(
            self._louvain(
                labels.size,
                indptr.ctypes.data,
                indices.ctypes.data,
                weights.ctypes.data,
                indices.size,
                resolution,
                min_gain,
                labels.ctypes.data,
            )
        )
        return labels

    def tsg_certify(self, corr: np.ndarray, picks: np.ndarray) -> np.ndarray:
        """Rows of the ``(n, k)`` pick table that ``corr`` does not certify."""
        corr, picks = _pick_table(corr, picks)
        n, k = picks.shape
        stale = np.empty(n, dtype=np.int64)
        count = self._certify(
            n, k, corr.ctypes.data, picks.ctypes.data, stale.ctypes.data
        )
        if count < 0:
            raise MemoryError("the TSG certificate could not allocate its scratch")
        return stale[:count]

    def tsg_csr(
        self, corr: np.ndarray, picks: np.ndarray, tau: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, |weights|)`` of the TSG of the pick table."""
        corr, picks = _pick_table(corr, picks)
        n, k = picks.shape
        # Each pick stores at most both directions of one edge.
        capacity = 2 * n * k
        indptr = np.empty(n + 1, dtype=np.int64)
        indices = np.empty(capacity, dtype=np.int64)
        weights = np.empty(capacity, dtype=np.float64)
        stored = self._tsg_csr(
            n,
            k,
            corr.ctypes.data,
            picks.ctypes.data,
            tau,
            indptr.ctypes.data,
            indices.ctypes.data,
            weights.ctypes.data,
        )
        if stored < 0:
            raise MemoryError("the TSG assembly could not allocate its bitsets")
        return indptr, indices[:stored], weights[:stored]

    def corr_from_sums(
        self, sums: np.ndarray, cross: np.ndarray, window: int
    ) -> np.ndarray:
        """Pearson matrix of a window from its running sums (see rolling)."""
        sums = np.ascontiguousarray(sums, dtype=np.float64)
        cross = np.ascontiguousarray(cross, dtype=np.float64)
        n = sums.size
        if sums.ndim != 1 or cross.shape != (n, n):
            raise ValueError(
                f"cross must have shape ({n}, {n}) for {n} sums, got {cross.shape}"
            )
        corr = np.empty((n, n), dtype=np.float64)
        status = self._corr(
            n, float(window), sums.ctypes.data, cross.ctypes.data, corr.ctypes.data
        )
        if status:
            raise MemoryError("the correlation kernel could not allocate its scratch")
        return corr

    def refresh(
        self, window: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(corr, baseline, sums, cross)`` of an exact refresh (see rolling).

        The O(n*w) passes before the Gram product and the O(n^2) pass after
        it run compiled; the product itself is numpy's ``unit @ unit.T`` on
        a C-contiguous ``unit``, the BLAS call the numpy refresh makes.
        """
        if not rows_contiguous(window) or 0 in window.shape:
            raise ValueError(
                "window must be a non-empty aligned float64 (n, w) array with "
                f"adjacent columns, got shape {window.shape}, strides "
                f"{window.strides}, dtype {window.dtype}"
            )
        n, w = window.shape
        # baseline, sums and safe norms share one block, and each block's
        # address is read once: at small n the ctypes address lookups
        # (~1-2 us each) rival the C passes themselves.
        vectors = np.empty((3, n), dtype=np.float64)
        constant = np.empty(n, dtype=np.int64)
        unit = np.empty((n, w), dtype=np.float64)
        vectors_at, constant_at = vectors.ctypes.data, constant.ctypes.data
        safe_at = vectors_at + 2 * vectors.strides[0]
        n_constant = self._refresh_unit(
            n,
            w,
            window.ctypes.data,
            window.strides[0] // window.itemsize,
            vectors_at,
            vectors_at + vectors.strides[0],
            safe_at,
            constant_at,
            unit.ctypes.data,
        )
        corr = unit @ unit.T
        cross = np.empty((n, n), dtype=np.float64)
        self._refresh_finish(
            n, corr.ctypes.data, safe_at, constant_at, n_constant, cross.ctypes.data
        )
        baseline, sums, _ = vectors
        return corr, baseline, sums, cross


@functools.lru_cache(maxsize=None)
def load_kernels() -> Kernels | None:
    """The compiled kernels, or None (warned once) when they cannot be built."""
    command = compiler_command()
    try:
        target = cache_dir() / cache_name(SOURCE.read_bytes(), command)
        if not target.is_file():
            target = build(command, target)
        library = ctypes.CDLL(str(target))
    except (KernelBuildError, OSError) as exc:
        warnings.warn(
            f"compiled kernels unavailable ({exc}); falling back to numpy "
            "correlation and TSG code and the dict reference Louvain",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    return Kernels(library)
