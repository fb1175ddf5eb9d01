"""Build-on-first-use loader for the compiled Louvain kernel (``_louvain.c``).

The package runs straight from a source tree (``PYTHONPATH=src``) with no
install step, so no setuptools extension is ever built.  Instead the first
call to :func:`load_louvain` compiles ``_louvain.c`` with the C compiler
Python itself was built with (``sysconfig``'s ``CC``) and loads the shared
library with :mod:`ctypes`:

* flags ``-O2 -fPIC -shared -ffp-contract=off``, never ``-ffast-math``: a
  fused multiply-add or a reassociated sum would change the kernel's bits;
* the library is cached in ``$XDG_CACHE_HOME/repro`` (default
  ``~/.cache/repro``, created with mode 0700) under a name hashed from the
  source, the compiler command, the flags and the platform tag, so an
  edited source never loads a stale build;
* it is compiled to a temporary file in the cache directory and moved into
  place with :func:`os.replace`, so concurrent processes (and forked pool
  workers) never load a half-written library;
* when the cache directory is not writable, it is compiled into a private
  per-process temporary directory instead.

When no compiler works, :func:`load_louvain` warns once and returns
``None``; :func:`repro.graph.csr.louvain_labels_csr` then runs the dict
reference Louvain.  The result is memoised per process.
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
from typing import Callable

SOURCE = Path(__file__).with_name("_louvain.c")
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: ``repro_louvain_labels`` status codes (see ``_louvain.c``) -> message.
STATUS_MESSAGES = {
    1: "indptr[0] must be 0",
    2: "indptr must never decrease",
    3: "indptr[n] must equal len(indices)",
    4: "every index must lie in [0, n)",
}
STATUS_NO_MEMORY = 5


class KernelBuildError(RuntimeError):
    """The Louvain kernel could not be compiled."""


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
        "\0".join(FLAGS).encode(),
        sysconfig.get_platform().encode(),
    ):
        # Length-prefixed, so no two distinct inputs hash the same bytes.
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return f"louvain-{digest.hexdigest()[:32]}.so"


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
        fd, temp = tempfile.mkstemp(prefix=".louvain-", suffix=".so", dir=target.parent)
    except OSError:
        private = tempfile.mkdtemp(prefix="repro-louvain-")
        atexit.register(lambda: shutil.rmtree(private, ignore_errors=True))
        target = Path(private) / target.name
        fd, temp = tempfile.mkstemp(suffix=".so", dir=private)
    os.close(fd)
    return target, temp


def build(command: list[str], target: Path) -> Path:
    """Compile the kernel to ``target`` atomically; returns where it landed."""
    if not command:
        raise KernelBuildError("sysconfig names no C compiler (CC)")
    target, temp = _temp_target(target)
    try:
        subprocess.run(
            [*command, *FLAGS, "-o", temp, str(SOURCE)],
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
    return target


@functools.lru_cache(maxsize=None)
def load_louvain() -> Callable[..., int] | None:
    """The compiled ``repro_louvain_labels`` function, or None (warned once)."""
    command = compiler_command()
    try:
        target = cache_dir() / cache_name(SOURCE.read_bytes(), command)
        if not target.is_file():
            target = build(command, target)
        library = ctypes.CDLL(str(target))
    except (KernelBuildError, OSError) as exc:
        warnings.warn(
            f"compiled Louvain kernel unavailable ({exc}); "
            "falling back to the dict reference Louvain",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    kernel = library.repro_louvain_labels
    kernel.restype = ctypes.c_int
    kernel.argtypes = [
        ctypes.c_int64,  # n
        ctypes.c_void_p,  # indptr (int64, n + 1)
        ctypes.c_void_p,  # indices (int64)
        ctypes.c_void_p,  # weights (float64)
        ctypes.c_int64,  # len(indices)
        ctypes.c_double,  # resolution
        ctypes.c_double,  # min_gain
        ctypes.c_void_p,  # labels out (int64, n)
    ]
    return kernel
