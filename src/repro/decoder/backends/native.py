"""The fast backend's native iteration body: built on first use, cached.

One layered iteration of the guard-ROM fixed-point datapath (the kernel
stock Q8.2 configs select) lives in C next to this module
(``guard_rom.c``, ~90 lines, no dependencies beyond ``<stdint.h>``).
:func:`library` compiles it with the system ``gcc`` the first time a
process asks for it and loads it through :mod:`ctypes`; later processes
reuse the compiled object from a cache keyed by the source hash, the
flags, the compiler version and the CPU model (the object is tuned for
the build host).  Nothing is installed or downloaded.

The cache lives under ``$XDG_CACHE_HOME/repro/native`` (``~/.cache``
when unset).  A build writes a temporary file in the cache directory
and renames it into place, so processes racing on a cold cache each
produce a complete library and one of them wins the name.  When the
cache directory cannot be written, the library is built in a private
temporary directory for this process only.

If no compiler exists or the build fails, :func:`library` returns
``None`` and the fast backend runs its numpy layer body instead: same
outputs, byte for byte, only slower.  There is no switch to turn the
native body off; tests force the numpy body by patching
:func:`library`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

#: The C source of the iteration body.
SOURCE = Path(__file__).with_name("guard_rom.c")

#: Compiler looked up on ``PATH``.
COMPILER = "gcc"

#: Compile flags (part of the cache key).  ``-march=native`` lets the
#: port, fold and write-back loops use the host's vector gathers and
#: selects: 20-35% fewer ns per edge than baseline x86-64 on an AVX-512
#: host (WiMax z96 B=256, WiFi z81 B=64, NR BG1 z384 B=12).  It ties
#: the object to the CPU, so the CPU identity joins the cache key.
CFLAGS = ("-O3", "-march=native", "-shared", "-fPIC")

#: ``/proc/cpuinfo`` fields that identify the instruction set.
_CPU_FIELDS = frozenset((
    b"vendor_id", b"cpu family", b"model", b"model name", b"flags",
    b"CPU implementer", b"CPU architecture", b"CPU part", b"Features",
))

#: Seconds one compiler invocation may take before the build counts as
#: failed.
BUILD_TIMEOUT_S = 120.0

_P = ctypes.c_void_p
_I64 = ctypes.c_int64
_I32 = ctypes.c_int32
#: ``guard_rom_iterate`` signature: APP and Λ memories, the geometry,
#: the per-block tables, the ROMs, the datapath constants and scratch.
_ARGTYPES = (
    [_P, _P, _I64, _I64, _I64, _I64, _I64, _P, _P, _P, _P, _P]
    + [_I32] * 4
    + [_P]
)

_lock = threading.Lock()
_resolved = False
_function = None


def cache_dir() -> Path:
    """Directory the compiled libraries are cached in."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(root) / "repro" / "native"


def cpu_identity() -> bytes:
    """What ``-march=native`` compiles for: the first CPU's model and
    feature fields, or the platform's description off Linux."""
    fields = []
    try:
        with open("/proc/cpuinfo", "rb") as handle:
            for line in handle:
                if not line.strip():
                    break
                if line.split(b":", 1)[0].strip() in _CPU_FIELDS:
                    fields.append(line.strip())
    except OSError:
        return f"{platform.machine()} {platform.processor()}".encode()
    return b"\n".join(fields)


def _compile(compiler: str, source: Path, target: Path) -> None:
    """Compile ``source`` to ``target`` through a temp file + rename."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, partial = tempfile.mkstemp(dir=target.parent, suffix=".so.partial")
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *CFLAGS, "-o", partial, str(source)],
            check=True, capture_output=True, timeout=BUILD_TIMEOUT_S,
        )
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _load(path: Path):
    function = ctypes.CDLL(str(path)).guard_rom_iterate
    function.argtypes = _ARGTYPES
    function.restype = None
    return function


def build_library(
    compiler: str = COMPILER,
    source: Path = SOURCE,
    directory: Path | None = None,
):
    """Compile (or reuse) and load the iteration body.

    Returns the ``guard_rom_iterate`` foreign function, or ``None`` when
    the compiler is missing or any step fails; never raises.
    """
    try:
        executable = shutil.which(compiler)
        if executable is None:
            return None
        version = subprocess.run(
            [executable, "-dumpfullversion", "-dumpmachine"],
            check=True, capture_output=True, timeout=BUILD_TIMEOUT_S,
        ).stdout
        parts = [source.read_bytes(), " ".join(CFLAGS).encode(), version,
                 cpu_identity()]
        key = hashlib.sha256(b"\0".join(parts)).hexdigest()[:16]
        name = f"{source.stem}-{key}.so"
        target = (directory if directory is not None else cache_dir()) / name
        try:
            if not target.exists():
                _compile(executable, source, target)
        except OSError:
            # The cache cannot be written (read-only, full, not a
            # directory): build for this process alone.  The loaded
            # mapping outlives the directory.
            with tempfile.TemporaryDirectory() as private:
                _compile(executable, source, Path(private) / name)
                return _load(Path(private) / name)
        return _load(target)
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None


def library():
    """The process-wide iteration body, built on first call; or ``None``."""
    global _resolved, _function
    if not _resolved:
        with _lock:
            if not _resolved:
                _function = build_library()
                _resolved = True
    return _function
