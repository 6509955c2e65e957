"""The compiled walk: _walk.c, built with the system C compiler on first use and loaded with ctypes.

walk() returns the C function amr_walk, which market._walk calls for
every step, tabled or streamed, or None when the library cannot be had:
no C compiler, a failed build, or a cache directory that cannot be
written.  market._walk then runs its NumPy body, which gives
the same bits, and nothing is printed.

The build is portable, but for one function: on x86-64 with GCC 11 or
newer and glibc, _walk.c's hash batch carries target_clones, so the
library holds a portable and an AVX-512 (x86-64-v4) clone of it, and the
loader picks one, through an ifunc, when it loads the library.  Only the
hash is cloned: it is integer arithmetic that AVX-512 runs in vector
lanes, with the same bits, and the whole file built for x86-64-v4 was
slower.  Elsewhere the attribute is left out and the file still builds.
FLAGS stay portable, and nothing selects a clone but the CPU.

The library is cached in $XDG_CACHE_HOME/amr (default ~/.cache/amr)
under a key that hashes the source, the compiler command and the
platform, so a changed source or flag is never served an old build.  It
is compiled to a temporary name in that directory and moved into place
with os.replace, so no process loads a half-written file; a later
process finds it there and starts no compiler.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from functools import cache
from pathlib import Path

# The lean builtin sha512 that random loads too: hashlib would also load
# OpenSSL, about 3.5 MB resident in every process that imports amr.
try:
    from _sha2 import sha512  # Python >= 3.12
except ImportError:
    try:
        from _sha512 import sha512  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha512

SOURCE = Path(__file__).with_name("_walk.c")
COMPILER = "cc"
# -ffp-contract=off rounds every multiply and add on its own, as NumPy does:
# a fused multiply-add would change the bits.  -O3 vectorizes the vote loop,
# lane by lane, so no sum changes its order.
FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")

# amr_walk(T, C, K, M, S, optimism, reactivity, abs_weight_bits, above, keys, batch_rows,
#          price_impact, prices, demands, returns, scratch)
_ARGTYPES = ([ctypes.c_int64] * 5 + [ctypes.c_void_p] * 5 + [ctypes.c_int64, ctypes.c_double]
             + [ctypes.c_void_p] * 4)


def library_path() -> Path:
    """Where the library built from the current source, compiler command and platform is cached."""
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "amr"
    key = sha512(SOURCE.read_bytes())
    key.update(repr((COMPILER, FLAGS, sys.platform, platform.machine())).encode())
    return cache / f"walk-{key.hexdigest()[:32]}.so"


def _build(path: Path) -> bool:
    """Compile SOURCE to `path` through a temporary file; False when the compiler fails."""
    import subprocess  # only a cold cache needs it

    path.parent.mkdir(parents=True, exist_ok=True)
    part = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        done = subprocess.run([COMPILER, *FLAGS, "-o", str(part), str(SOURCE)], stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if done.returncode:
            return False
        os.replace(part, path)
        return True
    finally:
        part.unlink(missing_ok=True)


@cache
def walk():
    """The compiled walk (see _walk.c), or None when it cannot be built or loaded.

    The first call builds or loads it, and later calls return that
    result; walk.cache_clear() forgets it.
    """
    try:
        path = library_path()
        if not path.is_file() and not _build(path):
            return None
        function = ctypes.CDLL(str(path)).amr_walk
    except (OSError, AttributeError):  # no compiler, an unwritable cache, a file that is no such library
        return None
    function.argtypes = _ARGTYPES
    function.restype = None
    return function
