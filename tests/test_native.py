"""The compiled walk loads where a compiler is found, and its absence or failure changes no bit and prints nothing.

Each test that builds points the cache ($XDG_CACHE_HOME/amr) at a fresh
directory and forgets the loaded walk, so the next native.walk() looks
for the library again.
"""

import shutil
import subprocess
from datetime import date

import numpy as np
import pytest

import amr.market as market_module
from amr import native
from amr.market import simulate_pk
from amr.presets import bank_dominated_config, weekdays
from test_golden import SIMULATION_DIGESTS, _run_digest

needs_compiler = pytest.mark.skipif(shutil.which(native.COMPILER) is None, reason="no C compiler on PATH")


@needs_compiler
def test_native_walk_loads_where_a_compiler_is_found():
    # Where this fails, every "native" case of the suite ran NumPy's walk.
    assert native.walk() is not None


@pytest.fixture()
def cold(monkeypatch, tmp_path):
    """A fresh, empty cache directory root, with no walk loaded yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_loaded", native._UNLOADED)
    return tmp_path / "cache" / "amr"


def _bank_dominated_digest() -> str:
    return _run_digest(simulate_pk(bank_dominated_config(), 100.0, 250, weekdays(date(2009, 1, 2), 250)))


def _assert_silent_numpy_fallback(capfd):
    assert native.walk() is None
    assert _bank_dominated_digest() == SIMULATION_DIGESTS["bank_dominated"]
    assert capfd.readouterr() == ("", "")


def test_missing_compiler_falls_back_to_numpy_silently(cold, monkeypatch, capfd):
    monkeypatch.setattr(native, "COMPILER", "amr-no-such-compiler")
    _assert_silent_numpy_fallback(capfd)


@needs_compiler
def test_failed_build_falls_back_to_numpy_silently(cold, monkeypatch, capfd):
    monkeypatch.setattr(native, "FLAGS", (*native.FLAGS, "-fno-such-option"))
    _assert_silent_numpy_fallback(capfd)
    assert list(cold.iterdir()) == []  # the failed build's temporary file is gone


def test_unwritable_cache_falls_back_to_numpy_silently(cold, monkeypatch, tmp_path, capfd):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))  # $XDG_CACHE_HOME/amr cannot be made
    _assert_silent_numpy_fallback(capfd)


@needs_compiler
def test_library_under_another_key_is_never_loaded(cold, monkeypatch):
    # A garbage file under the key of other flags, of another compiler and of
    # another source: loading any of them would fail, and walk() would be None.
    own = native.library_path()
    source = cold.parent.parent / "_walk.c"
    source.write_text(native.SOURCE.read_text() + "/* edited */\n")
    others = []
    for name, value in (("FLAGS", ("-O2", "-shared", "-fPIC")), ("COMPILER", "gcc"), ("SOURCE", source)):
        with monkeypatch.context() as m:
            m.setattr(native, name, value)
            others.append(native.library_path())
    assert len({own, *others}) == 4
    cold.mkdir(parents=True)
    for other in others:
        other.write_bytes(b"not a shared library")
    assert native.walk() is not None
    assert own.is_file()


@needs_compiler
def test_warm_cache_starts_no_compiler(cold, monkeypatch):
    assert native.walk() is not None
    assert [p.name for p in cold.iterdir()] == [native.library_path().name]

    def no_compiler(*args, **kwargs):
        raise AssertionError(f"a compiler was started: {args}")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    monkeypatch.setattr(native, "_loaded", native._UNLOADED)
    assert native.walk() is not None
    assert _bank_dominated_digest() == SIMULATION_DIGESTS["bank_dominated"]


@needs_compiler
@pytest.mark.parametrize("fault", ["strided optimism", "integer returns"])
def test_compiled_walk_refuses_an_array_it_cannot_read(cold, fault):
    # C reads every array through its address, so a strided view or another
    # dtype would be read as garbage: _walk raises before the call instead.
    optimism = np.zeros((1, 1, 1, 8))
    optimism, returns = (optimism[..., ::2], np.zeros(4)) if fault == "strided optimism" else \
        (optimism[..., :4], np.zeros(4, dtype=np.int64))
    state = [optimism, np.zeros((1, 1, 1, 4)), np.zeros((1, 1, 1, 4), dtype=np.uint64)]
    with pytest.raises(ValueError, match="C-contiguous"):
        market_module._walk(np.ones((2, 4)), np.empty((1, 4)), returns, *state, 0.01,
                            lambda t, c0, c1: np.full((1, 1, 1, 1, 4), 0.5))
