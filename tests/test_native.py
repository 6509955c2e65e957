"""The compiled walk loads where a compiler is found, streamed steps of every size reach it, and its absence
or failure changes no bit and prints nothing.

Each test that builds points the cache ($XDG_CACHE_HOME/amr) at a fresh
directory and forgets the loaded walk, so the next native.walk() looks
for the library again.
"""

import shutil
import subprocess
from dataclasses import replace
from datetime import date

import numpy as np
import pytest

import amr.market as market_module
from amr import native
from amr.market import simulate_batch, simulate_pk, step
from amr.presets import bank_dominated_config, weekdays
import test_golden
from test_golden import ONE_SEED, ONE_SEED_DIGESTS, SIMULATION_DIGESTS, _run_digest, one_seed_digest

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


# The attribute that gives _walk.c's hash batch an AVX-512 clone beside the portable one.
CLONES = '__attribute__((target_clones("arch=x86-64-v4", "default")))'


@needs_compiler
def test_portable_hash_equals_the_numpy_walk(cold, monkeypatch):
    # Where the CPU has AVX-512 the loader picks that clone, so every other
    # test runs it there; a copy without the attribute runs the portable body
    # on every host.  Each streamed run below hashes in C: one seed over 1,
    # 10 and 49 chunks, and two seeds over 10.
    source = cold.parent.parent / "_walk.c"
    text = native.SOURCE.read_text()
    assert text.count(CLONES) == 1
    source.write_text(text.replace(CLONES, ""))
    monkeypatch.setattr(native, "SOURCE", source)
    monkeypatch.setattr(market_module, "_UNIFORM_TABLE_ELEMENTS", 0)
    assert native.walk() is not None
    assert [p.name for p in cold.iterdir()] == [native.library_path().name]
    assert _bank_dominated_digest() == SIMULATION_DIGESTS["bank_dominated"]
    for name in ONE_SEED:
        assert one_seed_digest(name) == ONE_SEED_DIGESTS[name]
    test_golden.test_row_blocked_batch_digest("x81_plus_1", "native")


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
                            np.full((1, 1, 1, 1, 4), 0.5), None)


@pytest.fixture()
def recorded(cold, monkeypatch):
    """The arguments of every call into the compiled walk, which still runs, built in a fresh cache."""
    compiled = native.walk()
    assert compiled is not None
    calls = []

    def recorder(*args):
        calls.append(args)
        return compiled(*args)

    monkeypatch.setattr(native, "_loaded", recorder)
    return calls


def _numpy_walk_of(monkeypatch, run):
    with monkeypatch.context() as m:
        m.setattr(native, "_loaded", None)
        return run()


@needs_compiler
def test_row_blocked_steps_reach_the_compiled_walk(monkeypatch, recorded):
    # 40,504 agents in 10 chunks under 2 seeds: each step is 3 NumPy row
    # blocks, and at cap 0 the uniforms are streamed, so C hashes them.
    monkeypatch.setattr(market_module, "_UNIFORM_TABLE_ELEMENTS", 0)
    base = bank_dominated_config()
    config = replace(base, types=tuple(replace(t, count=t.count * 81 + 1) for t in base.types))
    size, chunks = market_module._chunking(config.n_agents)
    assert size * chunks * 2 > market_module._UNIFORM_BLOCK_ELEMENTS
    masks = [[True] * 4, [False, True, True, False]]
    run = lambda: simulate_batch(config, [3, 4], masks, 100.0, 12)
    prices, demands = run()
    steps, above, keys = recorded[0][0], recorded[0][8], recorded[0][9]
    assert len(recorded) == 1 and steps == 11 and above is None and keys is not None
    numpy_prices, numpy_demands = _numpy_walk_of(monkeypatch, run)
    assert prices.tobytes() == numpy_prices.tobytes() and demands.tobytes() == numpy_demands.tobytes()


@needs_compiler
def test_one_block_step_reaches_the_compiled_walk(monkeypatch, recorded):
    run = lambda: step(bank_dominated_config(), 101.5, 0.015, 7)
    stepped = run()
    steps, above, keys = recorded[0][0], recorded[0][8], recorded[0][9]
    assert len(recorded) == 1 and steps == 1 and above is None and keys is not None
    assert stepped == _numpy_walk_of(monkeypatch, run)


@needs_compiler
@pytest.mark.parametrize("batch_elements", [1, 5 * 8 * 3, 1 << 20], ids=["1-row", "5-rows", "one-batch"])
def test_hash_batches_equal_the_numpy_walk(cold, monkeypatch, batch_elements):
    # 500 agents in 8 chunks of 64 under 3 seeds and 5 masks, streamed:
    # C hashes 1 row at a time, 5 rows (the 13th batch holds 4) or all 64.
    monkeypatch.setattr(market_module, "CHUNK_SIZE", 64)
    monkeypatch.setattr(market_module, "_UNIFORM_TABLE_ELEMENTS", 0)
    monkeypatch.setattr(market_module, "_HASH_BATCH_ELEMENTS", batch_elements)
    config = bank_dominated_config(master_seed=11)
    masks = [[n in subset for n in config.type_names]
             for subset in (config.type_names, ("Banks",), ("Funds", "Govt"), (), ("Individual",))]
    run = lambda: simulate_batch(config, [11, 12, 13], masks, 100.0, 90)
    assert native.walk() is not None
    prices, demands = run()
    numpy_prices, numpy_demands = _numpy_walk_of(monkeypatch, run)
    assert prices.tobytes() == numpy_prices.tobytes() and demands.tobytes() == numpy_demands.tobytes()
