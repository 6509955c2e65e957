from __future__ import annotations

import pytest

from amr import market, native, reducer
from amr.learner import ParameterVector
from amr.presets import balanced_config, bank_dominated_config, synthetic_target
from amr.rng import substream
from walks import WALKS


@pytest.fixture(autouse=True)
def empty_memos():
    """Each test starts with no subset scores, uniform table or jitter noise remembered from an earlier one."""
    reducer._known_scores.cache_clear()
    market._uniform_table.cache_clear()
    market._jitter_noise.cache_clear()


@pytest.fixture(params=WALKS)
def walk(request, monkeypatch):
    """The walk a test runs on; "numpy" unloads the compiled one, so _walk takes its NumPy body.

    Tests whose ids predate the compiled walk parametrize it indirectly
    with on_each_walk (tests/walks.py), which keeps their ids for "native".
    """
    if request.param == "numpy":
        monkeypatch.setattr(native, "walk", lambda: None)
    return request.param


@pytest.fixture(scope="session")
def cfg_a():
    """Bank-dominated asset distribution (one type holds ~80% of assets)."""
    return bank_dominated_config(master_seed=2008)


@pytest.fixture(scope="session")
def cfg_b():
    """Balanced distribution (two types with comparable investment capacity)."""
    return balanced_config(master_seed=2009)


@pytest.fixture(scope="session")
def target_a(cfg_a):
    return synthetic_target(cfg_a, seed=substream(cfg_a.master_seed, 0), n_days=390)


@pytest.fixture(scope="session")
def target_b(cfg_b):
    return synthetic_target(cfg_b, seed=substream(cfg_b.master_seed, 0), n_days=390)


@pytest.fixture(scope="session")
def params_a(cfg_a):
    """Generator parameters double as the trained vector for fixture markets."""
    return ParameterVector.from_config(cfg_a)


@pytest.fixture(scope="session")
def params_b(cfg_b):
    return ParameterVector.from_config(cfg_b)
