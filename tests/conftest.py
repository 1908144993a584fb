"""Shared pytest fixtures."""

from __future__ import annotations

import pytest

from repro.ids import reset_global_ids
from repro.sim import ScenarioConfig, SeededRng, World


def pytest_runtest_setup(item):
    """Rewind every id counter in :mod:`repro.ids` before every test.

    Every id the package mints comes from those process-global
    counters, so a test asserting on concrete ids (``task-1``,
    ``veh-3``, ``graph-1``) or on seeded byte-identical replays would
    otherwise depend on which tests ran before it.  The rewind runs
    ahead of fixture setup, so a module-scoped fixture built for a
    module's first test starts from fresh ids too.  A rewind makes ids
    repeat, and with them the ABE master secrets and ``KeyPair`` tokens
    derived from ids, so it is safe only between worlds: here, before a
    test builds any.  A test that builds several worlds and compares
    them rewinds again before each one.
    """
    reset_global_ids()


@pytest.fixture
def world() -> World:
    """A fresh world with a fixed seed."""
    return World(ScenarioConfig(seed=1234))


@pytest.fixture
def rng() -> SeededRng:
    """A deterministic RNG stream."""
    return SeededRng(99, "test")
