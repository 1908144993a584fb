"""Shared pytest fixtures."""

from __future__ import annotations

import pytest

from repro.ids import reset_global_ids
from repro.sim import ScenarioConfig, SeededRng, World


@pytest.fixture(autouse=True)
def _reset_global_id_counters():
    """Rewind the process-global id counters before every test.

    Task, vehicle, message, graph and RSU ids come from process-global
    counters, so a test asserting on concrete ids (``task-1``,
    ``veh-3``, ``graph-1``) or on seeded byte-identical replays would
    otherwise depend on which tests ran before it.  Centralizing the
    reset here keeps every test hermetic without each one remembering
    to do it manually.
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
