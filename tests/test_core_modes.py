"""Unit tests for operating modes and mode propagation."""

from __future__ import annotations

import pytest

from repro.core.modes import DEFAULT_POLICIES, ModeManager, ModePropagation
from repro.errors import ConfigurationError
from repro.geometry import Vec2
from repro.mobility import Vehicle
from repro.net import VehicleNode, WirelessChannel
from repro.security.access import OperatingMode
from repro.sim import ChannelConfig, ScenarioConfig, World


def lossless_world():
    return World(
        ScenarioConfig(
            seed=9,
            channel=ChannelConfig(base_loss_probability=0.0, loss_per_100m=0.0),
        )
    )


class TestModeManager:
    def test_starts_normal(self):
        manager = ModeManager("n1")
        assert manager.mode is OperatingMode.NORMAL
        assert not manager.policy.minimize_rsu_use

    def test_apply_order_changes_mode(self):
        manager = ModeManager("n1")
        changed = manager.apply_order("o1", OperatingMode.EMERGENCY, now=5.0)
        assert changed
        assert manager.mode is OperatingMode.EMERGENCY
        assert manager.last_change_at == 5.0
        assert manager.policy.minimize_rsu_use

    def test_duplicate_order_ignored(self):
        manager = ModeManager("n1")
        manager.apply_order("o1", OperatingMode.EMERGENCY, now=5.0)
        assert not manager.apply_order("o1", OperatingMode.EMERGENCY, now=9.0)
        assert manager.last_change_at == 5.0

    def test_same_mode_order_is_noop(self):
        manager = ModeManager("n1")
        assert not manager.apply_order("o1", OperatingMode.NORMAL, now=1.0)

    def test_listeners_fire_on_change(self):
        manager = ModeManager("n1")
        seen = []
        manager.on_change(seen.append)
        manager.apply_order("o1", OperatingMode.EVENT, now=1.0)
        manager.apply_order("o2", OperatingMode.EMERGENCY, now=2.0)
        assert seen == [OperatingMode.EVENT, OperatingMode.EMERGENCY]

    def test_default_policies_cover_all_modes(self):
        assert set(DEFAULT_POLICIES) == set(OperatingMode)


class TestModePropagation:
    def _chain(self, world, count=4, spacing=200.0):
        channel = WirelessChannel(world)
        return [
            VehicleNode(world, channel, Vehicle(position=Vec2(i * spacing, 0)))
            for i in range(count)
        ]

    def test_order_floods_connected_chain(self):
        world = lossless_world()
        nodes = self._chain(world)
        propagation = ModePropagation(world, nodes)
        order_id = propagation.issue_order(nodes[0], OperatingMode.EMERGENCY)
        world.run_for(5.0)
        assert propagation.adoption_fraction(OperatingMode.EMERGENCY) == 1.0
        latency = propagation.propagation_latency(order_id, OperatingMode.EMERGENCY)
        assert latency is not None and latency > 0

    def test_latency_none_until_everyone_adopts(self):
        world = lossless_world()
        nodes = self._chain(world)
        # Isolate the last node so the flood cannot reach it.
        nodes[-1].vehicle.position = Vec2(100_000, 0)
        propagation = ModePropagation(world, nodes)
        order_id = propagation.issue_order(nodes[0], OperatingMode.EMERGENCY)
        world.run_for(10.0)
        assert propagation.adoption_fraction(OperatingMode.EMERGENCY) == 0.75
        assert propagation.propagation_latency(order_id, OperatingMode.EMERGENCY) is None

    def test_readvertisement_heals_partitions(self):
        world = lossless_world()
        nodes = self._chain(world, count=3, spacing=200.0)
        # Third node starts out of range and drives back within 2 s.
        nodes[2].vehicle.position = Vec2(5000, 0)
        propagation = ModePropagation(world, nodes, repeats=5, repeat_interval_s=1.0)
        propagation.issue_order(nodes[0], OperatingMode.EMERGENCY)
        world.run_for(1.0)
        assert propagation.adoption_fraction(OperatingMode.EMERGENCY) < 1.0
        nodes[2].vehicle.position = Vec2(400, 0)  # back in range of node 1
        world.run_for(5.0)
        assert propagation.adoption_fraction(OperatingMode.EMERGENCY) == 1.0

    def test_two_orders_latest_wins(self):
        world = lossless_world()
        nodes = self._chain(world)
        propagation = ModePropagation(world, nodes)
        propagation.issue_order(nodes[0], OperatingMode.EMERGENCY)
        world.run_for(5.0)
        propagation.issue_order(nodes[0], OperatingMode.NORMAL)
        world.run_for(5.0)
        assert propagation.adoption_fraction(OperatingMode.NORMAL) == 1.0
        assert propagation.adoption_fraction(OperatingMode.EMERGENCY) == 0.0

    def test_requires_nodes(self):
        world = lossless_world()
        with pytest.raises(ConfigurationError):
            ModePropagation(world, [])

    def test_invalid_repeat_config(self):
        world = lossless_world()
        nodes = self._chain(world, count=1)
        with pytest.raises(ConfigurationError):
            ModePropagation(world, nodes, repeats=-1)
        with pytest.raises(ConfigurationError):
            ModePropagation(world, nodes, repeat_interval_s=0.0)
