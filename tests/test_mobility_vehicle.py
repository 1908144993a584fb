"""Tests for vehicles, equipment and kinematics."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.geometry import Vec2
from repro.mobility import (
    AutomationLevel,
    OnboardEquipment,
    RadioKind,
    SensorKind,
    Vehicle,
)


class TestAutomationLevel:
    def test_six_levels(self):
        assert len(AutomationLevel) == 6

    def test_is_autonomous_threshold(self):
        assert not AutomationLevel.PARTIAL_AUTOMATION.is_autonomous
        assert AutomationLevel.CONDITIONAL_AUTOMATION.is_autonomous
        assert AutomationLevel.FULL_AUTOMATION.is_autonomous

    def test_ordering(self):
        assert AutomationLevel.NO_AUTOMATION < AutomationLevel.FULL_AUTOMATION


class TestOnboardEquipment:
    def test_defaults(self):
        equipment = OnboardEquipment()
        assert equipment.compute_mips > 0
        assert equipment.has_radio(RadioKind.DSRC)

    def test_invalid_compute(self):
        with pytest.raises(ConfigurationError):
            OnboardEquipment(compute_mips=0)

    @pytest.mark.parametrize("field_name", ["compute_mips", "bandwidth_bps"])
    def test_nan_rate_rejected(self, field_name):
        # NaN passes a ``<= 0`` check; it must not reach broker election.
        with pytest.raises(ConfigurationError):
            OnboardEquipment(**{field_name: math.nan})

    def test_nan_storage_rejected(self):
        # NaN passes a ``< 0`` check.
        with pytest.raises(ConfigurationError):
            OnboardEquipment(storage_bytes=math.nan)

    def test_for_level_scales_compute(self):
        low = OnboardEquipment.for_level(AutomationLevel.DRIVER_ASSISTANCE)
        high = OnboardEquipment.for_level(AutomationLevel.FULL_AUTOMATION)
        assert high.compute_mips > low.compute_mips

    def test_for_level_sensor_richness_monotone(self):
        previous = -1
        for level in AutomationLevel:
            sensors = len(OnboardEquipment.for_level(level).sensors)
            assert sensors >= previous
            previous = sensors

    def test_full_automation_has_lidar(self):
        equipment = OnboardEquipment.for_level(AutomationLevel.FULL_AUTOMATION)
        assert equipment.has_sensor(SensorKind.LIDAR)

    def test_cellular_flag(self):
        equipment = OnboardEquipment.for_level(AutomationLevel.HIGH_AUTOMATION, cellular=True)
        assert equipment.has_radio(RadioKind.CELLULAR)

    def test_frozen(self):
        equipment = OnboardEquipment()
        with pytest.raises(Exception):
            equipment.compute_mips = 1  # type: ignore[misc]


class TestVehicle:
    def test_unique_ids(self):
        assert Vehicle().vehicle_id != Vehicle().vehicle_id

    def test_advance_moves_along_heading(self):
        vehicle = Vehicle(position=Vec2(0, 0), speed_mps=10.0, heading_rad=0.0)
        vehicle.advance(2.0)
        assert vehicle.position.x == pytest.approx(20.0)
        assert vehicle.position.y == pytest.approx(0.0)

    def test_advance_north(self):
        vehicle = Vehicle(position=Vec2(0, 0), speed_mps=5.0, heading_rad=math.pi / 2)
        vehicle.advance(1.0)
        assert vehicle.position.y == pytest.approx(5.0)

    def test_advance_negative_dt_raises(self):
        with pytest.raises(ValueError):
            Vehicle().advance(-1.0)

    def test_parked_vehicle_does_not_move(self):
        vehicle = Vehicle(position=Vec2(1, 1), speed_mps=10.0)
        vehicle.park()
        vehicle.advance(5.0)
        assert vehicle.position == Vec2(1, 1)
        assert vehicle.speed_mps == 0.0

    def test_unpark_restores_motion(self):
        vehicle = Vehicle()
        vehicle.park()
        vehicle.unpark(speed_mps=8.0, heading_rad=0.5)
        assert not vehicle.parked
        assert vehicle.speed_mps == 8.0

    def test_velocity_vector(self):
        vehicle = Vehicle(speed_mps=10.0, heading_rad=0.0)
        assert vehicle.velocity.x == pytest.approx(10.0)

    def test_distance_and_relative_speed(self):
        a = Vehicle(position=Vec2(0, 0), speed_mps=10, heading_rad=0)
        b = Vehicle(position=Vec2(30, 40), speed_mps=10, heading_rad=math.pi)
        assert a.distance_to(b) == pytest.approx(50.0)
        assert a.relative_speed(b) == pytest.approx(20.0)

    def test_heading_alignment_same_direction(self):
        a = Vehicle(heading_rad=0.3)
        b = Vehicle(heading_rad=0.3)
        assert a.heading_alignment(b) == pytest.approx(1.0)

    def test_heading_alignment_opposite(self):
        a = Vehicle(heading_rad=0.0)
        b = Vehicle(heading_rad=math.pi)
        assert a.heading_alignment(b) == pytest.approx(0.0)

    def test_closest_approach_head_on(self):
        a = Vehicle(position=Vec2(0, 0), speed_mps=10, heading_rad=0.0)
        b = Vehicle(position=Vec2(100, 0), speed_mps=10, heading_rad=math.pi)
        # Closing speed 20 m/s over a 100 m gap -> closest at t = 5 s.
        t_star = a.time_to_closest_approach(b)
        assert t_star == pytest.approx(5.0)

    def test_closest_approach_parallel_is_none(self):
        a = Vehicle(position=Vec2(0, 0), speed_mps=10, heading_rad=0.0)
        b = Vehicle(position=Vec2(0, 50), speed_mps=10, heading_rad=0.0)
        assert a.time_to_closest_approach(b) is None

    def test_closest_approach_separating_clamped(self):
        a = Vehicle(position=Vec2(0, 0), speed_mps=10, heading_rad=math.pi)
        b = Vehicle(position=Vec2(100, 0), speed_mps=10, heading_rad=0.0)
        assert a.time_to_closest_approach(b) == 0.0

    @given(
        st.floats(min_value=0, max_value=50),
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.floats(min_value=0, max_value=10),
    )
    def test_advance_distance_matches_speed(self, speed, heading, dt):
        vehicle = Vehicle(position=Vec2(0, 0), speed_mps=speed, heading_rad=heading)
        vehicle.advance(dt)
        assert vehicle.position.norm() == pytest.approx(speed * dt, abs=1e-6)
