"""Mobility substrate: vehicles, roads, traffic models, sensors, dwell."""

from .dwell import DwellEstimate, DwellEstimator, link_lifetime, zone_residence_time
from .equipment import AutomationLevel, OnboardEquipment, RadioKind, SensorKind
from .models import (
    HighwayModel,
    ManhattanModel,
    MobilityModel,
    ParkingLotModel,
    StationaryModel,
)
from .road import Highway, ManhattanGrid, ParkingLot
from .sensors import GpsSensor, Radar, RadarContact, SensorReading, SensorSuite, Speedometer
from .trace import MobilityTrace, TracePoint, TraceRecorder, TraceReplayModel
from .vehicle import Vehicle

__all__ = [
    "AutomationLevel",
    "DwellEstimate",
    "DwellEstimator",
    "GpsSensor",
    "Highway",
    "HighwayModel",
    "ManhattanGrid",
    "ManhattanModel",
    "MobilityModel",
    "MobilityTrace",
    "OnboardEquipment",
    "ParkingLot",
    "ParkingLotModel",
    "Radar",
    "RadarContact",
    "RadioKind",
    "SensorKind",
    "SensorReading",
    "SensorSuite",
    "Speedometer",
    "StationaryModel",
    "TracePoint",
    "TraceRecorder",
    "TraceReplayModel",
    "Vehicle",
    "link_lifetime",
    "zone_residence_time",
]
