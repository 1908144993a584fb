"""Infrastructure substrate: RSUs, base stations, central cloud, disasters."""

from .base_station import BaseStation
from .central_cloud import CentralCloud, CloudRequest
from .damage import DisasterModel
from .deployment import (
    coverage_fraction,
    deploy_base_station,
    deploy_rsus_on_grid,
    deploy_rsus_on_highway,
)
from .rsu import Rsu

__all__ = [
    "BaseStation",
    "CentralCloud",
    "CloudRequest",
    "DisasterModel",
    "Rsu",
    "coverage_fraction",
    "deploy_base_station",
    "deploy_rsus_on_grid",
    "deploy_rsus_on_highway",
]
