"""One rewind for every process-global id counter a simulation run uses.

Ids feed sorted orders and RNG fork names, so a seeded run replays
byte-identically in one process only from the same counter values.
"""

from __future__ import annotations

from .core.tasks import reset_task_ids
from .dag.graph import reset_graph_ids
from .infra.rsu import reset_rsu_ids
from .mobility.vehicle import reset_vehicle_ids
from .net.messages import reset_message_ids


def reset_global_ids() -> None:
    """Rewind task, vehicle, message, graph and RSU ids to 1.

    Call it before building each fresh world, never while an existing
    world's objects are still in use.
    """
    reset_task_ids()
    reset_vehicle_ids()
    reset_message_ids()
    reset_graph_ids()
    reset_rsu_ids()
