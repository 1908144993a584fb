"""The one source of process-global simulation ids.

Every id the package mints (tasks, vehicles, messages, graphs, RSUs,
base stations, federation splits, offload exchanges, sensing queries,
trust reports, pseudonyms, tokens, keys, ABE material, capabilities and
data-policy packages) draws its number here, from one counter per kind.
Ids feed sorted orders and RNG fork names, so a seeded run replays
byte-identically in one process only from the same counter values; a
single :func:`reset_global_ids` rewinds every kind at once.
"""

from __future__ import annotations

import collections
import itertools
from typing import DefaultDict, Iterator

_counters: DefaultDict[str, Iterator[int]] = collections.defaultdict(
    lambda: itertools.count(1)
)


def next_id(kind: str) -> int:
    """Draw the next number of ``kind``'s counter; the first draw is 1."""
    return next(_counters[kind])


def reset_global_ids() -> None:
    """Rewind every id counter to 1.

    After a rewind ids repeat: ``task-1`` and ``veh-1`` come again, and
    so do the ABE master secrets and ``KeyPair`` private tokens derived
    from ids.  Call it only between worlds, before building a fresh one,
    never while an existing world's objects or keys are still in use.
    """
    _counters.clear()
