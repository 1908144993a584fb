"""Uniform-hash-grid spatial index for range queries.

Every topology question the simulator asks — who is in radio range, who
clusters with whom, is the cloud connected — reduces to "which items lie
within ``radius`` of this point?".  The seed answered it with brute-force
pairwise scans, which made dense scenes (exactly where the paper's
"stringent time constraints" bite) quadratic or worse.  A
:class:`SpatialGrid` hashes items into square cells of side
``cell_size_m`` (chosen ≈ the dominant radio range) so a range query only
inspects the cells overlapping the query disc.

Correctness contract
--------------------
``within()`` returns **exactly** the set a brute-force scan over the same
items would: candidates from the overlapping cells are filtered with the
identical ``Vec2.distance_to(...) <= radius`` comparison (boundary-exact
distances included), and results come back ordered by insertion sequence,
which matches the iteration order of the ``dict``-backed registries the
brute-force scans walked.  ``tests/test_sim_spatial.py`` pins the
equivalence with property tests over random snapshots.
"""

from __future__ import annotations

import math
from typing import Dict, Generic, Hashable, Iterator, List, Set, Tuple, TypeVar

from ..errors import SimulationError
from ..geometry import Vec2

ItemId = TypeVar("ItemId", bound=Hashable)
_Cell = Tuple[int, int]


class SpatialGrid(Generic[ItemId]):
    """A sparse uniform grid mapping item ids to 2-D positions.

    Cells are stored in a dict keyed by integer cell coordinates, so the
    grid covers an unbounded plane and only occupied cells cost memory.
    Queries whose disc spans more cells than are occupied fall back to
    scanning the occupied-cell dict, keeping huge radii (base stations)
    no worse than linear in the number of *occupied cells*.
    """

    def __init__(self, cell_size_m: float) -> None:
        if cell_size_m <= 0:
            raise SimulationError("cell_size_m must be positive")
        self.cell_size_m = cell_size_m
        self._cells: Dict[_Cell, Set[ItemId]] = {}
        self._positions: Dict[ItemId, Vec2] = {}
        self._cell_of_item: Dict[ItemId, _Cell] = {}
        self._seq: Dict[ItemId, int] = {}
        self._next_seq = 0

    # -- membership ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, item_id: ItemId) -> bool:
        return item_id in self._positions

    def ids(self) -> Iterator[ItemId]:
        """Iterate over item ids in insertion order."""
        return iter(self._positions)

    def position_of(self, item_id: ItemId) -> Vec2:
        """Return the last position recorded for ``item_id``."""
        try:
            return self._positions[item_id]
        except KeyError:
            raise SimulationError(f"unknown spatial item: {item_id!r}") from None

    # -- updates ------------------------------------------------------------

    def _cell_for(self, position: Vec2) -> _Cell:
        size = self.cell_size_m
        return (math.floor(position.x / size), math.floor(position.y / size))

    def insert(self, item_id: ItemId, position: Vec2) -> None:
        """Add a new item; raises if the id is already present."""
        if item_id in self._positions:
            raise SimulationError(f"spatial item already present: {item_id!r}")
        cell = self._cell_for(position)
        self._positions[item_id] = position
        self._cell_of_item[item_id] = cell
        self._cells.setdefault(cell, set()).add(item_id)
        self._seq[item_id] = self._next_seq
        self._next_seq += 1

    def move(self, item_id: ItemId, position: Vec2) -> None:
        """Record a new position for an existing item."""
        if item_id not in self._positions:
            raise SimulationError(f"unknown spatial item: {item_id!r}")
        old_cell = self._cell_of_item[item_id]
        new_cell = self._cell_for(position)
        self._positions[item_id] = position
        if new_cell != old_cell:
            members = self._cells[old_cell]
            members.discard(item_id)
            if not members:
                del self._cells[old_cell]
            self._cells.setdefault(new_cell, set()).add(item_id)
            self._cell_of_item[item_id] = new_cell

    def move_if_changed(self, item_id: ItemId, position: Vec2) -> bool:
        """Move the item if its position changed; returns True if it did.

        The identity fast path keeps re-reading an unmoved entity cheap:
        it keeps the same ``Vec2`` object, so the common case is a single
        ``is`` comparison.
        """
        stored = self._positions[item_id]
        if stored is position or stored == position:
            return False
        self.move(item_id, position)
        return True

    def remove(self, item_id: ItemId) -> None:
        """Remove an item; unknown ids are ignored (idempotent)."""
        if item_id not in self._positions:
            return
        cell = self._cell_of_item.pop(item_id)
        members = self._cells[cell]
        members.discard(item_id)
        if not members:
            del self._cells[cell]
        del self._positions[item_id]
        del self._seq[item_id]

    def clear(self) -> None:
        """Remove every item (sequence numbers keep increasing)."""
        self._cells.clear()
        self._positions.clear()
        self._cell_of_item.clear()
        self._seq.clear()

    # -- queries ------------------------------------------------------------

    def within(self, point: Vec2, radius: float) -> List[ItemId]:
        """Return ids of items with ``distance(point, item) <= radius``.

        The result is ordered by insertion sequence, i.e. exactly the
        order a brute-force scan over the insertion-ordered registry
        would produce.  ``radius < 0`` returns an empty list.
        """
        if radius < 0:
            return []
        size = self.cell_size_m
        cx0 = math.floor((point.x - radius) / size)
        cx1 = math.floor((point.x + radius) / size)
        cy0 = math.floor((point.y - radius) / size)
        cy1 = math.floor((point.y + radius) / size)
        positions = self._positions
        seq = self._seq
        hits: List[Tuple[int, ItemId]] = []
        span = (cx1 - cx0 + 1) * (cy1 - cy0 + 1)
        if span <= len(self._cells):
            for cx in range(cx0, cx1 + 1):
                for cy in range(cy0, cy1 + 1):
                    members = self._cells.get((cx, cy))
                    if not members:
                        continue
                    for item_id in members:
                        if point.distance_to(positions[item_id]) <= radius:
                            hits.append((seq[item_id], item_id))
        else:
            # Query disc spans more cells than exist: walk occupied cells.
            for (cx, cy), members in self._cells.items():
                if cx0 <= cx <= cx1 and cy0 <= cy <= cy1:
                    for item_id in members:
                        if point.distance_to(positions[item_id]) <= radius:
                            hits.append((seq[item_id], item_id))
        hits.sort()
        return [item_id for _seq, item_id in hits]

    def neighbors_of(self, item_id: ItemId, radius: float) -> List[ItemId]:
        """``within()`` around an item's own position, excluding itself."""
        point = self.position_of(item_id)
        return [other for other in self.within(point, radius) if other != item_id]


def grid_from_positions(
    positions: Dict[ItemId, Vec2], cell_size_m: float
) -> "SpatialGrid[ItemId]":
    """Build a throw-away grid from an id→position snapshot."""
    grid = SpatialGrid(cell_size_m)
    for item_id, position in positions.items():
        grid.insert(item_id, position)
    return grid
