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
identical ``math.hypot(px - x, py - y) <= radius`` comparison that
``Vec2.distance_to(...) <= radius`` evaluates (boundary-exact distances
included), and results come back ordered by insertion sequence, which
matches the iteration order of the ``dict``-backed registries the
brute-force scans walked.  That comparison rounds, so an item a few
ulps outside the disc can pass it; the query therefore visits the cells
of a disc widened by more than that rounding.  ``tests/test_sim_spatial.py``
pins the equivalence with property tests over random snapshots.

Each cell maps its item ids to ``(seq, x, y)`` records, the insertion
sequence number and the coordinates of the recorded position, so a
query filters and orders its hits from the records alone, without
touching a ``Vec2`` or another dict.  Non-finite radii get the
brute-force answer too: an infinite radius walks every occupied cell
(every finite position is in range), and a NaN radius, which no
distance is ``<=``, returns ``[]``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Generic, Hashable, Iterable, Iterator, List, Tuple, TypeVar

from ..errors import SimulationError
from ..geometry import Vec2

ItemId = TypeVar("ItemId", bound=Hashable)
_Cell = Tuple[int, int]
# (insertion sequence number, x, y) of one item's recorded position.
_Record = Tuple[int, float, float]
_NO_RECORDS: Dict[Any, _Record] = {}


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
        self._cells: Dict[_Cell, Dict[ItemId, _Record]] = {}
        self._positions: Dict[ItemId, Vec2] = {}
        self._cell_of_item: Dict[ItemId, _Cell] = {}
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
        record = (self._next_seq, position.x, position.y)
        self._cells.setdefault(cell, {})[item_id] = record
        self._next_seq += 1

    def move(self, item_id: ItemId, position: Vec2) -> None:
        """Record a new position for an existing item."""
        if item_id not in self._positions:
            raise SimulationError(f"unknown spatial item: {item_id!r}")
        old_cell = self._cell_of_item[item_id]
        new_cell = self._cell_for(position)
        self._positions[item_id] = position
        members = self._cells[old_cell]
        record = (members[item_id][0], position.x, position.y)
        if new_cell == old_cell:
            members[item_id] = record
        else:
            del members[item_id]
            if not members:
                del self._cells[old_cell]
            self._cells.setdefault(new_cell, {})[item_id] = record
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
        del members[item_id]
        if not members:
            del self._cells[cell]
        del self._positions[item_id]

    def clear(self) -> None:
        """Remove every item (sequence numbers keep increasing)."""
        self._cells.clear()
        self._positions.clear()
        self._cell_of_item.clear()

    # -- queries ------------------------------------------------------------

    def within(self, point: Vec2, radius: float) -> List[ItemId]:
        """Return ids of items with ``distance(point, item) <= radius``.

        The result is ordered by insertion sequence, i.e. exactly the
        order a brute-force scan over the insertion-ordered registry
        would produce.  A negative or NaN radius returns an empty list.
        """
        if not radius >= 0:
            return []
        cells = self._cells
        px = point.x
        py = point.y
        size = self.cell_size_m
        # The hit test rounds, so an item up to a few ulps past the disc
        # can pass it: widen the span by more than that rounding (2e-15
        # of the magnitudes' sum is at least nine ulps of the largest).
        reach = radius + (abs(px) + abs(py) + radius) * 2e-15
        groups: Iterable[Dict[ItemId, _Record]]
        try:
            cx0 = math.floor((px - reach) / size)
            cx1 = math.floor((px + reach) / size)
            cy0 = math.floor((py - reach) / size)
            cy1 = math.floor((py + reach) / size)
        except (OverflowError, ValueError):
            # A non-finite bound (an infinite radius, or a point off the
            # finite plane): the disc's cell span is unbounded.
            groups = cells.values()
        else:
            if (cx1 - cx0 + 1) * (cy1 - cy0 + 1) <= len(cells):
                groups = [
                    cells.get((cx, cy), _NO_RECORDS)
                    for cx in range(cx0, cx1 + 1)
                    for cy in range(cy0, cy1 + 1)
                ]
            else:
                # Query disc spans more cells than exist: walk occupied cells.
                groups = [
                    members
                    for (cx, cy), members in cells.items()
                    if cx0 <= cx <= cx1 and cy0 <= cy <= cy1
                ]
        hypot = math.hypot
        hits: List[Tuple[int, ItemId]] = []
        for members in groups:
            for item_id, (seq, x, y) in members.items():
                if hypot(px - x, py - y) <= radius:
                    hits.append((seq, item_id))
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
