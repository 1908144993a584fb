"""Declarative campaign specifications.

A :class:`CampaignSpec` names a :class:`ScenarioMatrix` — architecture x
workload x fault profile x mobility model x seed list — plus per-cell
:class:`CellOverride` patches and the tolerance bands the reporter will
hold results to.  :meth:`CampaignSpec.expand` turns the matrix into a
flat list of seeded :class:`RunSpec` cells; everything downstream (the
orchestrator, the artifact store, the baseline keys) is a pure function
of those specs, which is what makes campaigns byte-reproducible across
worker counts.

Seeding discipline: each run's world seed is *derived* from the seed-list
entry plus the campaign name and cell key (:func:`~repro.sim.rng.derive_seed`),
so two cells sharing a seed-list entry still get independent RNG
substreams, and re-running any single cell in isolation reproduces it
exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ..errors import CampaignError
from ..sim.metrics import ToleranceBand
from ..sim.rng import derive_seed

ARCHITECTURES = ("stationary", "dynamic", "infrastructure", "tiered")
WORKLOADS = ("tasks", "serving", "dag")
FAULT_PROFILES = ("none", "light", "heavy", "backhaul")
MOBILITY_MODELS = ("stationary", "highway", "grid")

#: Which mobility models can host each architecture.  A stationary
#: (parking-lot) cloud is defined by its parked fleet; the RSU-anchored
#: architecture deploys RSUs along a highway; the tiered federation
#: anchors its local v-cloud on a parked fleet and adds a datacenter
#: tier behind a WAN backhaul.
COMPATIBLE_MOBILITY: Mapping[str, Tuple[str, ...]] = {
    "stationary": ("stationary",),
    "dynamic": ("highway", "grid"),
    "infrastructure": ("highway",),
    "tiered": ("stationary",),
}

#: Which fault profiles each architecture can absorb.  The "backhaul"
#: profile drives WAN-level faults (outage windows, loss bursts, jitter
#: spikes) through a :class:`~repro.faults.backhaul.BackhaulFaultDriver`
#: — only the tiered architecture has a backhaul to break.
COMPATIBLE_FAULTS: Mapping[str, Tuple[str, ...]] = {
    "stationary": ("none", "light", "heavy"),
    "dynamic": ("none", "light", "heavy"),
    "infrastructure": ("none", "light", "heavy"),
    "tiered": ("none", "light", "heavy", "backhaul"),
}


@dataclass(frozen=True)
class RunSpec:
    """One fully-determined campaign cell: everything a worker needs.

    A ``RunSpec`` is deliberately plain data — JSON-serializable, order-
    stable and hashable — because its canonical encoding *is* the
    content address of the run's artifact bundle.
    """

    campaign: str
    architecture: str
    workload: str
    fault_profile: str
    mobility: str
    seed: int
    run_length_s: float = 40.0
    drain_s: float = 15.0
    members: int = 8
    load_factor: float = 1.5
    graph_count: int = 4
    check_interval_s: float = 1.0

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise CampaignError(f"unknown architecture: {self.architecture!r}")
        if self.workload not in WORKLOADS:
            raise CampaignError(f"unknown workload: {self.workload!r}")
        if self.fault_profile not in FAULT_PROFILES:
            raise CampaignError(f"unknown fault profile: {self.fault_profile!r}")
        if self.mobility not in MOBILITY_MODELS:
            raise CampaignError(f"unknown mobility model: {self.mobility!r}")
        if self.mobility not in COMPATIBLE_MOBILITY[self.architecture]:
            raise CampaignError(
                f"mobility {self.mobility!r} cannot host architecture "
                f"{self.architecture!r}"
            )
        if self.fault_profile not in COMPATIBLE_FAULTS[self.architecture]:
            raise CampaignError(
                f"fault profile {self.fault_profile!r} does not apply to "
                f"architecture {self.architecture!r}"
            )
        if self.run_length_s <= 0 or self.drain_s < 0:
            raise CampaignError("run_length_s must be > 0 and drain_s >= 0")
        if self.members < 2:
            raise CampaignError("members must be >= 2")
        if self.load_factor <= 0:
            raise CampaignError("load_factor must be positive")

    @property
    def cell(self) -> str:
        """The seed-independent cell coordinate."""
        return (
            f"arch={self.architecture},wl={self.workload},"
            f"fault={self.fault_profile},mob={self.mobility}"
        )

    @property
    def key(self) -> str:
        """The unique per-run key used by artifacts and baselines."""
        return f"{self.cell}/seed={self.seed}"

    @property
    def world_seed(self) -> int:
        """The derived world seed — an independent substream per cell."""
        return derive_seed(self.seed, self.campaign, self.cell) % (2**31)

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise CampaignError(f"unknown RunSpec fields: {sorted(unknown)}")
        return cls(**dict(data))

    def digest(self) -> str:
        """Content address: sha256 of the canonical JSON encoding."""
        canonical = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class CellOverride:
    """A patch applied to every expanded run matching ``match``.

    ``match`` maps axis names (``architecture``, ``workload``,
    ``fault_profile``, ``mobility``, ``seed``) to required values;
    ``set`` maps :class:`RunSpec` field names to replacement values.
    Overrides apply in declaration order, later ones winning.
    """

    match: Tuple[Tuple[str, Any], ...]
    set: Tuple[Tuple[str, Any], ...]

    _AXES = ("architecture", "workload", "fault_profile", "mobility", "seed")

    @classmethod
    def create(
        cls, match: Mapping[str, Any], set: Mapping[str, Any]
    ) -> "CellOverride":
        for axis in match:
            if axis not in cls._AXES:
                raise CampaignError(f"override cannot match on {axis!r}")
        settable = {f.name for f in fields(RunSpec)} - {"campaign", "seed"}
        for name in set:
            if name not in settable:
                raise CampaignError(f"override cannot set {name!r}")
        return cls(
            match=tuple(sorted(match.items())), set=tuple(sorted(set.items()))
        )

    def matches(self, spec: RunSpec) -> bool:
        return all(getattr(spec, axis) == value for axis, value in self.match)

    def apply(self, spec: RunSpec) -> RunSpec:
        return replace(spec, **dict(self.set)) if self.matches(spec) else spec

    def as_dict(self) -> Dict[str, Any]:
        return {"match": dict(self.match), "set": dict(self.set)}


@dataclass(frozen=True)
class ScenarioMatrix:
    """The cartesian axes a campaign sweeps.

    Expansion skips (architecture, mobility) pairs that
    :data:`COMPATIBLE_MOBILITY` rules out — the skip count is surfaced
    through :meth:`CampaignSpec.expansion` so a matrix that silently
    collapsed to nothing is loud, not invisible.
    """

    architectures: Tuple[str, ...]
    workloads: Tuple[str, ...]
    fault_profiles: Tuple[str, ...]
    mobility_models: Tuple[str, ...] = ("stationary",)
    seeds: Tuple[int, ...] = (1,)

    def __post_init__(self) -> None:
        for name, values, universe in (
            ("architectures", self.architectures, ARCHITECTURES),
            ("workloads", self.workloads, WORKLOADS),
            ("fault_profiles", self.fault_profiles, FAULT_PROFILES),
            ("mobility_models", self.mobility_models, MOBILITY_MODELS),
        ):
            if not values:
                raise CampaignError(f"matrix axis {name} is empty")
            unknown = set(values) - set(universe)
            if unknown:
                raise CampaignError(f"unknown {name}: {sorted(unknown)}")
        if not self.seeds:
            raise CampaignError("matrix needs at least one seed")

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class CampaignSpec:
    """A named, declarative campaign: matrix + defaults + tolerances."""

    name: str
    matrix: ScenarioMatrix
    description: str = ""
    #: RunSpec field defaults applied to every cell before overrides.
    defaults: Dict[str, Any] = field(default_factory=dict)
    overrides: List[CellOverride] = field(default_factory=list)
    #: Per-metric tolerance bands for the reporter; keys are metric
    #: names, values ``{"rel_tol": ..., "abs_tol": ...}`` mappings.
    tolerances: Dict[str, ToleranceBand] = field(default_factory=dict)
    #: Default band for metrics without an explicit entry.
    default_tolerance: ToleranceBand = field(
        default_factory=lambda: ToleranceBand(rel_tol=0.05, abs_tol=1e-9)
    )
    #: Metric-name direction overrides for the reporter
    #: (``"higher"`` / ``"lower"`` / ``"both"`` = which drift is good).
    directions: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("campaign needs a name")
        settable = {f.name for f in fields(RunSpec)} - {"campaign", "seed"}
        unknown = set(self.defaults) - settable
        if unknown:
            raise CampaignError(f"unknown default fields: {sorted(unknown)}")
        for direction in self.directions.values():
            if direction not in ("higher", "lower", "both"):
                raise CampaignError(f"unknown direction: {direction!r}")

    # -- expansion -----------------------------------------------------------

    def expansion(self) -> Tuple[List[RunSpec], int]:
        """Expand the matrix into run specs; returns ``(runs, skipped)``.

        ``skipped`` counts (architecture, mobility) combinations the
        compatibility table ruled out.
        """
        runs: List[RunSpec] = []
        skipped = 0
        m = self.matrix
        for arch in m.architectures:
            for workload in m.workloads:
                for fault in m.fault_profiles:
                    if fault not in COMPATIBLE_FAULTS[arch]:
                        skipped += len(m.seeds) * len(m.mobility_models)
                        continue
                    for mobility in m.mobility_models:
                        if mobility not in COMPATIBLE_MOBILITY[arch]:
                            skipped += len(m.seeds)
                            continue
                        for seed in m.seeds:
                            spec = RunSpec(
                                campaign=self.name,
                                architecture=arch,
                                workload=workload,
                                fault_profile=fault,
                                mobility=mobility,
                                seed=seed,
                                **self.defaults,
                            )
                            for override in self.overrides:
                                spec = override.apply(spec)
                            runs.append(spec)
        if not runs:
            raise CampaignError(
                f"campaign {self.name!r} expanded to zero runs "
                f"({skipped} incompatible cells skipped)"
            )
        return runs, skipped

    def expand(self) -> List[RunSpec]:
        """The expanded run list (see :meth:`expansion`)."""
        return self.expansion()[0]

    # -- (de)serialization ---------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "matrix": self.matrix.as_dict(),
            "defaults": dict(self.defaults),
            "overrides": [o.as_dict() for o in self.overrides],
            "tolerances": {
                name: {"rel_tol": band.rel_tol, "abs_tol": band.abs_tol}
                for name, band in sorted(self.tolerances.items())
            },
            "default_tolerance": {
                "rel_tol": self.default_tolerance.rel_tol,
                "abs_tol": self.default_tolerance.abs_tol,
            },
            "directions": dict(self.directions),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        try:
            matrix_data = dict(data["matrix"])
        except KeyError:
            raise CampaignError("campaign spec needs a 'matrix' section") from None
        matrix = ScenarioMatrix(
            architectures=tuple(matrix_data.get("architectures", ())),
            workloads=tuple(matrix_data.get("workloads", ())),
            fault_profiles=tuple(matrix_data.get("fault_profiles", ())),
            mobility_models=tuple(matrix_data.get("mobility_models", ("stationary",))),
            seeds=tuple(int(s) for s in matrix_data.get("seeds", ())),
        )
        overrides = [
            CellOverride.create(dict(o.get("match", {})), dict(o.get("set", {})))
            for o in data.get("overrides", ())
        ]
        tolerances = {
            name: ToleranceBand(
                rel_tol=float(band.get("rel_tol", 0.0)),
                abs_tol=float(band.get("abs_tol", 0.0)),
            )
            for name, band in dict(data.get("tolerances", {})).items()
        }
        default_band = dict(data.get("default_tolerance", {}))
        return cls(
            name=str(data.get("name", "")),
            description=str(data.get("description", "")),
            matrix=matrix,
            defaults=dict(data.get("defaults", {})),
            overrides=overrides,
            tolerances=tolerances,
            default_tolerance=ToleranceBand(
                rel_tol=float(default_band.get("rel_tol", 0.05)),
                abs_tol=float(default_band.get("abs_tol", 1e-9)),
            ),
            directions=dict(data.get("directions", {})),
        )

    def to_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "CampaignSpec":
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise CampaignError(f"cannot load campaign spec {path!r}: {exc}") from exc
        return cls.from_dict(data)


__all__: Sequence[str] = (
    "ARCHITECTURES",
    "COMPATIBLE_FAULTS",
    "COMPATIBLE_MOBILITY",
    "FAULT_PROFILES",
    "MOBILITY_MODELS",
    "WORKLOADS",
    "CampaignSpec",
    "CellOverride",
    "RunSpec",
    "ScenarioMatrix",
)
