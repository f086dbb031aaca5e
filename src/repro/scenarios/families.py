"""Scenario families: named, serializable families of experiment setups.

A *scenario family* is a named generator of :class:`ScenarioVariant` objects
-- concrete ``(ScenarioConfig, WorkloadSpec)`` pairs positioned on a sweep
axis (cluster count, node density, failure fraction, ...).  Families are
pure functions of a base :class:`~repro.experiments.config.ScenarioConfig`,
so one definition serves every scale: the same ``density`` family produces
a seconds-long smoke sweep or the paper-scale study depending on the base
it is given.  Because a variant is nothing but a ``ScenarioConfig`` (which
serializes into :class:`~repro.orchestrator.jobs.RunJob` digests), every
family is sweepable, cacheable, and resumable through the orchestrator with
no per-family execution code.

Three built-in families reproduce the paper's own setup at its three
scales; the rest open evaluation axes the paper never explored:

* ``clustered`` -- hot-spot deployments (sweep over the number of clusters),
* ``corridor`` -- noisy multi-hop chains (sweep over the chain depth),
* ``density`` -- node count swept at fixed area,
* ``size`` -- area and node count grown together at fixed density,
* ``radio-profiles`` -- the paper's referenced radios (ideal, MICA2
  typical/worst, ZebraNet) swept by wake-up latency,
* ``churn`` -- scheduled mid-run node failures swept by failure fraction,

and -- via the pluggable propagation layer -- channel realism beyond the
paper's unit disk:

* ``shadowed`` -- log-distance path loss with log-normal shadowing, swept
  by the shadowing sigma (link dropout grows with sigma),
* ``capture`` -- SINR-based reception, swept by the capture threshold
  (lower threshold = more frames survive collisions),
* ``bursty`` -- Gilbert-Elliott bursty/asymmetric link loss, swept by the
  bad-state drop probability,
* ``mobile`` -- random-waypoint node mobility, swept by node speed.

They are the :data:`FAMILIES` table at the bottom of this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from ..experiments.config import ScenarioConfig, paper_scale, reduced_scale, smoke_scale
from ..experiments.scenarios import rate_sweep_workload
from ..net.loss import LossSpec
from ..net.mobility import MobilitySpec
from ..net.propagation import PropagationSpec
from ..net.topology import FailureSchedule, TopologySpec
from ..query.workload import WorkloadSpec
from ..radio.energy import IDEAL, MICA2_TYPICAL, MICA2_WORST, ZEBRANET


@dataclass(frozen=True)
class ScenarioVariant:
    """One concrete point of a scenario family's sweep."""

    #: Human-readable point label, e.g. ``"clusters=3"`` or ``"fail=20%"``.
    label: str
    #: Position on the family's sweep axis (for figures and tables).
    x: float
    #: The fully-specified scenario; hashes into job digests as-is.
    scenario: ScenarioConfig
    #: The query workload run against the scenario.
    workload: WorkloadSpec


#: Builder signature: base scale in, concrete variants out.
VariantBuilder = Callable[[ScenarioConfig], List[ScenarioVariant]]


@dataclass(frozen=True)
class ScenarioFamily:
    """A named scenario generator."""

    name: str
    description: str
    #: Axis label of the sweep the family's variants span.
    x_label: str
    builder: VariantBuilder = field(repr=False)

    def variants(self, base: ScenarioConfig) -> List[ScenarioVariant]:
        """Concrete variants of this family derived from ``base``."""
        built = self.builder(base)
        if not built:
            raise ValueError(f"scenario family {self.name!r} produced no variants")
        return built


def get_family(name: str) -> ScenarioFamily:
    """The built-in family called ``name`` (raises ``KeyError`` if absent)."""
    try:
        return FAMILIES[name]
    except KeyError:
        known = ", ".join(family_names())
        raise KeyError(f"unknown scenario family {name!r}; known families: {known}") from None


def family_names() -> List[str]:
    """Names of every built-in family, sorted."""
    return sorted(FAMILIES)


def all_families() -> List[ScenarioFamily]:
    """Every built-in family, sorted by name."""
    return [FAMILIES[name] for name in family_names()]


#: Base rate (Hz) of the default one-query-per-class workload families run.
DEFAULT_FAMILY_BASE_RATE = 2.0

#: Cluster counts swept by the ``clustered`` family.
CLUSTER_COUNTS = (2, 3, 4)

#: Chain depths (approximate hop counts) swept by the ``corridor`` family.
CORRIDOR_HOPS = (3, 5, 7)

#: Node-count factors swept by the ``density`` family (area fixed).
DENSITY_FACTORS = (0.75, 1.0, 1.5, 2.0)

#: Linear-dimension factors swept by the ``size`` family (density fixed).
SIZE_FACTORS = (0.75, 1.0, 1.25, 1.5)

#: Failure fractions swept by the ``churn`` family.
CHURN_FRACTIONS = (0.0, 0.1, 0.2, 0.3)

#: Radio power profiles swept by the ``radio-profiles`` family.
RADIO_PROFILES = (IDEAL, MICA2_TYPICAL, MICA2_WORST, ZEBRANET)

#: Shadowing sigmas (dB) swept by the ``shadowed`` family; 0 dB is the
#: unit-disk anchor point every sweep can be compared against.
SHADOWING_SIGMAS_DB = (0.0, 2.0, 4.0, 6.0)

#: Capture thresholds (dB) swept by the ``capture`` family.
CAPTURE_THRESHOLDS_DB = (1.0, 6.0, 10.0)

#: Bad-state drop probabilities swept by the ``bursty`` family.
BURSTY_BAD_LOSS = (0.2, 0.5, 0.8)

#: Node speeds (m/s) swept by the ``mobile`` family.
MOBILE_SPEEDS_MPS = (0.5, 1.0, 2.0)


def _workload() -> WorkloadSpec:
    return rate_sweep_workload(DEFAULT_FAMILY_BASE_RATE)


def paper_family(base: ScenarioConfig) -> List[ScenarioVariant]:
    scenario = paper_scale()
    return [
        ScenarioVariant(
            label="paper-80n", x=float(scenario.num_nodes), scenario=scenario, workload=_workload()
        )
    ]


def reduced_family(base: ScenarioConfig) -> List[ScenarioVariant]:
    scenario = reduced_scale()
    return [
        ScenarioVariant(
            label="reduced-36n", x=float(scenario.num_nodes), scenario=scenario, workload=_workload()
        )
    ]


def smoke_family(base: ScenarioConfig) -> List[ScenarioVariant]:
    scenario = smoke_scale()
    return [
        ScenarioVariant(
            label="smoke-12n", x=float(scenario.num_nodes), scenario=scenario, workload=_workload()
        )
    ]


def clustered_family(base: ScenarioConfig) -> List[ScenarioVariant]:
    variants = []
    for clusters in CLUSTER_COUNTS:
        spec = TopologySpec.make(
            "clustered", clusters=clusters, cluster_radius=0.4 * base.comm_range
        )
        variants.append(
            ScenarioVariant(
                label=f"clusters={clusters}",
                x=float(clusters),
                scenario=base.with_overrides(topology=spec),
                workload=_workload(),
            )
        )
    return variants


def corridor_family(base: ScenarioConfig) -> List[ScenarioVariant]:
    variants = []
    width = 0.4 * base.comm_range
    for hops in CORRIDOR_HOPS:
        length = max(hops * base.comm_range * 0.8, width)
        variants.append(
            ScenarioVariant(
                label=f"hops={hops}",
                x=float(hops),
                scenario=base.with_overrides(
                    topology=TopologySpec.make("corridor"),
                    area=(length, width),
                    # The root sits mid-chain; let the tree span both arms.
                    max_distance_from_root=None,
                ),
                workload=_workload(),
            )
        )
    return variants


def density_family(base: ScenarioConfig) -> List[ScenarioVariant]:
    variants = []
    for factor in DENSITY_FACTORS:
        num_nodes = max(4, round(base.num_nodes * factor))
        variants.append(
            ScenarioVariant(
                label=f"n={num_nodes}",
                x=float(num_nodes),
                scenario=base.with_overrides(num_nodes=num_nodes),
                workload=_workload(),
            )
        )
    return variants


def size_family(base: ScenarioConfig) -> List[ScenarioVariant]:
    variants = []
    width, height = base.area
    for factor in SIZE_FACTORS:
        num_nodes = max(4, round(base.num_nodes * factor * factor))
        variants.append(
            ScenarioVariant(
                label=f"n={num_nodes}",
                x=float(num_nodes),
                scenario=base.with_overrides(
                    num_nodes=num_nodes, area=(width * factor, height * factor)
                ),
                workload=_workload(),
            )
        )
    return variants


def radio_profiles_family(base: ScenarioConfig) -> List[ScenarioVariant]:
    variants = []
    for profile in RADIO_PROFILES:
        variants.append(
            ScenarioVariant(
                label=profile.name,
                x=profile.t_off_to_on * 1000.0,
                scenario=base.with_overrides(power_profile=profile),
                workload=_workload(),
            )
        )
    return variants


def shadowed_family(base: ScenarioConfig) -> List[ScenarioVariant]:
    variants = []
    for sigma in SHADOWING_SIGMAS_DB:
        spec = PropagationSpec.make("shadowing", sigma_db=sigma)
        variants.append(
            ScenarioVariant(
                label=f"sigma={sigma:g}dB",
                x=sigma,
                scenario=base.with_overrides(propagation=spec),
                workload=_workload(),
            )
        )
    return variants


def capture_family(base: ScenarioConfig) -> List[ScenarioVariant]:
    variants = []
    for threshold in CAPTURE_THRESHOLDS_DB:
        spec = PropagationSpec.make("sinr", capture_db=threshold)
        variants.append(
            ScenarioVariant(
                label=f"capture={threshold:g}dB",
                x=threshold,
                scenario=base.with_overrides(propagation=spec),
                workload=_workload(),
            )
        )
    return variants


def bursty_family(base: ScenarioConfig) -> List[ScenarioVariant]:
    variants = []
    for loss_bad in BURSTY_BAD_LOSS:
        spec = LossSpec.make("gilbert-elliott", loss_bad=loss_bad)
        variants.append(
            ScenarioVariant(
                label=f"bad={round(loss_bad * 100)}%",
                x=loss_bad,
                scenario=base.with_overrides(loss=spec),
                workload=_workload(),
            )
        )
    return variants


def mobile_family(base: ScenarioConfig) -> List[ScenarioVariant]:
    variants = []
    for speed in MOBILE_SPEEDS_MPS:
        spec = MobilitySpec.make(speed=speed)
        variants.append(
            ScenarioVariant(
                label=f"speed={speed:g}mps",
                x=speed,
                scenario=base.with_overrides(mobility=spec),
                workload=_workload(),
            )
        )
    return variants


def churn_family(base: ScenarioConfig) -> List[ScenarioVariant]:
    variants = []
    for fraction in CHURN_FRACTIONS:
        schedule = None
        if fraction > 0.0:
            schedule = FailureSchedule(
                fraction=fraction,
                window=(0.25 * base.duration, 0.75 * base.duration),
            )
        variants.append(
            ScenarioVariant(
                label=f"fail={round(fraction * 100)}%",
                x=fraction * 100.0,
                scenario=base.with_overrides(failure_schedule=schedule),
                workload=_workload(),
            )
        )
    return variants


#: Every built-in family, by name.  Plain data: a lookup needs no import
#: side effect, and a caller with a family of its own passes the
#: :class:`ScenarioFamily` itself to :func:`~repro.scenarios.run.run_family`.
FAMILIES: Dict[str, ScenarioFamily] = {
    family.name: family
    for family in (
        ScenarioFamily(
            "paper",
            "the paper's Section 5 setup: 80 nodes uniform-random in 500x500 m "
            "(always full scale, regardless of the base)",
            x_label="num_nodes",
            builder=paper_family,
        ),
        ScenarioFamily(
            "reduced",
            "the reduced benchmark scale: 36 nodes, 40 s runs (ignores the base scale)",
            x_label="num_nodes",
            builder=reduced_family,
        ),
        ScenarioFamily(
            "smoke",
            "the seconds-long functional-test scale: 12 nodes, 12 s runs (ignores the base scale)",
            x_label="num_nodes",
            builder=smoke_family,
        ),
        ScenarioFamily(
            "clustered",
            "hot-spot deployments: nodes gathered around 2-4 cluster centres with "
            "sparse inter-cluster bridges",
            x_label="clusters",
            builder=clustered_family,
        ),
        ScenarioFamily(
            "corridor",
            "noisy multi-hop chains along an elongated strip (pipelines, tunnels); "
            "sweeps the chain depth",
            x_label="hops",
            builder=corridor_family,
        ),
        ScenarioFamily(
            "density",
            "node-density sweep: 0.75x to 2x the base node count in the unchanged area",
            x_label="num_nodes",
            builder=density_family,
        ),
        ScenarioFamily(
            "size",
            "network-size sweep: area and node count grown together at constant density",
            x_label="num_nodes",
            builder=size_family,
        ),
        ScenarioFamily(
            "radio-profiles",
            "the paper's referenced radios (ideal, MICA2 typical/worst, ZebraNet) "
            "swept by wake-up latency",
            x_label="wakeup_ms",
            builder=radio_profiles_family,
        ),
        ScenarioFamily(
            "shadowed",
            "log-distance path loss with log-normal shadowing; links near the "
            "range edge fade out as sigma grows (propagation layer)",
            x_label="sigma_db",
            builder=shadowed_family,
        ),
        ScenarioFamily(
            "capture",
            "SINR-based reception: a frame survives a collision when its SINR "
            "clears the capture threshold (propagation layer)",
            x_label="capture_db",
            builder=capture_family,
        ),
        ScenarioFamily(
            "bursty",
            "Gilbert-Elliott bursty/asymmetric link loss swept by the bad-state "
            "drop probability (propagation layer)",
            x_label="loss_bad",
            builder=bursty_family,
        ),
        ScenarioFamily(
            "mobile",
            "random-waypoint node mobility swept by node speed; the routing tree "
            "is built from the initial placement (propagation layer)",
            x_label="speed_mps",
            builder=mobile_family,
        ),
        ScenarioFamily(
            "churn",
            "scheduled mid-run node failures: 0-30% of the tree's non-root nodes "
            "fail permanently between 25% and 75% of the run",
            x_label="failed_pct",
            builder=churn_family,
        ),
    )
}
