"""Tests for the pluggable propagation layer.

Covers, in order:

* spec plumbing -- validation, serialization round trips, digest
  distinctness of propagation/loss sweeps,
* **golden parity** -- an explicitly-constructed unit-disk strategy
  reproduces ``tests/golden/hotpath_golden.json`` (metrics cells and trace
  digests) exactly, and zero-sigma shadowing degrades to the identical
  behaviour,
* physics -- shadowing link budgets and gain caching, SINR capture on a
  crafted three-node line, Gilbert-Elliott burstiness and asymmetry,
* determinism -- run-twice identity and parallel == serial bit-for-bit for
  one SINR cell and one bursty-loss cell.
"""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path
from typing import ClassVar

import pytest

from repro.experiments.config import ScenarioConfig, smoke_scale
from repro.experiments.runner import run_single
from repro.net.channel import WirelessChannel
from repro.net.loss import GilbertElliottLoss, LossSpec, build_loss_from_spec
from repro.net.packet import Packet
from repro.net.propagation import (
    BOTH_LOST,
    CAPTURE_NEW,
    KEEP_LOCKED,
    LogDistanceShadowing,
    PropagationSpec,
    SinrCapture,
    UnitDiskPropagation,
    build_propagation_from_spec,
)
from repro.net.topology import Topology
from repro.orchestrator.api import ExperimentSpec, run_sweep
from repro.orchestrator.codec import decode, encode
from repro.orchestrator.jobs import RunJob
from repro.query.workload import WorkloadSpec
from repro.radio.radio import Radio
from repro.radio.energy import IDEAL
from repro.sim.engine import Simulator

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# The regeneration script doubles as the snapshot methodology; loading it by
# path (as test_hotpath_determinism does) keeps this test and the committed
# golden in lock-step.
_spec = importlib.util.spec_from_file_location(
    "make_hotpath_golden_for_propagation", GOLDEN_DIR / "make_hotpath_golden.py"
)
golden_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_tool)


def _rate_queries(scenario, protocol, seed):
    return RunJob(
        scenario=scenario,
        protocol=protocol,
        workload=WorkloadSpec(base_rate_hz=2.0),
        seed=seed,
    ).resolve_queries()


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

class TestSpecs:
    def test_propagation_spec_normalizes_and_hashes(self) -> None:
        a = PropagationSpec.make("shadowing", sigma_db=4, exponent=3.0)
        b = PropagationSpec(kind="shadowing", params=(("exponent", 3), ("sigma_db", 4.0)))
        assert a == b
        assert hash(a) == hash(b)
        assert a.param("sigma_db", 0.0) == 4.0
        assert a.param("missing", 7.5) == 7.5
        assert PropagationSpec().is_unit_disk
        assert not a.is_unit_disk

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: PropagationSpec(kind="tachyon"),
            lambda: LossSpec(kind="entropy"),
        ],
    )
    def test_unknown_kinds_rejected(self, factory) -> None:
        with pytest.raises(ValueError):
            factory()

    def test_spec_round_trips(self) -> None:
        propagation = PropagationSpec.make("sinr", capture_db=6.0, sigma_db=2.0)
        loss = LossSpec.make("gilbert-elliott", loss_bad=0.5)
        assert decode(PropagationSpec, encode(propagation)) == propagation
        assert decode(LossSpec, encode(loss)) == loss

        scenario = smoke_scale().with_overrides(propagation=propagation, loss=loss)
        assert decode(ScenarioConfig, encode(scenario)) == scenario

    def test_propagation_axes_produce_distinct_digests(self) -> None:
        base = smoke_scale()
        scenarios = [
            base,
            base.with_overrides(propagation=PropagationSpec.make("shadowing", sigma_db=2.0)),
            base.with_overrides(propagation=PropagationSpec.make("shadowing", sigma_db=4.0)),
            base.with_overrides(propagation=PropagationSpec.make("sinr", capture_db=6.0)),
            base.with_overrides(loss=LossSpec.make("gilbert-elliott", loss_bad=0.5)),
        ]
        digests = {
            RunJob(
                scenario=scenario,
                protocol="DTS-SS",
                seed=1,
                workload=WorkloadSpec(base_rate_hz=2.0),
            ).digest
            for scenario in scenarios
        }
        assert len(digests) == len(scenarios)

    def test_build_dispatch(self) -> None:
        assert isinstance(build_propagation_from_spec(PropagationSpec()), UnitDiskPropagation)
        shadow = build_propagation_from_spec(
            PropagationSpec.make("shadowing", sigma_db=3.0, exponent=2.5), seed=7
        )
        assert isinstance(shadow, LogDistanceShadowing)
        assert shadow.sigma_db == 3.0 and shadow.exponent == 2.5
        sinr = build_propagation_from_spec(
            PropagationSpec.make("sinr", capture_db=8.0), seed=7
        )
        assert isinstance(sinr, SinrCapture)
        assert sinr.capture_db == 8.0
        assert build_loss_from_spec(LossSpec()) is None
        assert isinstance(
            build_loss_from_spec(LossSpec.make("gilbert-elliott"), seed=3),
            GilbertElliottLoss,
        )


# ---------------------------------------------------------------------------
# Golden parity: the unit-disk strategy IS the paper's channel
# ---------------------------------------------------------------------------

class TestUnitDiskGoldenParity:
    """The explicit unit-disk strategy reproduces the hot-path goldens."""

    @pytest.fixture(scope="class")
    def golden(self) -> dict:
        return json.loads((GOLDEN_DIR / "hotpath_golden.json").read_text())

    def test_explicit_unit_disk_reproduces_golden_metrics(self, golden) -> None:
        for key in ("smoke/DTS-SS/seed=1", "reduced/DTS-SS/seed=1", "reduced/PSM/seed=1"):
            scale, protocol, seed_part = key.split("/")
            seed = int(seed_part.split("=")[1])
            scenario = golden_tool.SCALES[scale].scenario().with_overrides(
                propagation=PropagationSpec(kind="unit-disk"), loss=LossSpec(kind="none")
            )
            queries = _rate_queries(scenario, protocol, seed)
            metrics, _ = run_single(scenario, protocol, queries, seed)
            expected = golden["cells"][key]
            assert metrics.average_duty_cycle == expected["average_duty_cycle"], key
            assert metrics.average_query_latency == expected["average_query_latency"], key
            assert metrics.delivery_ratio == expected["delivery_ratio"], key
            assert metrics.deliveries == expected["deliveries"], key
            assert metrics.channel_stats == expected["channel_stats"], key
            per_node = {str(n): v for n, v in sorted(metrics.duty_cycle_per_node.items())}
            assert per_node == expected["duty_cycle_per_node"], key

    def test_explicit_unit_disk_reproduces_golden_trace_digest(self, golden) -> None:
        # ``trace_snapshot`` builds its network with the default channel
        # arguments, i.e. through the strategy layer's unit-disk fast path;
        # matching the committed digest proves that path is bit-for-bit the
        # pre-strategy channel, trace record by trace record.
        for key, expected in golden["traced"].items():
            scale, protocol, seed_part = key.split("/")
            got = golden_tool.trace_snapshot(scale, protocol, int(seed_part.split("=")[1]))
            assert got == expected, f"trace sequence drifted for {key}"

    def test_zero_sigma_shadowing_matches_unit_disk(self) -> None:
        """sigma=0 closes the loop: the shadowing budget at the disk edge
        is exactly the sensitivity threshold, so audibility and every
        downstream metric collapse to the unit disk."""
        scenario = smoke_scale()
        queries = _rate_queries(scenario, "DTS-SS", 1)
        default_metrics, _ = run_single(scenario, "DTS-SS", queries, 1)
        shadowed = scenario.with_overrides(
            propagation=PropagationSpec.make("shadowing", sigma_db=0.0)
        )
        shadow_metrics, _ = run_single(shadowed, "DTS-SS", queries, 1)
        assert shadow_metrics == default_metrics


# ---------------------------------------------------------------------------
# Shadowing link budgets
# ---------------------------------------------------------------------------

class TestLogDistanceShadowing:
    def _topology(self) -> Topology:
        return Topology.from_positions([(0.0, 0.0), (40.0, 0.0), (90.0, 0.0)], comm_range=100.0)

    def test_gains_are_cached_symmetric_and_deterministic(self) -> None:
        topology = self._topology()
        a = LogDistanceShadowing(sigma_db=6.0, seed=42)
        a.bind(topology)
        b = LogDistanceShadowing(sigma_db=6.0, seed=42)
        b.bind(topology)
        assert a.gain_db(0, 1) == b.gain_db(0, 1)
        assert a.gain_db(0, 1) == a.gain_db(1, 0)  # symmetric by default
        assert a.gain_db(0, 1) is not None and a.gain_db(0, 2) != a.gain_db(0, 1)
        different_seed = LogDistanceShadowing(sigma_db=6.0, seed=43)
        different_seed.bind(topology)
        assert different_seed.gain_db(0, 1) != a.gain_db(0, 1)

    def test_asymmetric_gains_differ_per_direction(self) -> None:
        topology = self._topology()
        model = LogDistanceShadowing(sigma_db=6.0, symmetric=False, seed=1)
        model.bind(topology)
        assert model.gain_db(0, 1) != model.gain_db(1, 0)

    def test_margin_decreases_with_distance(self) -> None:
        topology = self._topology()
        model = LogDistanceShadowing(sigma_db=0.0)
        model.bind(topology)
        near = model.margin_db(0, 1)   # 40 m
        far = model.margin_db(0, 2)    # 90 m
        assert near > far > 0.0        # both inside the 100 m disk
        assert model.rx_mw(0, 1) > model.rx_mw(0, 2) > 1.0

    def test_zero_sigma_audible_set_is_the_disk(self) -> None:
        topology = self._topology()
        model = LogDistanceShadowing(sigma_db=0.0)
        model.bind(topology)
        neighbors = tuple(topology.neighbors(0))
        assert model.audible(0, neighbors) == neighbors

    def test_deep_shadowing_fades_links_out(self) -> None:
        topology = self._topology()
        model = LogDistanceShadowing(sigma_db=40.0, seed=5)
        model.bind(topology)
        neighbors = tuple(topology.neighbors(0))
        audible = model.audible(0, neighbors)
        assert set(audible) < set(neighbors)  # at 40 dB sigma some link dies
        assert model.stats.faded_links >= 1

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            LogDistanceShadowing(exponent=0.0)
        with pytest.raises(ValueError):
            LogDistanceShadowing(sigma_db=-1.0)
        with pytest.raises(ValueError):
            SinrCapture(capture_db=-3.0)


# ---------------------------------------------------------------------------
# SINR capture on a crafted line
# ---------------------------------------------------------------------------

class _ChannelHarness:
    """A handful of nodes wired to a channel with explicit propagation.

    ``asleep`` nodes start with their radio off (so they neither lock onto
    nor receive early frames) and are woken synchronously right before
    their own scheduled transmissions (the IDEAL profile has zero
    transition latency).
    """

    def __init__(self, positions, comm_range: float, model, asleep=()) -> None:
        self.sim = Simulator(seed=0)
        self.topology = Topology.from_positions(positions, comm_range=comm_range)
        self.channel = WirelessChannel(self.sim, self.topology, propagation=model)
        self.delivered: list = []
        self.radios = {}
        for node_id in self.topology.node_ids:
            radio = Radio(self.sim, node_id, IDEAL, start_awake=node_id not in asleep)
            self.radios[node_id] = radio
            self.channel.register(
                node_id,
                radio,
                lambda packet, start, node=node_id: self.delivered.append((node, packet)),
            )

    def transmit_at(self, time: float, sender: int, duration: float) -> Packet:
        packet = Packet(src=sender, dst=-1)

        def fire() -> None:
            radio = self.radios[sender]
            if radio.is_asleep:
                radio.wake_up()  # synchronous: IDEAL has zero wake latency
            self.channel.transmit(sender, packet, duration)

        self.sim.schedule_at(time, fire)
        return packet


class TestSinrCapture:
    """A(0 m) -- B(10 m) ---- C(65 m): A is ~20 dB stronger than C at B."""

    POSITIONS: ClassVar[list] = [(0.0, 0.0), (10.0, 0.0), (65.0, 0.0)]

    def _model(self, capture_db: float = 6.0) -> SinrCapture:
        return SinrCapture(exponent=3.0, sigma_db=0.0, capture_db=capture_db, noise_db=-6.0)

    def test_strong_locked_frame_survives_weak_interferer(self) -> None:
        harness = _ChannelHarness(self.POSITIONS, 60.0, self._model())
        # comm_range 60: A-B and B-C are links, A-C is not.
        strong = harness.transmit_at(0.0, 0, 0.010)
        harness.transmit_at(0.002, 2, 0.010)  # C starts mid-frame
        harness.sim.run(until=0.05)
        received_at_b = [p for node, p in harness.delivered if node == 1]
        assert strong in received_at_b
        assert harness.channel.propagation.stats.capture_wins == 1
        assert harness.channel.stats.collisions == 0

    def test_strong_late_frame_captures_receiver(self) -> None:
        harness = _ChannelHarness(self.POSITIONS, 60.0, self._model())
        harness.transmit_at(0.0, 2, 0.010)   # weak frame locks B first
        strong = harness.transmit_at(0.002, 0, 0.010)
        harness.sim.run(until=0.05)
        received_at_b = [p for node, p in harness.delivered if node == 1]
        assert strong in received_at_b
        assert harness.channel.propagation.stats.capture_switches == 1
        # The weak locked frame was corrupted: that IS a collision.
        assert harness.channel.stats.collisions == 1

    def test_comparable_frames_are_both_lost(self) -> None:
        # Symmetric layout: both senders 30 m from B -> SINR ~ 0 dB < 6 dB.
        harness = _ChannelHarness(
            [(0.0, 0.0), (30.0, 0.0), (60.0, 0.0)], 45.0, self._model()
        )
        harness.transmit_at(0.0, 0, 0.010)
        harness.transmit_at(0.002, 2, 0.010)
        harness.sim.run(until=0.05)
        assert [p for node, p in harness.delivered if node == 1] == []
        assert harness.channel.stats.collisions == 1
        stats = harness.channel.propagation.stats
        assert stats.capture_wins == 0 and stats.capture_switches == 0

    def test_unit_disk_corrupts_where_capture_would_survive(self) -> None:
        """The same overlap under the default model: all-or-nothing loss."""
        harness = _ChannelHarness(self.POSITIONS, 60.0, UnitDiskPropagation())
        strong = harness.transmit_at(0.0, 0, 0.010)
        harness.transmit_at(0.002, 2, 0.010)
        harness.sim.run(until=0.05)
        assert strong not in [p for node, p in harness.delivered if node == 1]
        assert harness.channel.stats.collisions == 1

    def test_idle_receiver_does_not_lock_onto_drowned_frame(self) -> None:
        """Regression: an idle receiver must not acquire a frame whose SINR
        over transmissions already on the air falls below the threshold.

        R is freed mid-air (a capture win ends) while a weak frame W is
        still transmitting; a second weak frame W2 then starts.  W2's SINR
        over W is ~0 dB, so R must stay idle instead of receiving W2
        intact as the unit disk would."""
        # R(0,0); S strong at 5 m; W and W2 both 50 m from R.  W and W2
        # start asleep so they do not lock onto S's frame themselves.
        harness = _ChannelHarness(
            [(0.0, 0.0), (5.0, 0.0), (50.0, 0.0), (0.0, 50.0)],
            60.0,
            self._model(),
            asleep={2, 3},
        )
        strong = harness.transmit_at(0.0, 1, 0.010)
        harness.transmit_at(0.002, 2, 0.030)     # W: long weak frame, lost to capture
        drowned = harness.transmit_at(0.015, 3, 0.010)  # W2 starts while W still on air
        harness.sim.run(until=0.05)
        received_at_r = [p for node, p in harness.delivered if node == 0]
        assert strong in received_at_r           # the capture win delivered
        assert drowned not in received_at_r      # the drowned frame did not
        assert harness.channel.propagation.stats.drowned_frames >= 1

    def test_corrupted_locked_frame_cannot_capture_win(self) -> None:
        """Regression: a locked frame an earlier overlap already corrupted
        must not count a capture win (nor suppress the collision) when a
        later weak frame arrives while its raw SINR still clears the bar."""
        # R(0,0); A at 5 m and B at 6 m (comparable -> mutual corruption);
        # C at 50 m (weak).  B and C start asleep so they do not lock onto
        # A's frame before their own transmissions.
        harness = _ChannelHarness(
            [(0.0, 0.0), (5.0, 0.0), (6.0, 0.0), (50.0, 0.0)],
            60.0,
            self._model(),
            asleep={2, 3},
        )
        corrupted = harness.transmit_at(0.0, 1, 0.030)   # A: long frame, locks R
        harness.transmit_at(0.002, 2, 0.006)             # B: comparable -> both lost
        harness.transmit_at(0.015, 3, 0.010)             # C: weak, after B ended
        harness.sim.run(until=0.06)
        assert corrupted not in [p for node, p in harness.delivered if node == 0]
        stats = harness.channel.propagation.stats
        assert stats.capture_wins == 0
        # B's overlap and C's overlap each count one collision at R.
        assert harness.channel.stats.collisions == 2

    def test_resolve_collision_outcomes_directly(self) -> None:
        model = self._model()
        topology = Topology.from_positions(self.POSITIONS, comm_range=60.0)
        model.bind(topology)
        from repro.net.channel import Transmission

        strong = Transmission(
            sender=0, packet=Packet(src=0, dst=1), start=0.0, end=1.0, receivers={1: True}
        )
        weak = Transmission(
            sender=2, packet=Packet(src=2, dst=1), start=0.0, end=1.0, receivers={1: True}
        )
        covering = [strong, weak]
        assert model.resolve_collision(1, strong, weak, covering) == KEEP_LOCKED
        assert model.resolve_collision(1, weak, strong, covering) == CAPTURE_NEW
        # An impossible threshold forces the unit-disk outcome.
        strict = self._model(capture_db=60.0)
        strict.bind(topology)
        assert strict.resolve_collision(1, strong, weak, covering) == BOTH_LOST


# ---------------------------------------------------------------------------
# Gilbert-Elliott bursty links
# ---------------------------------------------------------------------------

class TestGilbertElliott:
    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_good_to_bad=1.5)
        with pytest.raises(ValueError):
            GilbertElliottLoss(loss_bad=-0.1)

    def test_losses_arrive_in_bursts(self) -> None:
        model = GilbertElliottLoss(
            p_good_to_bad=0.05, p_bad_to_good=0.2, loss_good=0.0, loss_bad=1.0, seed=1
        )
        outcomes = [model.should_drop(0, 1, None) for _ in range(2000)]
        assert model.dropped > 0 and model.delivered > 0
        assert model.bursts > 0
        # Dropped frames must cluster: the number of loss runs is far
        # smaller than the number of losses (independent drops at the same
        # average rate would give runs ~= losses).
        runs = sum(
            1 for i, drop in enumerate(outcomes) if drop and (i == 0 or not outcomes[i - 1])
        )
        assert runs * 2 < model.dropped

    def test_links_are_independent_and_asymmetric(self) -> None:
        model = GilbertElliottLoss(p_good_to_bad=0.3, loss_bad=1.0, loss_good=0.0, seed=9)
        forward = [model.should_drop(0, 1, None) for _ in range(300)]
        reverse = [model.should_drop(1, 0, None) for _ in range(300)]
        assert forward != reverse
        # Interleaving draws on another link must not perturb a link's own
        # chain (per-link RNGs -> draw-order independence).
        replay = GilbertElliottLoss(p_good_to_bad=0.3, loss_bad=1.0, loss_good=0.0, seed=9)
        interleaved = []
        for _ in range(300):
            interleaved.append(replay.should_drop(0, 1, None))
            replay.should_drop(5, 6, None)
        assert interleaved == forward

    def test_determinism_per_seed(self) -> None:
        first = GilbertElliottLoss(seed=4)
        second = GilbertElliottLoss(seed=4)
        assert [first.should_drop(2, 3, None) for _ in range(500)] == [
            second.should_drop(2, 3, None) for _ in range(500)
        ]


# ---------------------------------------------------------------------------
# Determinism of full propagation cells (run-twice, parallel == serial)
# ---------------------------------------------------------------------------

class TestPropagationDeterminism:
    SINR_SCENARIO = None  # set in setup_class to keep collection cheap

    @classmethod
    def setup_class(cls) -> None:
        cls.SINR_SCENARIO = smoke_scale().with_overrides(
            propagation=PropagationSpec.make("sinr", capture_db=6.0, sigma_db=2.0)
        )
        cls.BURSTY_SCENARIO = smoke_scale().with_overrides(
            loss=LossSpec.make("gilbert-elliott", loss_bad=0.8)
        )

    @pytest.mark.parametrize("cell", ["sinr", "bursty"])
    def test_run_twice_identity(self, cell: str) -> None:
        scenario = self.SINR_SCENARIO if cell == "sinr" else self.BURSTY_SCENARIO
        queries = _rate_queries(scenario, "DTS-SS", 1)
        first, _ = run_single(scenario, "DTS-SS", queries, 1)
        second, _ = run_single(scenario, "DTS-SS", queries, 1)
        assert first == second

    def test_parallel_equals_serial_bit_for_bit(self) -> None:
        specs = [
            ExperimentSpec(
                scenario=scenario,
                protocol="DTS-SS",
                workload=WorkloadSpec(base_rate_hz=2.0),
                num_runs=2,
            )
            for scenario in (self.SINR_SCENARIO, self.BURSTY_SCENARIO)
        ]
        serial = run_sweep(specs, jobs=1)
        parallel = run_sweep(specs, jobs=min(2, os.cpu_count() or 1))
        for a, b in zip(serial, parallel, strict=True):
            assert a.metrics == b.metrics
            assert [run.metrics for run in a.runs] == [run.metrics for run in b.runs]

    def test_propagation_actually_changes_the_outcome(self) -> None:
        """Guards against a silently-ignored spec: the non-default cells
        must not reproduce the unit-disk metrics."""
        base = smoke_scale()
        queries = _rate_queries(base, "DTS-SS", 1)
        default, _ = run_single(base, "DTS-SS", queries, 1)
        sinr, _ = run_single(self.SINR_SCENARIO, "DTS-SS", queries, 1)
        bursty, _ = run_single(self.BURSTY_SCENARIO, "DTS-SS", queries, 1)
        assert sinr != default
        assert bursty != default
