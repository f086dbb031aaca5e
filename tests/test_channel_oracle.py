"""Differential tests: the channel's unit-disk fast loop against its generic
loop, and lazy reception accounting against an eager replay.

``WirelessChannel.transmit`` runs one of two per-frame loops.  The default
unit-disk model takes the fast loop over the cached per-sender fan-out
table; every other propagation model takes the model-aware loop, which asks
the model for the audible set, collision outcomes and lock decisions.  A
unit-disk model that reports ``is_unit_disk = False`` sends the paper's
physics through the model-aware loop: its ``audible`` keeps every disk
neighbour, ``resolve_collision`` returns ``BOTH_LOST`` and ``can_lock`` is
always true.  That run is the reference; the fast loop must match it
exactly -- channel counters, what every node received and when, and every
radio's residency and sleep intervals -- across random topologies,
transmit schedules, sleeping and waking radios, late registration,
failures mid-frame and runs cut off mid-frame.

Both loops lock a receiver without touching its duty-cycle tracker: the
radio accounts a reception once, when it leaves RX or is finalized.  The
reference for that is eager: every ``radio.state`` trace record replayed
through ``DutyCycleTracker.record_state``, as the radio did before.  The
residency sums, their first-touch order and the sleep intervals must be
bit-identical, under the unit disk and under SINR capture (where a locked
receiver can re-lock onto a stronger frame mid-reception).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.channel import WirelessChannel
from repro.net.packet import Packet
from repro.net.propagation import SinrCapture, UnitDiskPropagation
from repro.net.topology import Topology
from repro.radio.duty_cycle import DutyCycleTracker
from repro.radio.energy import IDEAL, MICA2_TYPICAL
from repro.radio.radio import Radio
from repro.radio.states import RadioState
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder

#: Grid pitch and radio range: a node hears its 8 grid neighbours and the
#: nodes two cells away along an axis.
SPACING = 50.0
COMM_RANGE = 100.0
#: Actions land on a 0.5 ms grid so frame starts, ends, drains and radio
#: transitions often share an instant.
TICK = 0.0005
DURATIONS = (0.001, 0.002, 0.0025, 0.004)

#: Action kinds; transmissions are drawn three times as often as the rest.
KINDS = ("tx", "tx", "tx", "sleep", "wake", "unregister", "register")


class ReferenceUnitDisk(UnitDiskPropagation):
    """The paper's unit disk, evaluated by the channel's model-aware loop."""

    is_unit_disk = False


def sinr_capture() -> SinrCapture:
    """SINR capture without shadowing: on the grid a 50 m frame (9 dB over
    sensitivity) captures a receiver locked onto a 100 m one (0 dB)."""
    return SinrCapture(exponent=3.0, sigma_db=0.0, capture_db=6.0, noise_db=-6.0)


@st.composite
def scenarios(draw):
    """``(grid cells, initially registered flags, power profile, actions,
    end tick)``.

    An action is ``(tick, kind, node, a, b)``; ``a``/``b`` are a frame's
    destination and duration index.  The run stops at the end tick (often
    mid-frame) or, for ``None``, drains.
    """
    num_nodes = draw(st.integers(min_value=2, max_value=6))
    cells = st.tuples(st.integers(0, 4), st.integers(0, 4))
    grid = draw(st.lists(cells, min_size=num_nodes, max_size=num_nodes))
    initially_registered = draw(
        st.lists(st.booleans(), min_size=num_nodes, max_size=num_nodes)
    )
    profile = draw(st.sampled_from((IDEAL, MICA2_TYPICAL)))
    node = st.integers(0, num_nodes - 1)
    action = st.tuples(
        st.integers(0, 120),
        st.sampled_from(KINDS),
        node,
        st.integers(0, 4),
        st.integers(0, 4),
    )
    actions = draw(st.lists(action, min_size=1, max_size=40))
    # Cut a tick or three after some action, where frames are on the air.
    cuts = st.sampled_from(sorted({tick + delta for tick, *_ in actions for delta in (1, 2, 3)}))
    end = draw(st.one_of(st.none(), cuts))
    return grid, initially_registered, profile, actions, end


def run_scenario(scenario, propagation) -> Dict[str, object]:
    """Play ``scenario`` on a fresh channel; return everything observable."""
    grid, initially_registered, profile, actions, end = scenario
    sim = Simulator(seed=0, trace=TraceRecorder(enabled=True))
    topology = Topology.from_positions(
        [(SPACING * x, SPACING * y) for x, y in grid],
        comm_range=COMM_RANGE,
        area=(4 * SPACING, 4 * SPACING),
    )
    channel = WirelessChannel(sim, topology, propagation=propagation)
    nodes = topology.node_ids
    radios = {node: Radio(sim, node, profile) for node in nodes}
    #: Per node: ``(time, action index of the frame, frame start)``.
    received: Dict[int, List[Tuple[float, int, float]]] = {node: [] for node in nodes}
    #: packet id -> index of the action that sent it (ids differ per run).
    frame_of: Dict[int, int] = {}

    def receiver(node: int):
        def deliver(packet: Packet, start: float) -> None:
            received[node].append((sim.now, frame_of[packet.packet_id], start))

        return deliver

    deliver_to = {node: receiver(node) for node in nodes}
    registered = set()
    ever_registered = set()

    def register(node: int) -> None:
        channel.register(node, radios[node], deliver_to[node])
        registered.add(node)
        ever_registered.add(node)

    for node, present in zip(nodes, initially_registered):
        if present:
            register(node)

    def act(index: int, kind: str, node: int, a: int, b: int) -> None:
        radio = radios[node]
        if kind == "tx":
            # Radio.start_tx's precondition; a failed (unregistered) sender
            # with an idle radio exercises the dropped-frame path.
            if radio.state is RadioState.IDLE:
                packet = Packet(src=node, dst=a % len(nodes))
                frame_of[packet.packet_id] = index
                channel.transmit(node, packet, DURATIONS[b % len(DURATIONS)])
        elif kind == "sleep":
            radio.sleep()
        elif kind == "wake":
            radio.wake_up()
        elif kind == "unregister":
            # Failures are permanent: a node unregisters at most once.
            if node in registered:
                channel.unregister(node)
                registered.discard(node)
        elif kind == "register":
            # Late joiners only, never a failed node coming back.
            if node not in ever_registered:
                register(node)

    for index, (tick, kind, node, a, b) in enumerate(actions):
        sim.schedule_at(tick * TICK, act, index, kind, node, a, b)
    sim.run(until=None if end is None else end * TICK)
    for radio in radios.values():
        radio.finalize()
    eager = eager_replay(sim.trace, nodes, profile, sim.now)
    return {
        "eager": {
            "state_time": {node: list(tracker._state_time) for node, tracker in eager.items()},
            "state_order": {node: list(tracker._state_order) for node, tracker in eager.items()},
            "sleep_intervals": {node: tracker.sleep_intervals for node, tracker in eager.items()},
        },
        "stats": channel.stats.as_dict(),
        "received": received,
        "state": {node: radio.state for node, radio in radios.items()},
        "state_time": {node: list(radio.tracker._state_time) for node, radio in radios.items()},
        "state_order": {
            node: list(radio.tracker._state_order) for node, radio in radios.items()
        },
        "sleep_intervals": {
            node: radio.tracker.sleep_intervals for node, radio in radios.items()
        },
    }


def eager_replay(trace, nodes, profile, end: float) -> Dict[int, DutyCycleTracker]:
    """Per node, a tracker fed every recorded radio transition, then closed."""
    trackers = {node: DutyCycleTracker(profile) for node in nodes}
    for record in trace.filter(category="radio.state"):
        trackers[record.node].record_state(record.time, RadioState(record.data["new"]))
    for tracker in trackers.values():
        tracker.close(end)
    return trackers


def assert_lazy_rx_matches_eager_replay(observed: Dict[str, object]) -> None:
    for key, eager in observed["eager"].items():
        assert observed[key] == eager, key


def assert_fast_loop_matches_reference(scenario) -> Dict[str, object]:
    fast = run_scenario(scenario, UnitDiskPropagation())
    reference = run_scenario(scenario, ReferenceUnitDisk())
    for key in reference:
        assert fast[key] == reference[key], key
    assert_lazy_rx_matches_eager_replay(fast)
    return fast


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_fast_loop_matches_model_aware_loop(scenario) -> None:
    assert_fast_loop_matches_reference(scenario)


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_lazy_rx_matches_eager_replay_under_sinr_capture(scenario) -> None:
    assert_lazy_rx_matches_eager_replay(run_scenario(scenario, sinr_capture()))


def test_hand_built_scenario_exercises_every_outcome() -> None:
    # A row of five nodes 50 m apart, plus node 5 off the end of the row
    # (in range of node 4 only) that joins late.
    grid = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (4, 2)]
    actions = [
        (0, "tx", 0, 1, 3),  # 0: nodes 1 and 2 lock for 4 ms
        (1, "sleep", 4, 0, 0),  # 1
        (2, "tx", 3, 2, 3),  # 2: collides at 1 and 2, missed by sleeping 4
        (8, "wake", 4, 0, 0),  # 3
        (14, "tx", 4, 5, 1),  # 4: caches 4's fan-out before 5 joins
        (20, "register", 5, 0, 0),  # 5
        (30, "tx", 4, 5, 1),  # 6: the late joiner hears it
        (40, "tx", 2, 1, 3),  # 7
        (42, "unregister", 1, 0, 0),  # 8: a receiver fails mid-frame
        (48, "tx", 0, 2, 0),  # 9
        (51, "tx", 0, 1, 0),  # 10: reuses the fan-out frame 9 cached
        (60, "tx", 3, 2, 1),  # 11: two frames start in one instant
        (60, "tx", 0, 4, 1),  # 12
    ]
    scenario = (grid, [True, True, True, True, True, False], MICA2_TYPICAL, actions, None)
    observed = assert_fast_loop_matches_reference(scenario)
    stats = observed["stats"]
    assert stats["collisions"] > 0
    assert stats["missed_asleep"] > 0
    assert observed["received"][1] == []
    assert [frame for _, frame, _ in observed["received"][2]] == [4, 6, 9, 10]
    assert [frame for _, frame, _ in observed["received"][5]] == [6]


def _receiving_at_end(observed: Dict[str, object]) -> List[int]:
    return [node for node, state in observed["state"].items() if state is RadioState.RX]


def test_hand_built_lazy_rx_cases() -> None:
    # The row of five nodes 50 m apart; the run is cut at tick 44.
    grid = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]
    actions = [
        (0, "tx", 0, 1, 3),  # 0: nodes 1 (50 m) and 2 (100 m) lock until tick 8
        (2, "tx", 3, 2, 3),  # 1: overlaps 0 at nodes 1 and 2 until tick 10
        (20, "tx", 2, 1, 3),  # 2: nodes 0, 1, 3 and 4 lock
        (22, "unregister", 1, 0, 0),  # 3: node 1 fails mid-reception
        (40, "tx", 4, 3, 3),  # 4: nodes 2 and 3 are still receiving at the cut
    ]
    scenario = (grid, [True] * 5, MICA2_TYPICAL, actions, 44)
    # Unit disk: frame 1 corrupts frame 0 at nodes 1 and 2, which drain
    # until frame 1 ends; node 1 dies receiving frame 2.
    unit_disk = assert_fast_loop_matches_reference(scenario)
    assert unit_disk["stats"]["collisions"] == 2
    assert unit_disk["received"][1] == []
    assert _receiving_at_end(unit_disk) == [2, 3]
    # SINR capture: at node 1 the 50 m frame 0 survives frame 1; at node 2
    # the 50 m frame 1 captures the receiver locked onto the 100 m frame 0.
    model = sinr_capture()
    captured = run_scenario(scenario, model)
    assert_lazy_rx_matches_eager_replay(captured)
    assert model.stats.capture_wins == 1
    assert model.stats.capture_switches == 1
    assert [frame for _, frame, _ in captured["received"][2]] == [1]
    assert _receiving_at_end(captured) == [2, 3]
