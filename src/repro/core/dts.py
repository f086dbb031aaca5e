"""DTS: Dynamic Traffic Shaper (Section 4.2.3).

DTS adapts the expected send and reception times to the multi-hop delays
actually observed, in the style of the Release Guard protocol for
distributed real-time systems, but applied to aggregation trees and extended
with explicit resynchronisation for sleeping nodes:

* Initially ``s(0) = r(0) = phi`` on every node.
* When the k-th aggregated report is ready before its expected send time
  ``s(k)``, it is buffered and sent at ``s(k)``; the next expected send time
  is ``s(k + 1) = s(k) + P`` and the parent advances its expectation by ``P``
  on its own -- no synchronisation traffic at all.
* When the report is ready only at ``t > s(k)`` it is sent immediately and
  the next expected send time becomes ``s(k + 1) = t + P`` -- a **phase
  shift**.  The new value is piggybacked in the outgoing data report so the
  parent can move its expected reception time accordingly.
* Lost reports are detected through per-(query, child) sequence numbers.  A
  receiver that detects a gap uses the piggybacked phase update if the
  packet carries one, and otherwise requests one explicitly; until the
  schedules are resynchronised it simply stays awake (transient energy
  waste, no correctness impact), exactly as described in Section 4.3.
* A node that changes parent needs no special handling: its first report to
  the new parent always carries a phase update.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from ..net.packet import (
    DataReportPacket,
    Packet,
    PhaseRequestPacket,
    PhaseUpdatePacket,
)
from .shaper import TrafficShaper, _ShaperQueryState

#: Tolerance when comparing "ready" and "expected" times, to avoid spurious
#: phase shifts from floating-point noise.
_TIME_EPSILON = 1e-9

#: Number of bits a piggybacked phase update adds to a data report.  Used
#: only for overhead accounting (the paper reports < 1 bit per data report
#: amortized); the packet size on the air is unchanged because the 52-byte
#: report format reserves the field.
PHASE_UPDATE_BITS = 32


@dataclass(slots=True)
class _DtsQueryState:
    """DTS-specific per-query state."""

    #: Expected send time of the node's next report.
    expected_send: float = 0.0
    #: Per-child expected reception time of the next report.
    expected_receive: Dict[int, float] = field(default_factory=dict)
    #: Per-child last sequence number seen (for loss detection).
    last_sequence: Dict[int, int] = field(default_factory=dict)
    #: child -> time an unanswered phase request was sent.  One
    #: resynchronisation costs one request: while the child's answer is in
    #: flight (possibly delayed by MAC retries), further detected gaps must
    #: not issue -- or count the overhead of -- duplicate requests.  The
    #: entry expires after one query period (see ``_request_phase_update``)
    #: so a request or answer lost on the air does not disable
    #: resynchronisation for good: the next gap after the expiry re-requests
    #: (and is counted again -- it is a genuine new control transmission).
    requested: Dict[int, float] = field(default_factory=dict)
    #: Whether the next outgoing report must carry a phase update regardless
    #: of whether a phase shift occurred (after a request, or to introduce
    #: ourselves to a new parent).
    force_phase_update: bool = False
    #: Phase update value decided at submission time, applied on completion.
    pending_expected_send: Optional[float] = None
    #: The shaper-generic per-query state, referenced directly so the hot
    #: per-report methods resolve one dict lookup instead of two.
    base: Optional[_ShaperQueryState] = None


class DynamicTrafficShaper(TrafficShaper):
    """The DTS traffic shaper."""

    name = "DTS"

    __slots__ = ("timeout_constant", "_dts")

    def __init__(self, *args, timeout_constant: float = 0.1, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: The constant ``t_TO`` added to ``max_c s(k, c)`` for the
        #: aggregation timeout (Section 4.3).
        self.timeout_constant = timeout_constant
        self._dts: Dict[int, _DtsQueryState] = {}

    # ------------------------------------------------------------------ #
    # initialization
    # ------------------------------------------------------------------ #

    def _init_query(self, state: _ShaperQueryState) -> None:
        query_id = state.spec.query_id
        phi = state.spec.start_time
        dts = _DtsQueryState(expected_send=phi, base=state)
        for child in state.children:
            dts.expected_receive[child] = phi
            self._table.set_next_receive(query_id, child, phi)
        self._dts[query_id] = dts
        if not state.is_root:
            self._table.set_next_send(query_id, phi)

    def _dts_state(self, query_id: int) -> _DtsQueryState:
        # try/except keeps the registered (hot) case a bare dict lookup.
        try:
            return self._dts[query_id]
        except KeyError:
            raise KeyError(f"query {query_id} is not registered with the DTS shaper") from None

    # ------------------------------------------------------------------ #
    # expected-time accessors (exposed for tests and analysis)
    # ------------------------------------------------------------------ #

    def expected_send_time(self, query_id: int) -> float:
        """The node's current expected send time ``s(k)``."""
        return self._dts_state(query_id).expected_send

    def expected_receive_time(self, query_id: int, child: int) -> Optional[float]:
        """The current expected reception time for ``child``'s next report."""
        return self._dts_state(query_id).expected_receive.get(child)

    # ------------------------------------------------------------------ #
    # timing decisions
    # ------------------------------------------------------------------ #

    def send_time(self, query_id: int, report_index: int, ready_time: float) -> float:
        """Send at ``s(k)`` when ready early, immediately when late."""
        self.stats.reports_observed += 1
        expected = self._dts_state(query_id).expected_send
        if ready_time <= expected + _TIME_EPSILON:
            if expected > ready_time:
                self.stats.reports_buffered += 1
            return expected
        self.stats.reports_sent_late += 1
        return ready_time

    def collection_timeout(self, query_id: int, report_index: int, period_start: float) -> float:
        """``max_c s(k, c) + t_TO``: wait until after every child's expected send."""
        dts = self._dts_state(query_id)
        if dts.expected_receive:
            latest = max(dts.expected_receive.values())
        else:
            latest = period_start
        return max(latest, period_start) + self.timeout_constant

    def phase_update_for(
        self, query_id: int, report_index: int, submit_time: float
    ) -> Optional[float]:
        """Decide what to piggyback on the report being submitted right now."""
        dts = self._dts_state(query_id)
        period = dts.base.spec.period
        next_send = submit_time + period
        phase_shift = submit_time > dts.expected_send + _TIME_EPSILON
        dts.pending_expected_send = next_send
        if phase_shift:
            self.stats.phase_shifts += 1
        if phase_shift or dts.force_phase_update:
            dts.force_phase_update = False
            self.stats.phase_updates_piggybacked += 1
            self.stats.piggyback_overhead_bits += PHASE_UPDATE_BITS
            return next_send
        return None

    def report_sent(
        self,
        query_id: int,
        report_index: int,
        *,
        submitted_at: float,
        completed_at: float,
        success: bool,
    ) -> None:
        dts = self._dts_state(query_id)
        state = dts.base
        if dts.pending_expected_send is not None:
            dts.expected_send = dts.pending_expected_send
            dts.pending_expected_send = None
        else:
            # Defensive: a send completed without going through
            # phase_update_for (should not happen in the normal flow).
            dts.expected_send = completed_at + state.spec.period
        if not state.is_root:
            self._table.set_next_send(query_id, dts.expected_send)

    # ------------------------------------------------------------------ #
    # reception, loss detection and resynchronisation
    # ------------------------------------------------------------------ #

    def report_received(self, query_id: int, child: int, packet: DataReportPacket) -> None:
        dts = self._dts_state(query_id)
        state = dts.base
        state.consecutive_misses[child] = 0

        last = dts.last_sequence.get(child)
        gap = last is not None and packet.sequence > last + 1
        dts.last_sequence[child] = packet.sequence

        if packet.phase_update is not None:
            # Either the child phase-shifted or it is answering a phase
            # request: its advertised next send time becomes our expectation,
            # and any outstanding request to this child is satisfied.
            dts.requested.pop(child, None)
            new_expectation = packet.phase_update
        else:
            current = dts.expected_receive.get(child, state.spec.start_time)
            new_expectation = current + state.spec.period
            if gap:
                # Reports were lost and this one carries no phase update: ask
                # the child to advertise its schedule; until the answer
                # arrives we keep a conservative (stale) expectation, which
                # merely keeps the radio on a little longer.
                self.stats.sequence_gaps_detected += 1
                self._request_phase_update(query_id, child)

        dts.expected_receive[child] = new_expectation
        self._table.set_next_receive(query_id, child, new_expectation)

    def _request_phase_update(self, query_id: int, child: int) -> None:
        if self._send_control is None:
            return
        dts = self._dts_state(query_id)
        now = self._sim.now
        sent_at = dts.requested.get(child)
        if sent_at is not None and now - sent_at < dts.base.spec.period:
            # A request to this child is already in flight (the answer may
            # simply be delayed by MAC retries).  Re-requesting on every
            # subsequently detected gap would put duplicate control packets
            # on the air and double-count their overhead; one request per
            # resynchronisation suffices.  An entry older than one period
            # means the request or its answer was probably lost: fall
            # through and request again.
            return
        request = PhaseRequestPacket(
            src=self.node_id, dst=child, query_id=query_id, created_at=now
        )
        if self._send_control(request) is False:
            # The MAC rejected the packet outright (queue overflow): nothing
            # was put on the air, so nothing is counted, and the next gap may
            # try again.
            return
        dts.requested[child] = now
        self.stats.phase_updates_requested += 1
        self.stats.control_overhead_bytes += request.size_bytes

    def control_received(self, packet: Packet) -> None:
        if isinstance(packet, PhaseRequestPacket):
            dts = self._dts.get(packet.query_id)
            if dts is not None:
                # Piggyback our expected send time on the next data report.
                dts.force_phase_update = True
            return
        if isinstance(packet, PhaseUpdatePacket):
            dts = self._dts.get(packet.query_id)
            if dts is not None and packet.src in dts.expected_receive:
                dts.requested.pop(packet.src, None)
                dts.expected_receive[packet.src] = packet.next_send_time
                self._table.set_next_receive(packet.query_id, packet.src, packet.next_send_time)

    def handle_missing_children(
        self, query_id: int, report_index: int, missing: Set[int], period_start: float
    ) -> None:
        """Keep stale expectations for missing children (transient energy waste).

        DTS cannot predict a silent child's schedule, so the expectation is
        left in place: the node stays awake until the child's next report (or
        a phase update) resynchronises them, and repeatedly silent children
        are escalated to the failure callback by the base class.
        """
        super().handle_missing_children(query_id, report_index, missing, period_start)

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #

    def child_removed(self, query_id: int, child: int) -> None:
        super().child_removed(query_id, child)
        dts = self._dts.get(query_id)
        if dts is not None:
            dts.expected_receive.pop(child, None)
            dts.last_sequence.pop(child, None)
            dts.requested.pop(child, None)

    def child_added(self, query_id: int, child: int, child_rank: int = 0) -> None:
        """Expect the new child conservatively until its first report arrives."""
        super().child_added(query_id, child, child_rank)
        dts = self._dts.get(query_id)
        if dts is not None:
            dts.expected_receive[child] = self._sim.now
            dts.last_sequence.pop(child, None)
            dts.requested.pop(child, None)

    def parent_changed(self) -> None:
        """Force a phase update on the next report of every query after re-parenting.

        The paper's key robustness argument for DTS-SS: a single phase update
        on the first report to the new parent resynchronises the schedules,
        with no rank recomputation.
        """
        for dts in self._dts.values():
            dts.force_phase_update = True

    def overhead_bits_per_report(self) -> float:
        """Average piggybacked synchronisation overhead per observed report.

        The paper reports this is below one bit per data report for all
        tested query rates (Section 4.2.3).
        """
        if self.stats.reports_observed == 0:
            return 0.0
        return self.stats.piggyback_overhead_bits / self.stats.reports_observed
