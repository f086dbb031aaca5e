"""Traffic-shaper base class.

A traffic shaper (Section 4.2) decides *when* data reports move: it buffers
reports that are ready early, lets late reports go immediately, and maintains
the expected send/receive times that Safe Sleep schedules against.  Each
shaper is a :class:`~repro.query.service.SendPolicy`, the base class the
query service calls into, and writes its expectations into the shared
:class:`~repro.core.timing.TimingTable`.  NTS and STS piggyback nothing and
exchange no control packets, so they keep the base class's no-op
``phase_update_for`` and ``control_received``; DTS overrides both.

Concrete shapers:

* :class:`~repro.core.nts.NoTrafficShaping` (NTS),
* :class:`~repro.core.sts.StaticTrafficShaper` (STS),
* :class:`~repro.core.dts.DynamicTrafficShaper` (DTS).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from ..net.packet import DataReportPacket, Packet
from ..query.query import QuerySpec
from ..query.service import SendPolicy
from ..routing.tree import RoutingTree
from ..sim.engine import Simulator
from .timing import TimingTable

#: Callback used by shapers to transmit control packets (DTS phase requests).
#: Returning ``False`` means the packet was rejected before reaching the air
#: (MAC queue overflow) and must not be counted as transmitted overhead; any
#: other return value (including ``None``) means it was accepted.
ControlSender = Callable[[Packet], object]

#: Callback invoked when a shaper declares a child failed after repeated
#: missing reports: ``callback(query_id, child)``.
ChildFailureCallback = Callable[[int, int], None]

#: Consecutive collection timeouts a child may miss before it is declared
#: failed (Section 4.3).
MAX_CONSECUTIVE_MISSES = 3


@dataclass(slots=True)
class ShaperStats:
    """Counters shared by all traffic shapers."""

    reports_observed: int = 0
    reports_buffered: int = 0
    reports_sent_late: int = 0
    phase_shifts: int = 0
    phase_updates_piggybacked: int = 0
    phase_updates_requested: int = 0
    sequence_gaps_detected: int = 0
    children_declared_failed: int = 0
    #: Extra control bytes transmitted purely for shaper synchronisation.
    control_overhead_bytes: int = 0
    #: Extra bits piggybacked onto data reports (phase updates).
    piggyback_overhead_bits: int = 0


@dataclass(slots=True)
class _ShaperQueryState:
    """Per-query state common to every shaper."""

    spec: QuerySpec
    children: List[int]
    is_source: bool
    is_root: bool
    rank: int
    max_rank: int
    #: Rank of each participating child (used by STS).
    child_ranks: Dict[int, int] = field(default_factory=dict)
    #: Consecutive missing-report counts per child.
    consecutive_misses: Dict[int, int] = field(default_factory=dict)


class TrafficShaper(SendPolicy, abc.ABC):
    """Base class for ESSAT traffic shapers.

    Subclasses implement the expected-time arithmetic; the base class
    handles registration bookkeeping, missing-children accounting and the
    child-failure escalation of Section 4.3.
    """

    #: Human-readable shaper name ("NTS", "STS", "DTS").
    name: str = "shaper"

    __slots__ = (
        "_sim",
        "_table",
        "node_id",
        "_send_control",
        "_on_child_failure",
        "_queries",
        "stats",
    )

    def __init__(
        self,
        sim: Simulator,
        table: TimingTable,
        node_id: int,
        *,
        send_control: Optional[ControlSender] = None,
        on_child_failure: Optional[ChildFailureCallback] = None,
    ) -> None:
        self._sim = sim
        self._table = table
        self.node_id = node_id
        self._send_control = send_control
        self._on_child_failure = on_child_failure
        self._queries: Dict[int, _ShaperQueryState] = {}
        self.stats = ShaperStats()

    # ------------------------------------------------------------------ #
    # SendPolicy interface: registration
    # ------------------------------------------------------------------ #

    @property
    def table(self) -> TimingTable:
        """The timing table this shaper writes its expectations into."""
        return self._table

    def query_registered(
        self,
        query: QuerySpec,
        *,
        node_id: int,
        tree: RoutingTree,
        participating_children: List[int],
        is_source: bool,
    ) -> None:
        state = _ShaperQueryState(
            spec=query,
            children=list(participating_children),
            is_source=is_source,
            is_root=(node_id == tree.root),
            rank=tree.rank(node_id),
            max_rank=max(1, tree.max_rank),
            child_ranks={child: tree.rank(child) for child in participating_children},
        )
        self._queries[query.query_id] = state
        self._init_query(state)

    @abc.abstractmethod
    def _init_query(self, state: _ShaperQueryState) -> None:
        """Install the initial expected send/receive times for a new query."""

    # ------------------------------------------------------------------ #
    # SendPolicy interface: timing decisions (subclass responsibility)
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def send_time(self, query_id: int, report_index: int, ready_time: float) -> float:
        """When to hand the ready report to the MAC (absolute time)."""

    @abc.abstractmethod
    def collection_timeout(self, query_id: int, report_index: int, period_start: float) -> float:
        """When to stop waiting for missing children (absolute time)."""

    @abc.abstractmethod
    def report_received(self, query_id: int, child: int, packet: DataReportPacket) -> None:
        """Advance the expected reception time after a child's report arrives."""

    @abc.abstractmethod
    def report_sent(
        self,
        query_id: int,
        report_index: int,
        *,
        submitted_at: float,
        completed_at: float,
        success: bool,
    ) -> None:
        """Advance the expected send time after the MAC finished a send."""

    # ------------------------------------------------------------------ #
    # SendPolicy interface: failure accounting and topology changes
    # ------------------------------------------------------------------ #

    def handle_missing_children(
        self, query_id: int, report_index: int, missing: Set[int], period_start: float
    ) -> None:
        """Account for children that missed the collection timeout.

        Subclasses decide what happens to the expected reception time of a
        missing child (schedule-based shapers advance it; DTS keeps it and
        pays the transient energy cost); the base class only escalates
        repeatedly silent children to the failure callback (Section 4.3).
        """
        state = self._queries.get(query_id)
        if state is None:
            return
        # Sorted: `missing` is a set, and the failure callback below is
        # order-observable (it can re-enter the service and schedule events).
        for child in sorted(missing):
            count = state.consecutive_misses.get(child, 0) + 1
            state.consecutive_misses[child] = count
            if count >= MAX_CONSECUTIVE_MISSES and self._on_child_failure is not None:
                self.stats.children_declared_failed += 1
                self._on_child_failure(query_id, child)

    def child_removed(self, query_id: int, child: int) -> None:
        """Stop expecting anything from a removed child."""
        state = self._queries.get(query_id)
        if state is not None:
            if child in state.children:
                state.children.remove(child)
            state.child_ranks.pop(child, None)
            state.consecutive_misses.pop(child, None)
        self._table.remove_child(query_id, child)

    def child_added(self, query_id: int, child: int, child_rank: int = 0) -> None:
        """Start expecting reports from a newly attached child.

        The default is conservative: the expected reception time is set to
        "now", which keeps the node listening until the child's first report
        arrives and the shaper learns its real schedule.
        """
        state = self._queries.get(query_id)
        if state is None:
            return
        if child not in state.children:
            state.children.append(child)
        state.child_ranks[child] = child_rank
        self._table.set_next_receive(query_id, child, self._sim.now)

    def parent_changed(self) -> None:
        """The node was re-parented: NTS and STS need nothing; DTS overrides this."""
        return None

    def refresh_topology(self, tree: RoutingTree) -> None:
        """Recompute rank-dependent state after the routing tree changed.

        NTS's expectations do not depend on the tree, so the base
        implementation only refreshes the cached ranks; STS overrides this to
        also recompute its schedule (the paper notes this extra cost).
        """
        for state in self._queries.values():
            if self.node_id in tree:
                state.rank = tree.rank(self.node_id)
                state.max_rank = max(1, tree.max_rank)
                state.is_root = self.node_id == tree.root
                for child in state.children:
                    if child in tree:
                        state.child_ranks[child] = tree.rank(child)

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #

    def _state(self, query_id: int) -> _ShaperQueryState:
        # try/except keeps the registered (hot) case a bare dict lookup.
        try:
            return self._queries[query_id]
        except KeyError:
            raise KeyError(
                f"query {query_id} is not registered with the {self.name} shaper"
            ) from None

    def _reset_miss_count(self, query_id: int, child: int) -> None:
        state = self._queries.get(query_id)
        if state is not None:
            state.consecutive_misses[child] = 0
