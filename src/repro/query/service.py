"""Per-node query service with in-network aggregation.

The query service is the *application* of the paper's workload model
(Section 3): sources generate a data report every period, interior nodes
wait for their children's reports, aggregate, and forward a single report to
their parent, and the root delivers the final aggregate.

All **timing decisions** are delegated to a :class:`SendPolicy`, a base
class whose defaults send immediately and ignore every notification:

* when an aggregated report that became ready at ``t`` should actually be
  handed to the MAC (traffic shaping / buffering),
* how long to wait for missing children before timing out,
* what (if anything) to piggyback on outgoing reports (DTS phase updates).

The ESSAT traffic shapers in :mod:`repro.core` subclass it; the baselines
(SYNC, PSM, SPAN) run on :class:`GreedySendPolicy` (send immediately,
rank-staggered timeout).

:class:`ProtocolSuite` is the layer the paper places between the MAC and
the query service: ESSAT and every baseline subclass it, so the experiment
runner registers queries, fails nodes and reads protocol extras through one
interface.

Hot-path design
---------------
The service runs once per data report per node, so its steady-state loop is
engineered like the engine and channel:

* Per-period :class:`~repro.query.report.CollectionState` objects are
  **pruned** as soon as their period completes; watermark-compressed index
  sets (:class:`_PeriodWatermark`, for completed and submitted periods)
  replace them for duplicate detection, so the per-query state stays
  O(in-flight periods) instead of growing with the run length (and
  maintenance sweeps such as :meth:`QueryService.remove_child_dependency`
  only ever walk the in-flight periods).
* The :class:`SendPolicy` methods called per packet are bound once at
  construction (``_policy_*``) instead of being re-resolved through the
  policy object on every dispatch.
* Aggregation timeouts are scheduled directly as engine events (the handle
  is the cancellation token) rather than through per-period
  :class:`~repro.sim.process.Timer` wrappers and capture lambdas.
* The runtime containers are ``__slots__`` dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Dict, Iterable, List, Optional, Set

from ..net.node import Network, Node
from ..net.packet import DataReportPacket, Packet
from ..routing.tree import RoutingTree
from ..sim.engine import Simulator
from ..sim.events import EventHandle
from .aggregation import PartialAggregate
from .query import QuerySpec, SourceSelection
from .report import CollectionState, DataReport

#: Callback invoked at the root for every completed query period:
#: ``callback(query_id, report_index, report, completed_at)``.
RootDeliveryCallback = Callable[[int, int, DataReport, float], None]


class SendPolicy:
    """Timing decisions the query service delegates, with no-op defaults.

    The defaults send a report as soon as it is ready and ignore every
    notification; a policy overrides what it needs.  Only
    :meth:`collection_timeout` has no sensible default.  The ESSAT traffic
    shapers (:class:`~repro.core.shaper.TrafficShaper`) and
    :class:`GreedySendPolicy` subclass this.
    """

    __slots__ = ()

    def query_registered(
        self,
        query: QuerySpec,
        *,
        node_id: int,
        tree: RoutingTree,
        participating_children: List[int],
        is_source: bool,
    ) -> None:
        """A query was registered at this node."""
        return None

    def send_time(self, query_id: int, report_index: int, ready_time: float) -> float:
        """Absolute time at which the ready report should be handed to the MAC."""
        return ready_time

    def collection_timeout(self, query_id: int, report_index: int, period_start: float) -> float:
        """Absolute time at which to stop waiting for children and send."""
        raise NotImplementedError

    def report_received(self, query_id: int, child: int, packet: DataReportPacket) -> None:
        """A child's data report arrived."""
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
        """The MAC finished (successfully or not) sending this node's report."""
        return None

    def phase_update_for(
        self, query_id: int, report_index: int, submit_time: float
    ) -> Optional[float]:
        """Value to piggyback in the outgoing report (DTS), or ``None``."""
        return None

    def handle_missing_children(
        self, query_id: int, report_index: int, missing: Set[int], period_start: float
    ) -> None:
        """The collection timed out with these children still missing."""
        return None

    def control_received(self, packet: Packet) -> None:
        """A non-data-report packet arrived (phase requests/updates)."""
        return None

    def child_removed(self, query_id: int, child: int) -> None:
        """A failed child was removed from the node's dependencies."""
        return None

    def child_added(self, query_id: int, child: int, child_rank: int = 0) -> None:
        """A child was (re-)admitted to the node's dependencies."""
        return None


class GreedySendPolicy(SendPolicy):
    """Default policy: send as soon as ready, time out based on node rank.

    This is the behaviour the baselines (SYNC, PSM, SPAN) run on: the query
    service itself performs no traffic shaping, and any buffering of reports
    is done (or not) by the power-management protocol underneath.

    The aggregation timeout is rank-staggered exactly like NTS-SS's
    (Section 4.3): a node of rank ``d`` stops waiting for its children
    ``(d + 1) * D / M`` after the period start, so a parent always times out
    later than its children and partially aggregated reports can still
    propagate to the root when a subtree is silent.
    """

    __slots__ = ("_deadlines", "_rank", "_max_rank")

    def __init__(self) -> None:
        self._deadlines: Dict[int, float] = {}
        self._rank = 0
        self._max_rank = 1

    def query_registered(
        self, query: QuerySpec, *, node_id: int = 0, tree: Optional[RoutingTree] = None, **_: object
    ) -> None:
        self._deadlines[query.query_id] = query.effective_deadline
        if tree is not None and node_id in tree:
            self._rank = tree.rank(node_id)
            self._max_rank = max(1, tree.max_rank)

    def collection_timeout(self, query_id: int, report_index: int, period_start: float) -> float:
        deadline = self._deadlines.get(query_id, 1.0)
        return period_start + (self._rank + 1) * deadline / self._max_rank


@dataclass(slots=True)
class QueryServiceStats:
    """Counters describing one node's query-service activity."""

    samples_generated: int = 0
    reports_sent: int = 0
    reports_received: int = 0
    reports_buffered: int = 0
    timeouts: int = 0
    late_sends: int = 0
    duplicate_reports: int = 0
    send_failures: int = 0
    root_deliveries: int = 0
    children_readmitted: int = 0
    #: Cumulative buffering delay imposed by the traffic shaper.
    total_buffer_delay: float = 0.0


class _PeriodWatermark:
    """A set of period indexes, compressed around in-order marking.

    Periods complete (and submit) almost entirely in order, so a contiguous
    watermark absorbs them; only indexes marked out of order occupy the
    sparse set, and they are folded into the watermark as soon as the gap
    closes.  Membership state therefore stays O(in-flight periods) instead
    of growing with the run length.
    """

    __slots__ = ("through", "sparse")

    def __init__(self) -> None:
        #: Every index <= this has been marked.
        self.through = -1
        #: Indexes marked out of order, awaiting watermark absorption.
        self.sparse: Set[int] = set()

    def mark(self, index: int) -> None:
        if index == self.through + 1:
            through = index
            sparse = self.sparse
            while through + 1 in sparse:
                through += 1
                sparse.remove(through)
            self.through = through
        elif index > self.through:
            self.sparse.add(index)

    def __contains__(self, index: int) -> bool:
        return index <= self.through or index in self.sparse


@dataclass(slots=True)
class _QueryRuntime:
    """Per-query runtime state at one node."""

    spec: QuerySpec
    participating_children: List[int]
    is_source: bool
    #: In-flight per-period collection state, keyed by report index.
    #: Completed periods are pruned (see :attr:`completed`).
    collections: Dict[int, CollectionState] = field(default_factory=dict)
    #: Periods whose collection already completed (delivered, sent or
    #: cancelled); classifies late child reports as duplicates.
    completed: _PeriodWatermark = field(default_factory=_PeriodWatermark)
    #: Per-period timeout events, keyed by report index.
    timeout_handles: Dict[int, EventHandle] = field(default_factory=dict)
    #: Outgoing sequence number for loss detection at the parent.
    next_sequence: int = 0
    #: Reports buffered by the traffic shaper, keyed by report index.
    buffered: Dict[int, DataReport] = field(default_factory=dict)
    #: Periods for which a report has already been submitted to the MAC.
    submitted: _PeriodWatermark = field(default_factory=_PeriodWatermark)
    stopped: bool = False


class QueryService:
    """Query execution engine for a single node."""

    __slots__ = (
        "_sim",
        "_node",
        "_tree",
        "node_id",
        "policy",
        "_on_root_delivery",
        "_queries",
        "stats",
        "_policy_send_time",
        "_policy_collection_timeout",
        "_policy_report_received",
        "_policy_report_sent",
        "_policy_phase_update_for",
        "_policy_control_received",
        "_on_period_start_cb",
        "_on_collection_timeout_cb",
        "_submit_buffered_cb",
    )

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        tree: RoutingTree,
        *,
        policy: Optional[SendPolicy] = None,
        on_root_delivery: Optional[RootDeliveryCallback] = None,
    ) -> None:
        self._sim = sim
        self._node = node
        self._tree = tree
        self.node_id = node.id
        self.policy: SendPolicy = policy if policy is not None else GreedySendPolicy()
        self._on_root_delivery = on_root_delivery
        self._queries: Dict[int, _QueryRuntime] = {}
        self.stats = QueryServiceStats()
        # Per-packet policy dispatch, bound once (hot path).
        policy_obj = self.policy
        self._policy_send_time = policy_obj.send_time
        self._policy_collection_timeout = policy_obj.collection_timeout
        self._policy_report_received = policy_obj.report_received
        self._policy_report_sent = policy_obj.report_sent
        self._policy_phase_update_for = policy_obj.phase_update_for
        self._policy_control_received = policy_obj.control_received
        # Pre-bound scheduled callbacks (one bound-method allocation per
        # period/timeout/buffered-send event otherwise).
        self._on_period_start_cb = self._on_period_start
        self._on_collection_timeout_cb = self._on_collection_timeout
        self._submit_buffered_cb = self._submit_buffered

        node.mac.set_receive_callback(self._on_mac_receive)
        node.mac.set_send_done_callback(self._on_mac_send_done)

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    @property
    def tree(self) -> RoutingTree:
        """The routing tree this node participates in."""
        return self._tree

    def registered_queries(self) -> List[QuerySpec]:
        """Specs of all queries registered at this node."""
        return [runtime.spec for runtime in self._queries.values()]

    def register_query(self, query: QuerySpec) -> None:
        """Register ``query`` at this node and start its period driver."""
        if query.query_id in self._queries:
            raise ValueError(f"query {query.query_id} is already registered at node {self.node_id}")
        if self.node_id not in self._tree:
            raise ValueError(f"node {self.node_id} is not part of the routing tree")

        sources = self._resolve_sources(query)
        is_source = self.node_id in sources
        tree = self._tree
        participating_children = [
            child
            for child in tree.children(self.node_id)
            if tree.subtree_contains_any(child, sources)
        ]
        runtime = _QueryRuntime(
            spec=query,
            participating_children=participating_children,
            is_source=is_source,
        )
        self._queries[query.query_id] = runtime
        self.policy.query_registered(
            query,
            node_id=self.node_id,
            tree=self._tree,
            participating_children=list(participating_children),
            is_source=is_source,
        )
        if is_source or participating_children:
            self._schedule_period_driver(runtime, report_index=0)

    def _resolve_sources(self, query: QuerySpec) -> AbstractSet[int]:
        """The query's sources as a shared, read-only set (never copied per node)."""
        sources = query.sources
        if isinstance(sources, frozenset):
            return sources
        if sources is SourceSelection.LEAVES:
            return self._tree.leaf_set
        if sources is SourceSelection.ALL_NODES:
            return self._tree.node_set
        raise ValueError(f"unsupported source selection {sources!r}")

    # ------------------------------------------------------------------ #
    # period driver
    # ------------------------------------------------------------------ #

    def _schedule_period_driver(self, runtime: _QueryRuntime, report_index: int) -> None:
        when = runtime.spec.report_time(report_index)
        now = self._sim.now
        if when < now:
            when = now
        self._sim.schedule_at(
            when,
            self._on_period_start_cb,
            runtime.spec.query_id,
            report_index,
        )

    def _on_period_start(self, query_id: int, report_index: int) -> None:
        runtime = self._queries.get(query_id)
        if runtime is None or runtime.stopped:
            return
        spec = runtime.spec
        period_start = spec.report_time(report_index)
        if not spec.is_active_at(period_start):
            runtime.stopped = True
            return

        state = self._get_or_create_collection(runtime, report_index)

        if runtime.is_source:
            # The sample value is the node id, so aggregates are deterministic
            # and easy to assert on.
            sample = PartialAggregate.from_sample(spec.aggregation, float(self.node_id))
            state.add_own_sample(sample, generated_at=self._sim.now)
            self.stats.samples_generated += 1

        if runtime.participating_children:
            timeout_at = self._policy_collection_timeout(query_id, report_index, period_start)
            now = self._sim.now
            runtime.timeout_handles[report_index] = self._sim.schedule_at(
                timeout_at if timeout_at > now else now,
                self._on_collection_timeout_cb,
                query_id,
                report_index,
            )

        self._check_ready(runtime, report_index)
        self._schedule_period_driver(runtime, report_index + 1)

    def _get_or_create_collection(
        self, runtime: _QueryRuntime, report_index: int
    ) -> CollectionState:
        state = runtime.collections.get(report_index)
        if state is None:
            state = CollectionState(
                query_id=runtime.spec.query_id,
                report_index=report_index,
                expected_children=set(runtime.participating_children),
                function=runtime.spec.aggregation,
                own_sample_expected=runtime.is_source,
            )
            runtime.collections[report_index] = state
        return state

    # ------------------------------------------------------------------ #
    # reception
    # ------------------------------------------------------------------ #

    def _on_mac_receive(self, packet: Packet) -> None:
        if isinstance(packet, DataReportPacket):
            self._on_data_report(packet)
        else:
            self._policy_control_received(packet)

    def _on_data_report(self, packet: DataReportPacket) -> None:
        runtime = self._queries.get(packet.query_id)
        if runtime is None or runtime.stopped:
            return
        child = packet.src
        if child not in runtime.participating_children:
            if child in self._tree and self._tree.parent_of(child) == self.node_id:
                # The child had been presumed failed (e.g. after a burst of
                # transient losses) but is evidently alive: re-admit it.
                runtime.participating_children.append(child)
                self.stats.children_readmitted += 1
                self.policy.child_added(packet.query_id, child, child_rank=self._tree.rank(child))
            else:
                # A stale child removed by maintenance or an overheard report
                # not meant for us; ignore.
                return
        self.stats.reports_received += 1
        self._policy_report_received(packet.query_id, child, packet)

        report_index = packet.report_index
        if report_index in runtime.completed:
            # The period already timed out and was forwarded; a late child
            # report cannot be folded in any more.
            self.stats.duplicate_reports += 1
            return
        state = self._get_or_create_collection(runtime, report_index)
        partial = PartialAggregate.from_wire_pair(
            runtime.spec.aggregation, packet.value, packet.contributing_sources
        )
        added = state.add_child_report(
            child, partial, generated_at=packet.generated_at, sources=packet.contributing_sources
        )
        if not added:
            self.stats.duplicate_reports += 1
            return
        self._check_ready(runtime, report_index)

    # ------------------------------------------------------------------ #
    # readiness, buffering and sending
    # ------------------------------------------------------------------ #

    def _check_ready(self, runtime: _QueryRuntime, report_index: int) -> None:
        state = runtime.collections.get(report_index)
        if state is None or not state.is_complete:
            return
        if not state.has_any_contribution:
            # Every expected contributor disappeared (e.g. the only child was
            # declared failed) and there is nothing to forward this period.
            self._cancel_collection(runtime, report_index, state)
            return
        self._complete_collection(runtime, report_index, state)

    def _cancel_collection(
        self, runtime: _QueryRuntime, report_index: int, state: CollectionState
    ) -> None:
        """Retire a period that has nothing to forward."""
        state.completed = True
        runtime.completed.mark(report_index)
        runtime.collections.pop(report_index, None)
        handle = runtime.timeout_handles.pop(report_index, None)
        if handle is not None:
            self._sim.cancel(handle)

    def _on_collection_timeout(self, query_id: int, report_index: int) -> None:
        runtime = self._queries.get(query_id)
        if runtime is None:
            return
        state = runtime.collections.get(report_index)
        if state is None or state.completed:
            return
        self.stats.timeouts += 1
        period_start = runtime.spec.report_time(report_index)
        self.policy.handle_missing_children(
            query_id, report_index, set(state.missing_children), period_start
        )
        # ``handle_missing_children`` may re-enter this service: declaring a
        # child failed removes the dependency, which can complete this very
        # collection.  Re-check before forwarding so the period is completed
        # exactly once.
        if report_index in runtime.completed:
            runtime.timeout_handles.pop(report_index, None)
            return
        if not state.has_any_contribution:
            # Nothing at all to forward for this period.
            self._cancel_collection(runtime, report_index, state)
            return
        self._complete_collection(runtime, report_index, state)

    def _complete_collection(
        self, runtime: _QueryRuntime, report_index: int, state: CollectionState
    ) -> None:
        state.completed = True
        runtime.completed.mark(report_index)
        runtime.collections.pop(report_index, None)
        handle = runtime.timeout_handles.pop(report_index, None)
        if handle is not None:
            self._sim.cancel(handle)
        assert state.aggregate is not None
        spec = runtime.spec
        report = DataReport(
            query_id=spec.query_id,
            report_index=report_index,
            aggregate=state.aggregate,
            nominal_time=spec.report_time(report_index),
            generated_at=(
                state.earliest_generated_at
                if state.earliest_generated_at is not None
                else spec.report_time(report_index)
            ),
            contributing_sources=state.contributing_sources,
        )
        if self.node_id == self._tree.root:
            self._deliver_at_root(report)
            return
        self._schedule_send(runtime, report)

    def _deliver_at_root(self, report: DataReport) -> None:
        self.stats.root_deliveries += 1
        now = self._sim.now
        trace = self._sim.trace
        if trace.enabled:
            trace.emit(
                now,
                "query.root_delivery",
                node=self.node_id,
                query=report.query_id,
                k=report.report_index,
                sources=report.contributing_sources,
            )
        if self._on_root_delivery is not None:
            self._on_root_delivery(report.query_id, report.report_index, report, now)

    def _schedule_send(self, runtime: _QueryRuntime, report: DataReport) -> None:
        ready_time = self._sim.now
        send_at = self._policy_send_time(report.query_id, report.report_index, ready_time)
        if send_at <= ready_time:
            if send_at < ready_time:
                self.stats.late_sends += 1
            self._submit_report(runtime, report)
            return
        # The traffic shaper wants the report buffered until its expected
        # send time; the node may sleep in between.
        self.stats.reports_buffered += 1
        self.stats.total_buffer_delay += send_at - ready_time
        runtime.buffered[report.report_index] = report
        self._sim.schedule_at(
            send_at,
            self._submit_buffered_cb,
            report.query_id,
            report.report_index,
        )

    def _submit_buffered(self, query_id: int, report_index: int) -> None:
        runtime = self._queries.get(query_id)
        if runtime is None:
            return
        report = runtime.buffered.pop(report_index, None)
        if report is None:
            return
        self._submit_report(runtime, report)

    def _submit_report(self, runtime: _QueryRuntime, report: DataReport) -> None:
        parent = self._tree.parent_of(self.node_id)
        if parent is None:
            # The node became the root through maintenance; deliver locally.
            self._deliver_at_root(report)
            return
        if report.report_index in runtime.submitted:
            return
        runtime.submitted.mark(report.report_index)
        value, count = report.aggregate.as_wire_pair()
        now = self._sim.now
        phase_update = self._policy_phase_update_for(report.query_id, report.report_index, now)
        packet = DataReportPacket(
            src=self.node_id,
            dst=parent,
            created_at=now,
            query_id=report.query_id,
            report_index=report.report_index,
            origin=self.node_id,
            generated_at=report.generated_at,
            value=value,
            contributing_sources=count,
            phase_update=phase_update,
            sequence=runtime.next_sequence,
        )
        runtime.next_sequence += 1
        self.stats.reports_sent += 1
        self._node.mac.send(packet)

    def _on_mac_send_done(self, packet: Packet, success: bool) -> None:
        if not isinstance(packet, DataReportPacket):
            return
        runtime = self._queries.get(packet.query_id)
        if runtime is None:
            return
        if not success:
            self.stats.send_failures += 1
        self._policy_report_sent(
            packet.query_id,
            packet.report_index,
            submitted_at=packet.created_at,
            completed_at=self._sim.now,
            success=success,
        )

    # ------------------------------------------------------------------ #
    # maintenance hooks (Section 4.3)
    # ------------------------------------------------------------------ #

    def remove_child_dependency(self, child: int) -> None:
        """Stop waiting for ``child`` in every registered query.

        Called when the node discovers it is the parent of a failed node.
        A collection that was only waiting for the failed child completes
        (or cancels, if it holds nothing at all) immediately -- the node
        must not sit out the rest of the aggregation timeout for a report
        that can no longer arrive.
        """
        for runtime in self._queries.values():
            if child in runtime.participating_children:
                runtime.participating_children.remove(child)
                self.policy.child_removed(runtime.spec.query_id, child)
                # Only in-flight periods are stored (completed ones are
                # pruned), so this walks the handful of open collections.
                for state in runtime.collections.values():
                    state.expected_children.discard(child)
                for report_index in sorted(runtime.collections):
                    self._check_ready(runtime, report_index)

    def add_child_dependency(self, child: int) -> None:
        """Start expecting reports from ``child`` (a node re-parented under us)."""
        for runtime in self._queries.values():
            if child not in runtime.participating_children:
                runtime.participating_children.append(child)

    def stop_query(self, query_id: int) -> None:
        """Stop executing ``query_id`` at this node.

        Reports the shaper is holding are dropped with the query: a stopped
        node must not submit anything (a failed node is no longer in the
        tree, so it has no parent to send to).
        """
        runtime = self._queries.get(query_id)
        if runtime is None:
            return
        runtime.stopped = True
        for handle in runtime.timeout_handles.values():
            self._sim.cancel(handle)
        runtime.timeout_handles.clear()
        runtime.buffered.clear()

    def shutdown(self) -> None:
        """Stop every registered query (the node failed or is being retired)."""
        for query_id in list(self._queries):
            self.stop_query(query_id)


class ProtocolSuite:
    """A power-management protocol installed on every node of a routing tree.

    This is the layer the paper places between the MAC and the query
    service: ESSAT and each baseline build their per-node instances in
    ``__init__`` and expose the nodes' query services through
    :meth:`query_services`, which fixes the order queries are registered in.
    """

    #: The protocol's name in the paper, e.g. ``"PSM"``.
    name: str = ""

    def __init__(self, sim: Simulator, network: Network, tree: RoutingTree) -> None:
        self.sim = sim
        self.network = network
        self.tree = tree

    def query_services(self) -> Iterable[QueryService]:
        """Every node's query service, in registration order."""
        raise NotImplementedError

    def register_query(self, query: QuerySpec) -> None:
        """Register ``query`` on every node."""
        for service in self.query_services():
            service.register_query(query)

    def register_queries(self, queries: Iterable[QuerySpec]) -> None:
        """Register several queries on every node."""
        for query in queries:
            self.register_query(query)

    def fail_node(self, node_id: int) -> object:
        """Fail ``node_id`` permanently: by default it just leaves the channel."""
        self.network.fail_node(node_id)

    def extras(self) -> Dict[str, float]:
        """Protocol-specific figures reported next to the run's metrics."""
        return {}
