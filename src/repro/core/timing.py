"""Expected send/receive time bookkeeping shared by the shapers and Safe Sleep.

Section 4.1 of the paper: for every query ``q`` routed through a node, the
node stores the time it expects the next data report from each child in
``q.rnext(c)`` and the time it expects to send the next aggregated report to
its parent in ``q.snext``.  The traffic shaper writes these values; Safe
Sleep reads their minimum to decide when the node is free.

The :class:`TimingTable` below is that shared state.  Listeners (Safe Sleep)
are notified after every change so the sleep decision can be re-evaluated,
exactly as the paper's ``updateNextReceive`` / ``updateNextSend`` pseudocode
calls ``checkState()``.

Hot-path design
---------------
The table sits between the traffic shaper (which writes an expectation for
nearly every data report that moves) and Safe Sleep (which reads the global
minimum after nearly every radio or table transition), so both directions
are engineered:

* ``next_wakeup`` keeps an **incrementally maintained minimum**: writes that
  cannot lower the minimum update the cache in O(1), and only a write or
  removal that displaces the cached minimum marks it stale, so the
  O(queries x children) rescan runs once per displacement instead of once
  per Safe Sleep check.
* Writes that do not change the stored value are **silent** -- no listener
  runs, so no spurious Safe Sleep re-evaluation is scheduled (the paper's
  ``checkState`` only needs to run when an expectation actually moved).
* The listeners are held as a tuple, so registration cannot mutate the
  sequence ``_notify`` is iterating: ``subscribe`` rebinds a new tuple, and
  the in-flight notification completes against the old one.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple


class QueryTiming:
    """Expected times for one query at one node."""

    __slots__ = ("next_receive", "next_send", "cached_min", "min_valid")

    def __init__(
        self,
        next_receive: Optional[Dict[int, float]] = None,
        next_send: Optional[float] = None,
    ) -> None:
        #: child node id -> expected reception time of its next data report.
        self.next_receive: Dict[int, float] = next_receive if next_receive is not None else {}
        #: expected send time of the node's own next aggregated report, or
        #: ``None`` for the root (which never sends).
        self.next_send: Optional[float] = next_send
        #: Cached minimum over this query's expectations (second cache level:
        #: a table-level rescan reads it instead of this query's dict unless
        #: a write displaced it); only meaningful while ``min_valid``.
        self.cached_min: Optional[float] = None
        self.min_valid: bool = next_receive is None and next_send is None
        if not self.min_valid:
            self._rescan()

    def _rescan(self) -> Optional[float]:
        """Recompute and cache this query's minimum expectation."""
        next_receive = self.next_receive
        best = min(next_receive.values()) if next_receive else None
        next_send = self.next_send
        if next_send is not None and (best is None or next_send < best):
            best = next_send
        self.cached_min = best
        self.min_valid = True
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryTiming(next_receive={self.next_receive!r}, next_send={self.next_send!r})"


class TimingTable:
    """Per-node table of expected send and reception times.

    The storage cost is proportional to the number of queries times the
    node's degree in the routing tree, which is the localized-property
    argument the paper makes for Safe Sleep's scalability.
    """

    __slots__ = ("_queries", "_listeners", "_cached_min", "_min_valid")

    def __init__(self) -> None:
        self._queries: Dict[int, QueryTiming] = {}
        self._listeners: Tuple[Callable[[], None], ...] = ()
        #: Cached ``next_wakeup`` value; only meaningful while ``_min_valid``.
        self._cached_min: Optional[float] = None
        self._min_valid: bool = True

    # ------------------------------------------------------------------ #
    # subscriptions
    # ------------------------------------------------------------------ #

    def subscribe(self, listener: Callable[[], None]) -> None:
        """Register ``listener`` to be called after every table change."""
        self._listeners = (*self._listeners, listener)

    def _notify(self) -> None:
        for listener in self._listeners:
            listener()

    # ------------------------------------------------------------------ #
    # updates (called by the traffic shaper)
    # ------------------------------------------------------------------ #

    def _note_write(self, timing: QueryTiming, old: Optional[float], time: float) -> None:
        """Maintain both cache levels after ``old`` was overwritten by ``time``.

        A write can only *lower* a valid cached minimum in O(1); overwriting
        the entry that (possibly uniquely) held the minimum with a larger
        value marks the cache stale for the next rescan.  Shared by both
        setters so the subtle displacement logic cannot drift between them.
        """
        if timing.min_valid:
            query_min = timing.cached_min
            if query_min is None or time <= query_min:
                timing.cached_min = time
            elif old is not None and old == query_min:
                timing.min_valid = False
        if self._min_valid:
            cached = self._cached_min
            if cached is None or time <= cached:
                self._cached_min = time
            elif old is not None and old == cached:
                self._min_valid = False

    def _note_removal(self, timing: QueryTiming, old: float) -> None:
        """Mark both cache levels stale if the removed entry held the minimum."""
        if timing.min_valid and old == timing.cached_min:
            timing.min_valid = False
        if self._min_valid and old == self._cached_min:
            self._min_valid = False

    def set_next_receive(self, query_id: int, child: int, time: float) -> None:
        """Record the expected reception time of ``child``'s next report.

        Writing the value already stored is a no-op: listeners are not
        notified, so no spurious Safe Sleep re-evaluation is triggered.
        """
        timing = self._queries.get(query_id)
        if timing is None:
            timing = self._queries[query_id] = QueryTiming()
            old = None
        else:
            old = timing.next_receive.get(child)
            if old == time:
                return
        timing.next_receive[child] = time
        self._note_write(timing, old, time)
        self._notify()

    def set_next_send(self, query_id: int, time: float) -> None:
        """Record the expected send time of the node's next aggregated report.

        No-op writes are silent, exactly as for :meth:`set_next_receive`.
        """
        timing = self._queries.get(query_id)
        if timing is None:
            timing = self._queries[query_id] = QueryTiming()
            old = None
        else:
            old = timing.next_send
            if old == time:
                return
        timing.next_send = time
        self._note_write(timing, old, time)
        self._notify()

    def remove_child(self, query_id: int, child: int) -> None:
        """Drop a child's expectation (the child failed or was re-parented)."""
        timing = self._queries.get(query_id)
        if timing is None or child not in timing.next_receive:
            return
        old = timing.next_receive.pop(child)
        self._note_removal(timing, old)
        self._notify()

    # ------------------------------------------------------------------ #
    # queries (read by Safe Sleep)
    # ------------------------------------------------------------------ #

    def next_receive(self, query_id: int, child: int) -> Optional[float]:
        """Current expected reception time for ``(query, child)``, if any."""
        timing = self._queries.get(query_id)
        if timing is None:
            return None
        return timing.next_receive.get(child)

    def next_send(self, query_id: int) -> Optional[float]:
        """Current expected send time for ``query_id``, if any."""
        timing = self._queries.get(query_id)
        if timing is None:
            return None
        return timing.next_send

    def entries(self) -> List[Tuple[int, str, Optional[int], float]]:
        """All expectations as ``(query_id, kind, child, time)`` tuples."""
        result: List[Tuple[int, str, Optional[int], float]] = []
        for query_id, timing in self._queries.items():
            for child, time in timing.next_receive.items():
                result.append((query_id, "receive", child, time))
            if timing.next_send is not None:
                result.append((query_id, "send", None, timing.next_send))
        return result

    def next_wakeup(self) -> Optional[float]:
        """The paper's ``t_wakeup``: the minimum over every expectation.

        Returns ``None`` when the node has no expectations at all (no queries
        routed through it), in which case Safe Sleep leaves the radio alone.
        Runs on every Safe Sleep check, so it returns the incrementally
        maintained cached minimum and only rescans the table after a write
        or removal displaced the cached value.
        """
        if self._min_valid:
            return self._cached_min
        best: Optional[float] = None
        for timing in self._queries.values():
            # A table-level rescan runs once per displacement of the global
            # minimum; per-query cached minima keep it O(queries), and only
            # the one query whose entry was displaced rescans its own dict
            # (with a C-level min over the per-child values).
            query_min = timing.cached_min if timing.min_valid else timing._rescan()
            if query_min is not None and (best is None or query_min < best):
                best = query_min
        self._cached_min = best
        self._min_valid = True
        return best
