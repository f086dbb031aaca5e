"""End-to-end integration tests of NTS-SS, STS-SS and DTS-SS.

These tests run the full protocol stack (query service + traffic shaper +
Safe Sleep + CSMA/CA MAC + radio + channel) on small topologies and verify
the qualitative properties the paper establishes: data keeps flowing, nodes
actually sleep, NTS-SS's duty cycle grows with rank while STS-SS/DTS-SS stay
flat, and DTS adapts through phase shifts with tiny overhead.
"""

from __future__ import annotations

import pytest

from repro.core.protocol import EssatProtocolSuite
from repro.net.node import Network, build_network
from repro.net.topology import Topology
from repro.query.query import QuerySpec
from repro.radio.energy import IDEAL, MICA2_TYPICAL
from repro.routing.tree import build_routing_tree
from repro.sim.engine import Simulator


def run_essat(
    shaper: str,
    topology: Topology,
    queries,
    *,
    duration: float = 10.0,
    root: int | None = None,
    profile=IDEAL,
    seed: int = 0,
    break_even_time=None,
):
    """Run one ESSAT protocol over ``topology`` and return everything useful."""
    sim = Simulator(seed=seed)
    network = build_network(sim, topology, power_profile=profile)
    tree = build_routing_tree(topology, root=root)
    deliveries = []
    suite = EssatProtocolSuite(
        sim,
        network,
        tree,
        shaper=shaper,
        break_even_time=break_even_time,
        on_root_delivery=lambda qid, k, report, t: deliveries.append((qid, k, report, t)),
    )
    suite.register_queries(queries)
    sim.run(until=duration)
    network.finalize()
    return sim, network, tree, suite, deliveries


def duty_cycle_of(network: Network, node_id: int) -> float:
    return network.node(node_id).radio.tracker.duty_cycle()


CHAIN = Topology.line(4, spacing=100.0, comm_range=120.0)
QUERY = QuerySpec(query_id=1, period=1.0, start_time=1.0)


class TestDataDelivery:
    @pytest.mark.parametrize("shaper", ["nts", "sts", "dts"])
    def test_all_periods_delivered_at_root(self, shaper: str) -> None:
        sim, network, tree, suite, deliveries = run_essat(shaper, CHAIN, [QUERY], duration=10.0, root=0)
        ks = sorted(k for _, k, _, _ in deliveries)
        # Periods start at t=1.0 with P=1.0; by t=10 at least 8 must be complete.
        assert len(ks) >= 8
        assert ks == list(range(len(ks)))

    @pytest.mark.parametrize("shaper", ["nts", "sts", "dts"])
    def test_aggregates_contain_the_single_leaf_source(self, shaper: str) -> None:
        sim, network, tree, suite, deliveries = run_essat(shaper, CHAIN, [QUERY], duration=6.0, root=0)
        assert deliveries
        for _, _, report, _ in deliveries:
            assert report.contributing_sources == 1
            assert report.value == pytest.approx(3.0)  # leaf node id

    @pytest.mark.parametrize("shaper", ["nts", "sts", "dts"])
    def test_multiple_queries_coexist(self, shaper: str) -> None:
        queries = [
            QuerySpec(query_id=1, period=0.5, start_time=1.0),
            QuerySpec(query_id=2, period=1.0, start_time=1.3),
            QuerySpec(query_id=3, period=1.5, start_time=0.7),
        ]
        sim, network, tree, suite, deliveries = run_essat(shaper, CHAIN, queries, duration=12.0, root=0)
        per_query = {}
        for qid, k, _, _ in deliveries:
            per_query.setdefault(qid, set()).add(k)
        assert set(per_query) == {1, 2, 3}
        assert len(per_query[1]) >= 18
        assert len(per_query[2]) >= 8
        assert len(per_query[3]) >= 5


class TestEnergyBehaviour:
    @pytest.mark.parametrize("shaper", ["nts", "sts", "dts"])
    def test_nodes_sleep_between_periods(self, shaper: str) -> None:
        sim, network, tree, suite, deliveries = run_essat(shaper, CHAIN, [QUERY], duration=10.0, root=0)
        for node_id in tree.nodes:
            assert duty_cycle_of(network, node_id) < 0.6, f"node {node_id} never slept"
        # The leaf only wakes to send: its duty cycle must be very low.
        assert duty_cycle_of(network, 3) < 0.1

    def test_nts_duty_cycle_increases_with_rank(self) -> None:
        # Long chain so ranks 0..5 exist; NTS idle listening grows linearly
        # with rank (Equation 1 / Figure 5).
        chain = Topology.line(6, spacing=100.0, comm_range=120.0)
        query = QuerySpec(query_id=1, period=0.5, start_time=1.0)
        sim, network, tree, suite, deliveries = run_essat("nts", chain, [query], duration=20.0, root=0)
        duty_by_rank = {tree.rank(n): duty_cycle_of(network, n) for n in tree.nodes}
        assert duty_by_rank[5] > duty_by_rank[3] > duty_by_rank[1]

    def test_shaped_protocols_beat_nts_on_interior_nodes(self) -> None:
        chain = Topology.line(6, spacing=100.0, comm_range=120.0)
        query = QuerySpec(query_id=1, period=0.5, start_time=1.0)
        results = {}
        for shaper in ("nts", "sts", "dts"):
            sim, network, tree, suite, deliveries = run_essat(shaper, chain, [query], duration=20.0, root=0)
            assert deliveries, f"{shaper} delivered nothing"
            # Average duty cycle of interior (non-leaf, non-root) nodes.
            interior = [n for n in tree.nodes if tree.rank(n) not in (0, tree.max_rank)]
            results[shaper] = sum(duty_cycle_of(network, n) for n in interior) / len(interior)
        assert results["sts"] < results["nts"]
        assert results["dts"] < results["nts"]

    def test_sts_and_dts_duty_cycle_flat_across_ranks(self) -> None:
        chain = Topology.line(6, spacing=100.0, comm_range=120.0)
        query = QuerySpec(query_id=1, period=0.5, start_time=1.0)
        for shaper in ("sts", "dts"):
            sim, network, tree, suite, deliveries = run_essat(shaper, chain, [query], duration=20.0, root=0)
            interior = [n for n in tree.nodes if 0 < tree.rank(n) < tree.max_rank]
            cycles = [duty_cycle_of(network, n) for n in interior]
            # Spread across interior ranks stays small compared to NTS's
            # rank-linear growth.
            assert max(cycles) - min(cycles) < 0.25

    def test_break_even_time_gates_short_sleeps(self) -> None:
        query = QuerySpec(query_id=1, period=0.25, start_time=1.0)
        _, network_free, tree, suite_free, _ = run_essat(
            "dts", CHAIN, [query], duration=10.0, break_even_time=0.0, root=0
        )
        _, network_gated, _, suite_gated, _ = run_essat(
            "dts", CHAIN, [query], duration=10.0, break_even_time=0.2, root=0
        )
        free_avg = sum(duty_cycle_of(network_free, n) for n in tree.nodes) / len(tree.nodes)
        gated_avg = sum(duty_cycle_of(network_gated, n) for n in tree.nodes) / len(tree.nodes)
        # A large break-even time forbids most sleeps, raising the duty cycle.
        assert gated_avg > free_avg

    def test_realistic_radio_profile_still_meets_schedule(self) -> None:
        sim, network, tree, suite, deliveries = run_essat(
            "dts", CHAIN, [QUERY], duration=10.0, profile=MICA2_TYPICAL, root=0
        )
        assert len(deliveries) >= 8


class TestLatencyBehaviour:
    @staticmethod
    def _mean_latency(deliveries, query: QuerySpec) -> float:
        latencies = [t - query.report_time(k) for _, k, _, t in deliveries]
        return sum(latencies) / len(latencies)

    def test_nts_has_lowest_latency(self) -> None:
        chain = Topology.line(5, spacing=100.0, comm_range=120.0)
        query = QuerySpec(query_id=1, period=1.0, start_time=1.0)
        latency = {}
        for shaper in ("nts", "sts", "dts"):
            sim, network, tree, suite, deliveries = run_essat(shaper, chain, [query], duration=15.0, root=0)
            assert deliveries
            latency[shaper] = self._mean_latency(deliveries, query)
        # NTS forwards greedily: no shaping delay.  STS paces every report
        # over the deadline (= period here), so its latency is in a different
        # league; DTS converges to roughly the actual multi-hop delay, i.e.
        # the same order of magnitude as NTS.
        assert latency["nts"] < latency["sts"]
        assert latency["dts"] < latency["sts"]
        assert latency["sts"] > 5 * latency["nts"]
        assert latency["dts"] <= 3 * latency["nts"] + 0.01

    def test_sts_latency_tracks_local_deadline(self) -> None:
        chain = Topology.line(5, spacing=100.0, comm_range=120.0)
        short = QuerySpec(query_id=1, period=1.0, start_time=1.0, deadline=0.2)
        long = QuerySpec(query_id=1, period=1.0, start_time=1.0, deadline=0.8)
        results = {}
        for name, query in (("short", short), ("long", long)):
            sim, network, tree, suite, deliveries = run_essat("sts", chain, [query], duration=15.0, root=0)
            assert deliveries
            results[name] = self._mean_latency(deliveries, query)
        assert results["long"] > results["short"]

    def test_dts_latency_stays_below_query_period(self) -> None:
        query = QuerySpec(query_id=1, period=1.0, start_time=1.0)
        sim, network, tree, suite, deliveries = run_essat("dts", CHAIN, [query], duration=15.0, root=0)
        assert deliveries
        for _, k, _, t in deliveries:
            assert t - query.report_time(k) < 1.5 * query.period


class TestDtsAdaptation:
    def test_dts_phase_shifts_happen_then_settle(self) -> None:
        chain = Topology.line(5, spacing=100.0, comm_range=120.0)
        query = QuerySpec(query_id=1, period=1.0, start_time=1.0)
        sim, network, tree, suite, deliveries = run_essat("dts", chain, [query], duration=20.0, root=0)
        total_shifts = sum(s.stats.phase_shifts for s in suite.shapers())
        # The initial schedule (everyone at phi) is infeasible for interior
        # nodes, so phase shifts must occur...
        assert total_shifts >= 1
        # ...but DTS converges: far fewer shifts than reports.
        total_reports = suite.total_reports_observed()
        assert total_shifts < 0.5 * total_reports

    def test_dts_overhead_below_one_bit_per_report(self) -> None:
        chain = Topology.line(5, spacing=100.0, comm_range=120.0)
        queries = [
            QuerySpec(query_id=1, period=0.5, start_time=1.0),
            QuerySpec(query_id=2, period=1.0, start_time=1.2),
            QuerySpec(query_id=3, period=1.5, start_time=0.8),
        ]
        sim, network, tree, suite, deliveries = run_essat("dts", chain, queries, duration=30.0, root=0)
        assert deliveries
        # Section 4.2.3: amortized piggyback overhead is below one bit per
        # data report once the schedules have converged.
        assert suite.overhead_bits_per_report() < 8.0

    def test_nts_and_sts_have_zero_piggyback_overhead(self) -> None:
        for shaper in ("nts", "sts"):
            sim, network, tree, suite, deliveries = run_essat(shaper, CHAIN, [QUERY], duration=8.0, root=0)
            assert suite.total_piggyback_overhead_bits() == 0


class TestSuiteApi:
    def test_unknown_shaper_rejected(self) -> None:
        sim = Simulator(seed=0)
        network = build_network(sim, CHAIN, power_profile=IDEAL)
        tree = build_routing_tree(CHAIN, root=0)
        with pytest.raises(ValueError):
            EssatProtocolSuite(sim, network, tree, shaper="tdma")

    def test_protocol_names(self) -> None:
        sim, network, tree, suite, _ = run_essat("dts", CHAIN, [], duration=0.1, root=0)
        assert suite.name == "DTS-SS"
        assert suite.node(0).name == "DTS-SS"

    def test_safe_sleep_can_be_disabled_suite_wide(self) -> None:
        sim = Simulator(seed=0)
        network = build_network(sim, CHAIN, power_profile=IDEAL)
        tree = build_routing_tree(CHAIN, root=0)
        suite = EssatProtocolSuite(sim, network, tree, shaper="nts")
        for essat_node in suite.nodes.values():
            essat_node.safe_sleep.enabled = False
        suite.register_query(QUERY)
        sim.run(until=5.0)
        network.finalize()
        for node_id in tree.nodes:
            assert network.node(node_id).radio.tracker.duty_cycle() == pytest.approx(1.0)
