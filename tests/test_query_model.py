"""Tests for query specifications, aggregation and workload generation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.aggregation import AggregationFunction, PartialAggregate, merge_all
from repro.query.query import QuerySpec, SourceSelection
from repro.query.workload import WorkloadSpec, generate_queries
from repro.sim.rng import RandomStreams


class TestQuerySpec:
    def test_basic_properties(self) -> None:
        query = QuerySpec(query_id=1, period=0.5, start_time=2.0)
        assert query.rate == pytest.approx(2.0)
        assert query.report_time(0) == 2.0
        assert query.report_time(3) == pytest.approx(3.5)
        assert query.effective_deadline == pytest.approx(0.5)

    def test_explicit_deadline(self) -> None:
        query = QuerySpec(query_id=1, period=1.0, deadline=0.3)
        assert query.effective_deadline == pytest.approx(0.3)
        assert query.with_deadline(0.7).effective_deadline == pytest.approx(0.7)

    def test_report_index_at(self) -> None:
        query = QuerySpec(query_id=1, period=0.5, start_time=1.0)
        assert query.report_index_at(0.5) == -1
        assert query.report_index_at(1.0) == 0
        assert query.report_index_at(2.4) == 2

    def test_is_active_at(self) -> None:
        query = QuerySpec(query_id=1, period=1.0, start_time=2.0, duration=5.0)
        assert not query.is_active_at(1.0)
        assert query.is_active_at(4.0)
        assert not query.is_active_at(8.0)
        forever = QuerySpec(query_id=2, period=1.0)
        assert forever.is_active_at(1e6)

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            QuerySpec(query_id=1, period=0.0)
        with pytest.raises(ValueError):
            QuerySpec(query_id=1, period=1.0, start_time=-1.0)
        with pytest.raises(ValueError):
            QuerySpec(query_id=1, period=1.0, deadline=0.0)
        with pytest.raises(ValueError):
            QuerySpec(query_id=1, period=1.0, duration=-2.0)
        with pytest.raises(ValueError):
            QuerySpec(query_id=1, period=1.0).report_time(-1)

    def test_explicit_sources_become_frozenset(self) -> None:
        query = QuerySpec(query_id=1, period=1.0, sources={3, 4})
        assert isinstance(query.sources, frozenset)
        assert query.sources == frozenset({3, 4})


class TestAggregation:
    def test_min_max_sum(self) -> None:
        values = [3.0, 7.0, 1.0]
        for function, expected in [
            (AggregationFunction.MIN, 1.0),
            (AggregationFunction.MAX, 7.0),
            (AggregationFunction.SUM, 11.0),
        ]:
            partials = [PartialAggregate.from_sample(function, v) for v in values]
            assert merge_all(function, partials).finalize() == pytest.approx(expected)

    def test_avg_composes_over_tree_shape(self) -> None:
        # AVG must be independent of how partial aggregates are grouped.
        function = AggregationFunction.AVG
        samples = [2.0, 4.0, 6.0, 8.0]
        flat = merge_all(function, [PartialAggregate.from_sample(function, v) for v in samples])
        left = merge_all(function, [PartialAggregate.from_sample(function, v) for v in samples[:2]])
        right = merge_all(function, [PartialAggregate.from_sample(function, v) for v in samples[2:]])
        nested = left.merge(right)
        assert flat.finalize() == pytest.approx(5.0)
        assert nested.finalize() == pytest.approx(flat.finalize())

    def test_count(self) -> None:
        function = AggregationFunction.COUNT
        partials = [PartialAggregate.from_sample(function, 99.0) for _ in range(5)]
        assert merge_all(function, partials).finalize() == pytest.approx(5.0)

    def test_wire_round_trip(self) -> None:
        function = AggregationFunction.AVG
        partial = merge_all(
            function, [PartialAggregate.from_sample(function, v) for v in (1.0, 2.0, 3.0)]
        )
        value, count = partial.as_wire_pair()
        restored = PartialAggregate.from_wire_pair(function, value, count)
        assert restored.finalize() == pytest.approx(partial.finalize())

    def test_merge_mismatched_functions_rejected(self) -> None:
        a = PartialAggregate.from_sample(AggregationFunction.MIN, 1.0)
        b = PartialAggregate.from_sample(AggregationFunction.MAX, 1.0)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_all_empty_rejected(self) -> None:
        with pytest.raises(ValueError):
            merge_all(AggregationFunction.SUM, [])


class TestWorkload:
    def test_class_rates_follow_6_3_2_ratio(self) -> None:
        spec = WorkloadSpec(base_rate_hz=6.0)
        assert spec.class_rate(0) == pytest.approx(6.0)
        assert spec.class_rate(1) == pytest.approx(3.0)
        assert spec.class_rate(2) == pytest.approx(2.0)
        assert spec.class_period(2) == pytest.approx(0.5)

    def test_generate_queries_counts_and_ids(self) -> None:
        spec = WorkloadSpec(base_rate_hz=1.0, queries_per_class=2)
        queries = generate_queries(spec, seed=1)
        assert len(queries) == 6
        assert [q.query_id for q in queries] == [1, 2, 3, 4, 5, 6]
        assert spec.total_queries == 6

    def test_start_times_inside_window(self) -> None:
        spec = WorkloadSpec(base_rate_hz=0.2, queries_per_class=3)
        queries = generate_queries(spec, seed=7)
        for query in queries:
            assert 0.0 <= query.start_time <= 10.0

    def test_generation_is_seed_deterministic(self) -> None:
        spec = WorkloadSpec(base_rate_hz=1.0, queries_per_class=2)
        first = generate_queries(spec, streams=RandomStreams(5))
        second = generate_queries(spec, streams=RandomStreams(5))
        assert [q.start_time for q in first] == [q.start_time for q in second]

    def test_periods_match_class_rates(self) -> None:
        spec = WorkloadSpec(base_rate_hz=5.0, queries_per_class=1)
        queries = generate_queries(spec, seed=0)
        assert queries[0].period == pytest.approx(1 / 5.0)
        assert queries[1].period == pytest.approx(1 / 2.5)
        assert queries[2].period == pytest.approx(1 / (5.0 / 3.0))

    def test_workload_validation(self) -> None:
        with pytest.raises(ValueError):
            WorkloadSpec(base_rate_hz=0.0)
        with pytest.raises(ValueError):
            WorkloadSpec(base_rate_hz=1.0, queries_per_class=0)
        with pytest.raises(ValueError):
            WorkloadSpec(base_rate_hz=1.0, class_rate_ratio=(1.0, -1.0))
        with pytest.raises(ValueError):
            WorkloadSpec(base_rate_hz=1.0, start_window=(5.0, 1.0))

    def test_deadline_passed_through(self) -> None:
        spec = WorkloadSpec(base_rate_hz=1.0, deadline=0.25)
        queries = generate_queries(spec, seed=0)
        assert all(q.effective_deadline == pytest.approx(0.25) for q in queries)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=30),
    st.sampled_from(list(AggregationFunction)),
)
def test_property_aggregation_matches_python_builtins(values: list[float], function: AggregationFunction) -> None:
    partials = [PartialAggregate.from_sample(function, v) for v in values]
    result = merge_all(function, partials).finalize()
    if function is AggregationFunction.MIN:
        assert result == pytest.approx(min(values))
    elif function is AggregationFunction.MAX:
        assert result == pytest.approx(max(values))
    elif function is AggregationFunction.SUM:
        assert result == pytest.approx(sum(values), abs=1e-6)
    elif function is AggregationFunction.COUNT:
        assert result == pytest.approx(len(values))
    elif function is AggregationFunction.AVG:
        assert result == pytest.approx(sum(values) / len(values), abs=1e-6)
