"""Unit tests for the benchmark's normalisation and self-time arithmetic."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from steadybench.aa import half_gap, spread  # noqa: E402
from steadybench.meter import Meter, normalise_segments, trimmed_mean  # noqa: E402
from steadybench.references import compare, values_match  # noqa: E402
from steadybench.tracer import Span, Tracer, self_times, union_length  # noqa: E402


def test_segments_are_scaled_by_their_bracketing_points():
    points = [2.0, 4.0, 4.0]
    segments = [("wall", 3.0), ("wall", 8.0)]
    totals = normalise_segments(points, segments, reference=2.0, window=1, exponent=1.0)
    # 3 s at a mean point of 3 -> 2 s; 8 s at a mean point of 4 -> 4 s.
    assert totals["wall"].raw_s == pytest.approx(11.0)
    assert totals["wall"].normalised_s == pytest.approx(2.0 + 4.0)
    assert totals["wall"].segments == 2


def test_trimmed_mean_drops_each_outer_quarter():
    assert trimmed_mean([5.0, 1.0, 3.0]) == pytest.approx(3.0)
    assert trimmed_mean([1.0, 2.0, 3.0, 100.0]) == pytest.approx(2.5)
    assert trimmed_mean([9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0]) == pytest.approx(3.5)


def test_a_window_averages_the_points_on_both_sides():
    points = [1.0, 2.0, 3.0, 6.0, 8.0]
    segments = [("wall", 1.0), ("wall", 1.0), ("wall", 1.0), ("wall", 1.0)]
    totals = normalise_segments(points, segments, reference=1.0, window=2, exponent=1.0)
    # Windows [1, 2, 3], [1, 2, 3, 6], [2, 3, 6, 8] and [3, 6, 8]; the
    # four-point windows lose their extremes.
    expected = 1 / 2.0 + 1 / 2.5 + 1 / 4.5 + 1 / (17 / 3)
    assert totals["wall"].normalised_s == pytest.approx(expected)
    with pytest.raises(ValueError):
        normalise_segments(points, segments, reference=1.0, exponent=1.0, window=0)


def test_a_uniformly_slower_host_normalises_to_the_same_time():
    fast = normalise_segments([1.0, 1.0], [("wall", 5.0)], reference=1.0, exponent=1.0)
    slow = normalise_segments([1.7, 1.7], [("wall", 8.5)], reference=1.0, exponent=1.0)
    assert slow["wall"].normalised_s == pytest.approx(fast["wall"].normalised_s)


def test_the_exponent_shrinks_the_speed_scaling():
    totals = normalise_segments([2.0, 2.0], [("wall", 4.0)], reference=1.0, exponent=0.5)
    assert totals["wall"].normalised_s == pytest.approx(4.0 * 0.5**0.5)
    assert normalise_segments([2.0, 2.0], [("wall", 4.0)], reference=1.0, exponent=0.0)[
        "wall"
    ].normalised_s == pytest.approx(4.0)


def test_unattributed_segments_are_skipped_and_phases_kept_apart():
    totals = normalise_segments(
        [1.0, 1.0, 1.0, 1.0], [("setup.0", 1.0), (None, 9.0), ("serve", 2.0)], reference=1.0, exponent=1.0
    )
    assert set(totals) == {"setup.0", "serve"}
    assert totals["serve"].normalised_s == pytest.approx(2.0)


def test_timeline_shape_and_positive_points_are_enforced():
    with pytest.raises(ValueError):
        normalise_segments([1.0], [("wall", 1.0)], reference=1.0, exponent=1.0)
    with pytest.raises(ValueError):
        normalise_segments([1.0, 0.0], [("wall", 1.0)], reference=1.0, exponent=1.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_meter_excludes_point_time_and_bounds_ticks():
    clock = FakeClock()

    def slice_fn():
        clock.now += 0.5
        return 0.5

    meter = Meter(slice_fn, min_gap=1.0, burst=1, clock=clock)
    meter.switch("wall")
    clock.now += 0.4
    meter.tick()  # too soon after the last point: no point taken
    clock.now += 0.8
    meter.tick()  # 1.2 s since the last point: a point splits the segment
    clock.now += 0.3
    meter.switch(None)
    totals = meter.totals(reference=0.5, exponent=1.0)
    assert totals["wall"].raw_s == pytest.approx(1.5)
    assert totals["wall"].segments == 2
    assert len(meter.points) == 4
    assert meter.calibration_s == pytest.approx(2.0)


def test_union_length_merges_overlaps():
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (4.0, 4.0)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("session.self_s", 0.0, 10.0, -1),
        Span("protocol.round_s", 1.0, 5.0, 0),
        Span("game.move_s", 2.0, 3.0, 1),
        Span("harness.calibration", 6.0, 7.0, 0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 3.0, 1.0, 1.0])


def test_tracer_wraps_counts_and_tolerates_missing_targets(monkeypatch):
    import types

    module = types.ModuleType("repro_fake_layer")

    def work(n):
        return n * 2

    module.work = work
    user = types.ModuleType("repro.fake_user")
    user.work = work
    monkeypatch.setitem(sys.modules, "repro_fake_layer", module)
    monkeypatch.setitem(sys.modules, "repro.fake_user", user)
    tracer = Tracer()
    assert tracer.wrap("repro_fake_layer:work", "fake.work_s", calls="fake.calls")
    assert not tracer.wrap("repro_fake_layer:gone", "fake.gone_s")
    assert not tracer.wrap("repro_fake_missing_module:work", "fake.gone_s")
    assert user.work(3) == 6  # replaced where the caller looks it up
    tracer.close()
    assert user.work is work
    assert tracer.counts["fake.calls"] == 1
    assert [span.metric for span in tracer.spans] == ["fake.work_s"]
    assert tracer.missing == ["repro_fake_layer:gone", "repro_fake_missing_module:work"]


def test_spread_uses_exclusive_quartiles():
    stats = spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert stats["median"] == pytest.approx(5.5)
    assert stats["q1"] == pytest.approx(2.75)
    assert stats["q3"] == pytest.approx(8.25)
    assert stats["iqr_over_median"] == pytest.approx(5.5 / 5.5)
    assert half_gap([1.0, 1.0, 2.0, 2.0]) == pytest.approx(1.0)


def test_references_match_floats_to_the_tolerance_inside_lists_and_mappings():
    trace = [0.5, 0.25 + 1e-12, 0.125]
    assert values_match({"trace": [0.5, 0.25, 0.125], "n": 3}, {"trace": trace, "n": 3})
    assert not values_match([0.5, 0.25], [0.5, 0.25 + 1e-6])
    assert not values_match([0.5, 0.25], [0.5])
    assert not values_match({"a": 1}, {"b": 1})
    assert not values_match(1, True)
    expected = {"task-000": {"rounds": 4, "social_cost_trace": [1.0, 0.5]}}
    assert compare(expected, {"task-000": {"rounds": 4, "social_cost_trace": [1.0, 0.5 + 1e-13]}}) == []
    assert compare(expected, {"task-000": {"rounds": 5, "social_cost_trace": [1.0, 0.5]}}) == [
        "task-000: rounds 4 != 5"
    ]
