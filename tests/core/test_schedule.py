"""Unit tests for the guess-and-double phase schedule."""

import pytest

from repro.core import ElectionParameters, PhaseSchedule, PhaseWindow, Segment


def make_schedule(**overrides):
    return PhaseSchedule(ElectionParameters(**overrides))


class TestWalkLengths:
    def test_walk_lengths_double(self):
        schedule = make_schedule()
        lengths = [schedule.walk_length(i) for i in range(5)]
        assert lengths == [1, 2, 4, 8, 16]

    def test_initial_walk_length_scales(self):
        schedule = make_schedule(initial_walk_length=3)
        assert schedule.walk_length(0) == 3
        assert schedule.walk_length(2) == 12

    def test_negative_phase_rejected(self):
        with pytest.raises(ValueError):
            make_schedule().walk_length(-1)

    def test_segment_length_includes_slack_and_margin(self):
        schedule = make_schedule(congestion_slack=3, segment_margin=2)
        assert schedule.segment_length(2) == 3 * 4 + 2

    def test_phases_needed_for_walk_length(self):
        schedule = make_schedule()
        assert schedule.phases_needed_for_walk_length(1) == 0
        assert schedule.phases_needed_for_walk_length(5) == 3
        assert schedule.phases_needed_for_walk_length(16) == 4


class TestWindows:
    def test_phase_zero_starts_at_round_zero(self):
        window = make_schedule().window(0)
        assert window.start == 0
        assert window.end == 6 * window.segment_length

    def test_windows_are_contiguous(self):
        schedule = make_schedule()
        previous = schedule.window(0)
        for i in range(1, 6):
            window = schedule.window(i)
            assert window.start == previous.end
            previous = window

    def test_segment_boundaries_ordered(self):
        window = make_schedule().window(3)
        assert (
            window.walk_start
            < window.report_start
            < window.distribute_start
            < window.collect_start
            < window.decide_round
            < window.end
        )

    def test_segment_of_each_boundary(self):
        window = make_schedule().window(2)
        assert window.segment_of(window.walk_start) == Segment.WALK
        assert window.segment_of(window.report_start) == Segment.REPORT
        assert window.segment_of(window.distribute_start) == Segment.DISTRIBUTE
        assert window.segment_of(window.collect_start) == Segment.COLLECT
        assert window.segment_of(window.decide_round) == Segment.DECIDE
        assert window.segment_of(window.end - 1) == Segment.DECIDE

    def test_segment_of_out_of_range(self):
        window = make_schedule().window(1)
        with pytest.raises(ValueError):
            window.segment_of(window.end)

    def test_windows_generator_matches_window(self):
        schedule = make_schedule()
        generated = []
        for window in schedule.windows():
            generated.append(window)
            if len(generated) == 4:
                break
        for i, window in enumerate(generated):
            assert window == schedule.window(i)

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"initial_walk_length": 3, "congestion_slack": 4, "segment_margin": 5}],
    )
    def test_window_matches_closed_form_prefix_sum(self, overrides):
        params = ElectionParameters(**overrides)
        initial = params.initial_walk_length
        slack = params.congestion_slack
        margin = params.segment_margin
        schedule = PhaseSchedule(params)
        # Last phase first, so the memoised table grows on demand.
        for i in reversed(range(40)):
            walk_length = initial * 2**i
            assert schedule.window(i) == PhaseWindow(
                index=i,
                walk_length=walk_length,
                segment_length=slack * walk_length + margin,
                # sum over j < i of 6 * (slack * initial * 2**j + margin)
                start=6 * (slack * initial * (2**i - 1) + margin * i),
            )

    def test_window_rejects_negative(self):
        with pytest.raises(ValueError):
            make_schedule().window(-1)


class TestLocate:
    def test_locate_round_zero(self):
        schedule = make_schedule()
        window, segment = schedule.locate(0)
        assert window.index == 0
        assert segment == Segment.WALK

    def test_locate_later_phase(self):
        schedule = make_schedule()
        target = schedule.window(3)
        window, segment = schedule.locate(target.collect_start + 1)
        assert window.index == 3
        assert segment == Segment.COLLECT

    def test_locate_matches_linear_scan(self):
        windows = [make_schedule().window(i) for i in range(8)]
        schedule = make_schedule()
        for round_number in range(windows[-1].end):
            expected = next(w for w in windows if round_number < w.end)
            assert schedule.locate(round_number) == (
                expected,
                expected.segment_of(round_number),
            )

    def test_locate_rejects_negative(self):
        with pytest.raises(ValueError):
            make_schedule().locate(-1)


class TestConvergecastSchedule:
    def test_report_send_rounds_respect_tree_depth(self):
        window = make_schedule().window(3)  # walk length 8
        # Deeper nodes (later first arrival) send earlier.
        assert window.report_send_round(8) < window.report_send_round(1)
        assert window.report_send_round(1) < window.distribute_start

    def test_collect_send_round_in_collect_segment(self):
        window = make_schedule().window(3)
        assert window.collect_start <= window.collect_send_round(5) < window.decide_round

    def test_deep_arrival_clamped(self):
        window = make_schedule().window(0)
        assert window.report_send_round(100) == window.report_start
