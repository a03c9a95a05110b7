"""Statistics and trace reduction of the serve benchmark, on plain data."""

import pytest

import analysis


def test_self_time_subtracts_nested_children():
    spans = [(1, 0, 0.0, 10.0), (2, 1, 1.0, 3.0), (3, 2, 1.5, 2.0), (4, 1, 5.0, 6.0)]
    own = analysis.self_times(spans)
    assert own == {1: 7.0, 2: 1.5, 3: 0.5, 4: 1.0}


def test_self_time_takes_the_union_of_overlapping_children_on_two_threads():
    # A request span on the event loop with two children that overlap in
    # time: one ran on the loop thread, the other in a worker thread.
    spans = [(1, 0, 0.0, 10.0), (2, 1, 2.0, 6.0), (3, 1, 4.0, 8.0)]
    assert analysis.self_times(spans)[1] == pytest.approx(4.0)   # not 10 - 8 = 2


def test_self_time_clips_children_to_their_parent():
    # A child whose interval outlives its parent's (a timer task the
    # parent's context spawned) only covers the overlap.
    spans = [(1, 0, 0.0, 4.0), (2, 1, 3.0, 9.0)]
    assert analysis.self_times(spans)[1] == pytest.approx(3.0)


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1000))
    assert analysis.samples_beyond(1000, 99.0) == 10
    assert analysis.percentile(values, 99.0) == 989
    with pytest.raises(ValueError):
        analysis.percentile(values[:999], 99.0)
    assert analysis.percentile(list(range(20)), 50.0) == 9
    with pytest.raises(ValueError):
        analysis.percentile(list(range(19)), 50.0)


def test_tail_is_the_highest_percentile_the_sample_supports():
    assert analysis.tail(list(range(1000)), 99.0) == (99.0, 989)
    assert analysis.tail(list(range(1000)), 90.0) == (90.0, 899)
    assert analysis.tail(list(range(150)), 99.0) == (90.0, 134)
    assert analysis.tail(list(range(70)), 90.0) == (75.0, 52)
    with pytest.raises(ValueError):
        analysis.tail(list(range(19)), 99.0)


def test_layer_profile_counts_only_the_measured_requests():
    targets = [("serve", "s:submit"), ("core", "c:vmm"), ("serve", "s:batch")]
    spans = [
        [1, 0, 0, 0.0, 0.010, "r1", 0, 0],
        [2, 1, 2, 0.001, 0.009, "r1", 0, 0],
        [3, 2, 1, 0.006, 0.008, "r1", 0, 4],
        [4, 0, 0, 0.0, 0.004, "warm", 0, 0],
    ] + [[10 + i, 0, 0, 0.0, 0.001, f"x{i}", 0, 0] for i in range(19)]
    prof = analysis.layer_profile(targets, spans, ["r1"] + [f"x{i}" for i in range(19)], 99.0)
    assert prof["calls"] == {"serve": 21, "core": 1}
    assert prof["self_ms_per_req"]["core"] == pytest.approx(2.0 / 20)
    assert prof["self_ms_per_req"]["serve"] == pytest.approx((8.0 + 19.0) / 20)
    assert prof["rows_per_call"] == 4
    assert prof["target_calls"] == {"s:submit": 20, "s:batch": 1, "c:vmm": 1}


def _response(result, report):
    return {"ok": True, "result": result, "report": report}


def test_digest_covers_results_and_job_reports_but_not_infer_reports():
    base = [("infer", _response({"logits": [[1.0]]}, {"n": 1})),
            ("dse", _response({"rows": [1]}, {"n": 2}))]
    digest = analysis.outputs_digest(base)
    other_infer_report = [("infer", _response({"logits": [[1.0]]}, {"n": 9})), base[1]]
    assert analysis.outputs_digest(other_infer_report) == digest
    other_job_report = [base[0], ("dse", _response({"rows": [1]}, {"n": 9}))]
    assert analysis.outputs_digest(other_job_report) != digest
    assert analysis.outputs_digest(base[::-1]) != digest
    assert analysis.outputs_digest([base[0], ("dse", None)]) != digest
