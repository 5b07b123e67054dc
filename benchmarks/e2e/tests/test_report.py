"""compare / agree verdicts on hand-built reports."""

from e2e import report

BENCHMARK = {
    "workloads": [{"name": "w", "why": ""}],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.05},
        {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.10},
    ],
}


def _report(rate, lat, setup=(1.0,) * 5, seed=1):
    return {"sets": [
        {"seed": seed, "w": {"end_to_end": {
            "setup_s": {"value": s, "unit": "s"},
            "rate": {"value": r, "unit": "1/s"},
            "lat": {"value": l, "unit": "ms"}}}}
        for r, l, s in zip(rate, lat, setup)]}


def _verdicts(a, b):
    return {row["metric"]: row["verdict"]
            for row in report.compare(BENCHMARK, a, b)}


STEADY = _report([100, 101, 100, 99, 100], [10.0, 10.1, 10.0, 9.9, 10.0])


def test_same_better_worse():
    faster = _report([110, 111, 110, 109, 110], [10.0, 10.1, 10, 9.9, 10])
    slower = _report([100, 101, 100, 99, 100], [12.0, 12.1, 12, 11.9, 12])
    assert _verdicts(STEADY, STEADY) == {
        "setup_s": "same", "rate": "same", "lat": "same"}
    assert _verdicts(STEADY, faster)["rate"] == "better"
    assert _verdicts(faster, STEADY)["rate"] == "worse"
    assert _verdicts(STEADY, slower)["lat"] == "worse"


def test_noisy_overlapping_sides_are_unresolved():
    noisy = _report([80, 120, 100, 90, 110], [10.0, 10.1, 10, 9.9, 10])
    assert _verdicts(STEADY, noisy)["rate"] == "unresolved"
    # ...unless every run of one side beats every run of the other.
    far = _report([180, 220, 200, 190, 210], [10.0, 10.1, 10, 9.9, 10])
    assert _verdicts(STEADY, far)["rate"] == "better"


def test_agree_follows_the_acceptance_rule():
    assert report.agree(BENCHMARK, STEADY, STEADY) == []
    noisy = _report([80, 120, 100, 90, 110], [10.0, 10.1, 10, 9.9, 10])
    assert any("spread" in p for p in report.agree(BENCHMARK, STEADY, noisy))
    slower = _report([100, 101, 100, 99, 100], [12.0, 12.1, 12, 11.9, 12])
    assert any("worse" in p for p in report.agree(BENCHMARK, STEADY, slower))
    # setup_s is bounded on its median only: a wide spread is accepted.
    jumpy = _report([100, 101, 100, 99, 100], [10.0, 10.1, 10, 9.9, 10],
                    setup=(0.5, 1.5, 1.0, 0.7, 1.3))
    assert report.agree(BENCHMARK, STEADY, jumpy) == []


def test_spread_and_percentile():
    assert report.spread([1.0]) == 0.0
    assert report.percentile(list(range(1, 101)), 95) == 95
    assert report.percentile([5.0], 95) == 5.0
