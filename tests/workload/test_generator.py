"""Tests for the paper's Section VI-B workload generator."""

import hashlib
import itertools

import pytest

from repro.errors import WorkloadError
from repro.core.opclass import OperationClass
import repro.workload.generator as generator_module
from repro.workload.generator import (
    KIND_ASSIGNMENT,
    KIND_SUBTRACTION,
    KIND_SUBTRACTION_DISCONNECTED,
    PaperWorkloadConfig,
    class_layout,
    generate_paper_workload,
)


class TestConfigValidation:
    def test_defaults_match_paper(self):
        config = PaperWorkloadConfig()
        assert config.n_transactions == 1000
        assert config.n_objects == 5
        assert config.interarrival == 0.5

    def test_alpha_beta_ranges(self):
        with pytest.raises(WorkloadError):
            PaperWorkloadConfig(alpha=1.1)
        with pytest.raises(WorkloadError):
            PaperWorkloadConfig(beta=-0.1)

    def test_gamma_length_checked(self):
        with pytest.raises(WorkloadError):
            PaperWorkloadConfig(gamma=(0.5, 0.5))

    def test_gamma_sum_checked(self):
        with pytest.raises(WorkloadError):
            PaperWorkloadConfig(gamma=(0.2,) * 4 + (0.1,))

    @pytest.mark.parametrize("gamma", [
        (1.5, -0.5, 0.0, 0.0, 0.0),
        (float("nan"), 0.25, 0.25, 0.25, 0.25),
    ])
    def test_gamma_entries_must_be_probabilities(self, gamma):
        """A negative or NaN entry is refused here, not by numpy
        halfway through generation."""
        with pytest.raises(WorkloadError, match="gamma entries"):
            PaperWorkloadConfig(gamma=gamma)

    @pytest.mark.parametrize("interarrival", [float("nan"), float("inf")])
    def test_interarrival_must_be_finite(self, interarrival):
        """NaN passes a bare ``<= 0`` test; the run would then die on
        ``negative delay: nan``."""
        with pytest.raises(WorkloadError, match="interarrival"):
            PaperWorkloadConfig(interarrival=interarrival)

    @pytest.mark.parametrize("duration", [0.0, -3.0, float("nan")])
    def test_fixed_disconnect_duration_must_be_positive(self, duration):
        """-3 would plan a negative outage, which the scheduler's run
        refuses with a negative timeout."""
        with pytest.raises(WorkloadError, match="disconnect_duration_fixed"):
            PaperWorkloadConfig(disconnect_duration_fixed=duration)

    @pytest.mark.parametrize("overrides", [
        {"work_time_mean": 0.0},
        {"work_time_mean": -2.0},
        {"work_time_mean": float("nan")},
        {"work_time_jitter": -0.1},
        {"work_time_jitter": float("nan")},
        {"disconnect_duration_fixed": None, "disconnect_duration_mean": 0.0},
        {"disconnect_duration_fixed": None,
         "disconnect_duration_mean": -10.0},
        {"inactivity_probability": 0.4, "inactivity_pause_mean": -1.0},
        {"initial_value": float("nan")},
        {"assign_value": float("nan")},
        {"assign_value": float("inf")},
    ], ids=lambda overrides: ",".join(
        f"{key}={value}" for key, value in overrides.items()))
    def test_timing_and_values_are_checked_at_construction(self, overrides):
        """Each of these used to pass the config and then fail in
        generation with a bare ``ValueError`` from numpy or the models,
        or generate with a NaN (``initial_value``, ``assign_value``)."""
        refused = list(overrides)[-1]  # the others arm it
        with pytest.raises(WorkloadError, match=refused):
            PaperWorkloadConfig(**overrides)

    def test_gamma_vector_uniform_default(self):
        vector = PaperWorkloadConfig().gamma_vector()
        assert len(vector) == 5
        assert all(abs(g - 0.2) < 1e-12 for g in vector)


class TestClassLayout:
    def test_fifteen_classes(self):
        """The paper's 15 classes: 5 objects x 3 kinds."""
        classes = class_layout(PaperWorkloadConfig())
        assert len(classes) == 15
        kinds = {(c.object_name, c.kind) for c in classes}
        assert len(kinds) == 15

    def test_eta_flags_disconnected_classes(self):
        classes = class_layout(PaperWorkloadConfig())
        for cls in classes:
            assert cls.disconnects == \
                (cls.kind == KIND_SUBTRACTION_DISCONNECTED)


class TestGeneration:
    def test_counts_and_arrivals(self):
        generated = generate_paper_workload(
            PaperWorkloadConfig(n_transactions=100))
        assert len(generated.workload) == 100
        arrivals = [p.arrival_time for p in generated.workload]
        assert arrivals[0] == 0.0
        assert arrivals[1] == 0.5
        assert arrivals[-1] == pytest.approx(49.5)

    def test_census_sums_to_n(self):
        generated = generate_paper_workload(
            PaperWorkloadConfig(n_transactions=200))
        assert sum(generated.census.values()) == 200

    def test_deterministic_for_same_seed(self):
        config = PaperWorkloadConfig(n_transactions=50, seed=9)
        first = generate_paper_workload(config)
        second = generate_paper_workload(config)
        for a, b in zip(first.workload, second.workload):
            assert a.txn_id == b.txn_id
            assert a.kind == b.kind
            assert a.steps[0].object_name == b.steps[0].object_name
            assert a.plan.work_time == b.plan.work_time

    def test_different_seed_differs(self):
        base = PaperWorkloadConfig(n_transactions=100, seed=1)
        other = PaperWorkloadConfig(n_transactions=100, seed=2)
        kinds_a = [p.kind for p in generate_paper_workload(base).workload]
        kinds_b = [p.kind for p in generate_paper_workload(other).workload]
        assert kinds_a != kinds_b

    def test_alpha_controls_subtraction_share(self):
        config = PaperWorkloadConfig(n_transactions=1000, alpha=0.7,
                                     seed=3)
        generated = generate_paper_workload(config)
        subtractions = sum(
            1 for p in generated.workload
            if p.kind in (KIND_SUBTRACTION, KIND_SUBTRACTION_DISCONNECTED))
        assert 0.65 < subtractions / 1000 < 0.75

    def test_alpha_one_all_subtractions(self):
        generated = generate_paper_workload(
            PaperWorkloadConfig(n_transactions=100, alpha=1.0))
        assert all(p.kind != KIND_ASSIGNMENT for p in generated.workload)

    def test_beta_controls_disconnections(self):
        config = PaperWorkloadConfig(n_transactions=1000, alpha=1.0,
                                     beta=0.2, seed=5)
        generated = generate_paper_workload(config)
        disconnected = sum(p.disconnects for p in generated.workload)
        assert 0.15 < disconnected / 1000 < 0.25

    def test_assignments_never_disconnect(self):
        config = PaperWorkloadConfig(n_transactions=500, alpha=0.3,
                                     beta=1.0, seed=6)
        generated = generate_paper_workload(config)
        for profile in generated.workload:
            if profile.kind == KIND_ASSIGNMENT:
                assert not profile.disconnects

    def test_operation_classes(self):
        generated = generate_paper_workload(
            PaperWorkloadConfig(n_transactions=100, seed=7))
        for profile in generated.workload:
            op = profile.steps[0].invocation
            if profile.kind == KIND_ASSIGNMENT:
                assert op.op_class is OperationClass.UPDATE_ASSIGN
            else:
                assert op.op_class is OperationClass.UPDATE_ADDSUB
                assert op.operand == -1   # X_q = X_q - 1

    def test_gamma_skews_object_choice(self):
        config = PaperWorkloadConfig(
            n_transactions=1000, seed=8,
            gamma=(0.9, 0.025, 0.025, 0.025, 0.025))
        generated = generate_paper_workload(config)
        on_first = sum(1 for p in generated.workload
                       if p.steps[0].object_name == "X1")
        assert on_first > 800

    def test_initial_values_cover_all_objects(self):
        generated = generate_paper_workload(
            PaperWorkloadConfig(n_transactions=10))
        assert set(generated.workload.initial_values) == \
            {"X1", "X2", "X3", "X4", "X5"}

    def test_inactivity_pauses_add_sleep_source(self):
        config = PaperWorkloadConfig(
            n_transactions=300, alpha=1.0, beta=0.0,
            inactivity_probability=0.5, seed=21)
        generated = generate_paper_workload(config)
        paused = sum(p.disconnects for p in generated.workload)
        assert 100 < paused < 200  # ~50% of subtraction transactions

    def test_inactivity_pauses_exceed_idle_threshold(self):
        config = PaperWorkloadConfig(
            n_transactions=100, alpha=1.0, beta=0.0,
            inactivity_probability=1.0, seed=22)
        generated = generate_paper_workload(config)
        think_threshold = 5.0  # ThinkTimeModel default idle_threshold
        for profile in generated.workload:
            for outage in profile.plan.outages:
                assert outage.duration > think_threshold

    def test_inactivity_and_disconnection_can_combine(self):
        config = PaperWorkloadConfig(
            n_transactions=200, alpha=1.0, beta=1.0,
            inactivity_probability=1.0, seed=23)
        generated = generate_paper_workload(config)
        assert any(len(p.plan.outages) == 2 for p in generated.workload)

    def test_assignments_never_pause(self):
        config = PaperWorkloadConfig(
            n_transactions=200, alpha=0.0, beta=0.0,
            inactivity_probability=1.0, seed=24)
        generated = generate_paper_workload(config)
        assert all(not p.disconnects for p in generated.workload)

    def test_inactivity_probability_validated(self):
        with pytest.raises(WorkloadError):
            PaperWorkloadConfig(inactivity_probability=1.5)

    def test_fixed_disconnect_duration_respected(self):
        config = PaperWorkloadConfig(
            n_transactions=300, alpha=1.0, beta=1.0,
            disconnect_duration_fixed=5.0, seed=11)
        generated = generate_paper_workload(config)
        for profile in generated.workload:
            for outage in profile.plan.outages:
                assert outage.duration == 5.0


#: The golden grid: 2 seeds x alpha {0.1, 0.9} x beta {0.05, 0.3} x
#: gamma {uniform, skewed} x inactivity {0, 0.4}, 200 transactions each.
GOLDEN_GRID = tuple(itertools.product(
    (2008, 11), (0.1, 0.9), (0.05, 0.3),
    (None, (0.4, 0.3, 0.15, 0.1, 0.05)), (0.0, 0.4)))
GOLDEN_STREAMS = ("workload.object", "workload.kind",
                  "workload.disconnect", "workload.session")
#: sha256 over repr() of every profile, the census and the initial
#: values, config by config across the grid.
GOLDEN_PROFILES_SHA256 = (
    "f3947dd7a5ef4adb27ca6c5183aab5e891236743b14084bd385e0389ac414f2d")
#: sha256 over the next draw of each named stream after generation: it
#: pins how many doubles each stream consumed.
GOLDEN_NEXT_DRAWS_SHA256 = (
    "85db78ab9499534eb5ab9af230686aaa724d3024b17d2984e107d0801edd25b1")


def _golden_run(monkeypatch, config):
    made = []

    class RecordingStreams(generator_module.RandomStreams):
        def __init__(self, seed=0):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(generator_module, "RandomStreams", RecordingStreams)
    generated = generate_paper_workload(config)
    (streams,) = made
    next_draws = tuple(streams.stream(name).random()
                       for name in GOLDEN_STREAMS)
    return generated, next_draws


class TestGoldenOutput:
    """Byte-identical output: a change to how the generator draws must
    keep every stream, seed, value and order (docs/PERFORMANCE.md,
    "Set-up: the paper's workload drawn in bulk")."""

    def _runs(self, monkeypatch):
        for seed, alpha, beta, gamma, inactivity in GOLDEN_GRID:
            yield _golden_run(monkeypatch, PaperWorkloadConfig(
                n_transactions=200, seed=seed, alpha=alpha, beta=beta,
                gamma=gamma, inactivity_probability=inactivity))

    def test_profiles_census_and_initial_values_are_pinned(
            self, monkeypatch):
        digest = hashlib.sha256()
        for generated, _ in self._runs(monkeypatch):
            for profile in generated.workload:
                digest.update(repr(profile).encode())
            digest.update(repr(sorted(generated.census.items())).encode())
            digest.update(repr(sorted(
                generated.workload.initial_values.items())).encode())
        assert digest.hexdigest() == GOLDEN_PROFILES_SHA256

    def test_each_stream_consumes_the_same_draws(self, monkeypatch):
        digest = hashlib.sha256()
        for _, next_draws in self._runs(monkeypatch):
            digest.update(repr(next_draws).encode())
        assert digest.hexdigest() == GOLDEN_NEXT_DRAWS_SHA256
