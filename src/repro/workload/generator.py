"""The paper's Section VI-B workload generator.

"Starting from a data set constituted by 1000 transactions that perform
a subtraction (e.g. clients with a mobile device that book a flight
ticket X_q = X_q − 1) or assignment (e.g. admin with a fixed device that
set the price X_p = 100) operation on a single resource of a set of 5
database objects, we have automatically generated 15 classes of
transactions considering α (1 − α) as probability that a transaction
performs a subtraction (assignment) operation, β as disconnections
probability of subtraction transactions (no disconnections are
considered for transactions with assignment), γ_j^i (Σ_j γ = 1) as the
probability that the i-th transaction works on j-th database object. ...
Each class is described by: C = ⟨T, op, X, η⟩ ... the inter-arrival time
is 0.5 sec."

The 15 classes are the cross product {5 objects} × {subtraction
connected, subtraction disconnected, assignment}.  The paper states
"γ_j^i = 10% ∀i", which cannot sum to 1 over five objects; we read it as
"uniform choice" (γ_j = 1/5) and note the discrepancy in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from repro.errors import WorkloadError
from repro.core.opclass import assign, subtract
from repro.mobile.client import ThinkTimeModel
from repro.mobile.network import BernoulliDisconnection, DisconnectionEvent
from repro.mobile.session import SessionPlan
from repro.sim.rng import RandomStreams
from repro.workload.spec import (
    TransactionProfile,
    Workload,
    single_step_profile,
)

#: Kind labels; index encodes the class layout (object, kind).
KIND_SUBTRACTION = "subtraction"
KIND_SUBTRACTION_DISCONNECTED = "subtraction-disconnected"
KIND_ASSIGNMENT = "assignment"

_KINDS = (KIND_SUBTRACTION, KIND_SUBTRACTION_DISCONNECTED, KIND_ASSIGNMENT)


@dataclass(frozen=True)
class PaperWorkloadConfig:
    """Parameters of the Section VI-B emulation.

    The paper fixes ``n_transactions``, ``n_objects`` and
    ``interarrival``; α and β are the swept parameters of Fig. 3.  The
    remaining knobs (service time, outage length, initial values) are
    unstated in the paper — defaults documented in EXPERIMENTS.md.
    """

    n_transactions: int = 1000
    n_objects: int = 5
    #: P(subtraction); assignments have probability 1 − α.
    alpha: float = 0.7
    #: P(disconnection | subtraction).
    beta: float = 0.05
    #: Per-object selection probabilities; None = uniform.
    gamma: tuple[float, ...] | None = None
    interarrival: float = 0.5
    #: Mean active service time of a transaction (unstated in the paper).
    work_time_mean: float = 2.0
    #: Lognormal sigma of the service time (0 = deterministic).
    work_time_jitter: float = 0.3
    #: Mean disconnection length (unstated in the paper); used when
    #: ``disconnect_duration_fixed`` is None.
    disconnect_duration_mean: float = 10.0
    #: Fixed disconnection length.  The default (5 s) makes the 2PL
    #: baseline's sleep-timeout comparison deterministic: every outage
    #: outlives the server's patience (see EXPERIMENTS.md).
    disconnect_duration_fixed: float | None = 5.0
    #: User-inactivity pauses (the paper's second sleep source, "long
    #: inactivity periods of users").  A mobile (subtraction)
    #: transaction additionally pauses with this probability...
    inactivity_probability: float = 0.0
    #: ...for idle_threshold + Exp(inactivity_pause_mean) seconds.
    inactivity_pause_mean: float = 5.0
    #: Initial value of every object (large enough that the ``>= 0``
    #: constraint never binds in the base experiment).
    initial_value: float = 100000.0
    #: The admin's assignment value (the paper's ``X_p = 100``).
    assign_value: float = 100.0
    seed: int = 2008

    def __post_init__(self) -> None:
        if self.n_transactions < 1:
            raise WorkloadError("n_transactions must be >= 1")
        if self.n_objects < 1:
            raise WorkloadError("n_objects must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise WorkloadError(f"alpha out of range: {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise WorkloadError(f"beta out of range: {self.beta}")
        if not 0.0 <= self.inactivity_probability <= 1.0:
            raise WorkloadError(
                f"inactivity_probability out of range: "
                f"{self.inactivity_probability}")
        if self.gamma is not None:
            if len(self.gamma) != self.n_objects:
                raise WorkloadError(
                    f"gamma needs {self.n_objects} entries, got "
                    f"{len(self.gamma)}")
            if not all(math.isfinite(g) and g >= 0 for g in self.gamma):
                raise WorkloadError(
                    f"gamma entries must be finite and >= 0: {self.gamma}")
            if abs(sum(self.gamma) - 1.0) > 1e-9:
                raise WorkloadError(
                    f"gamma must sum to 1, sums to {sum(self.gamma)}")
        if not (math.isfinite(self.interarrival) and self.interarrival > 0):
            raise WorkloadError(
                f"interarrival must be positive and finite: "
                f"{self.interarrival}")
        fixed = self.disconnect_duration_fixed
        if fixed is not None and not (math.isfinite(fixed) and fixed > 0):
            raise WorkloadError(
                f"disconnect_duration_fixed must be positive and finite: "
                f"{fixed}")
        # The draws below would otherwise fail halfway through
        # generation with a bare ValueError, or carry a NaN into the run.
        mean = self.work_time_mean
        if not (math.isfinite(mean) and mean > 0):
            raise WorkloadError(
                f"work_time_mean must be positive and finite: {mean}")
        jitter = self.work_time_jitter
        if not (math.isfinite(jitter) and jitter >= 0):
            raise WorkloadError(
                f"work_time_jitter must be finite and >= 0: {jitter}")
        outage = self.disconnect_duration_mean
        if fixed is None and not (math.isfinite(outage) and outage > 0):
            raise WorkloadError(
                f"disconnect_duration_mean must be positive and finite: "
                f"{outage}")
        pause = self.inactivity_pause_mean
        if self.inactivity_probability > 0 and not (
                math.isfinite(pause) and pause >= 0):
            raise WorkloadError(
                f"inactivity_pause_mean must be finite and >= 0: {pause}")
        for name in ("initial_value", "assign_value"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise WorkloadError(f"{name} must be finite: {value}")

    def object_names(self) -> tuple[str, ...]:
        return tuple(f"X{j + 1}" for j in range(self.n_objects))

    def gamma_vector(self) -> np.ndarray:
        if self.gamma is not None:
            return np.asarray(self.gamma, dtype=float)
        return np.full(self.n_objects, 1.0 / self.n_objects)


@dataclass(frozen=True)
class TransactionClass:
    """The paper's class descriptor C = ⟨T, op, X, η⟩."""

    class_id: int
    object_name: str
    kind: str
    #: η — whether transactions of this class suffer a disconnection.
    disconnects: bool
    members: tuple[str, ...] = ()

    def describe(self) -> str:
        eta = "disconnected" if self.disconnects else "connected"
        return f"C{self.class_id}: {self.kind} on {self.object_name} ({eta})"


@dataclass
class GeneratedWorkload:
    """A generated paper workload: profiles, classes and class census."""

    workload: Workload
    classes: tuple[TransactionClass, ...]
    #: class_id -> number of generated transactions (the paper's |T|).
    census: dict[int, int] = field(default_factory=dict)
    config: PaperWorkloadConfig | None = None


def class_layout(config: PaperWorkloadConfig) -> tuple[TransactionClass, ...]:
    """The 15 classes (objects × {sub-connected, sub-disc, assignment})."""
    classes: list[TransactionClass] = []
    for j, object_name in enumerate(config.object_names()):
        for k, kind in enumerate(_KINDS):
            classes.append(TransactionClass(
                class_id=j * len(_KINDS) + k,
                object_name=object_name,
                kind=kind,
                disconnects=(kind == KIND_SUBTRACTION_DISCONNECTED),
            ))
    return tuple(classes)


def generate_paper_workload(
        config: PaperWorkloadConfig | None = None) -> GeneratedWorkload:
    """Generate the Section VI-B workload deterministically from the seed."""
    config = config or PaperWorkloadConfig()
    streams = RandomStreams(config.seed)
    rng_object = streams.stream("workload.object")
    rng_kind = streams.stream("workload.kind")
    rng_disconnect = streams.stream("workload.disconnect")
    rng_session = streams.stream("workload.session")

    think = ThinkTimeModel(base_mean=config.work_time_mean,
                           jitter=config.work_time_jitter)
    outage = BernoulliDisconnection(
        beta=1.0,  # the β draw is done here, the model only shapes timing
        duration_mean=config.disconnect_duration_mean,
        fixed_duration=config.disconnect_duration_fixed)
    object_names = config.object_names()
    classes = class_layout(config)
    census: dict[int, int] = {cls.class_id: 0 for cls in classes}

    # One bulk draw per stream: Generator.choice/random fill an array
    # from the same doubles, in the same order, as n scalar calls.  The
    # disconnection stream is drawn only for subtractions.
    # ``workload.session`` stays scalar: its work-time draws interleave
    # with the outage and pause draws.
    n = config.n_transactions
    objects = rng_object.choice(config.n_objects, size=n,
                                p=config.gamma_vector()).tolist()
    subtractions = (rng_kind.random(n) < config.alpha).tolist()
    disconnect_draws = iter(
        rng_disconnect.random(sum(subtractions)).tolist())
    # frozen value objects: every transaction of a kind shares one
    subtraction = subtract(1)
    assignment = assign(config.assign_value)

    profiles: list[TransactionProfile] = []
    for index, (j, is_subtraction) in enumerate(zip(objects, subtractions)):
        label = index + 1  # the paper's λ ∈ 1..1000 arrival labels
        arrival = index * config.interarrival
        object_name = object_names[j]
        if is_subtraction:
            disconnects = next(disconnect_draws) < config.beta
            kind = (KIND_SUBTRACTION_DISCONNECTED if disconnects
                    else KIND_SUBTRACTION)
            invocation = subtraction
        else:
            disconnects = False
            kind = KIND_ASSIGNMENT
            invocation = assignment
        work_time = think.work_time(rng_session)
        outages: list[DisconnectionEvent] = []
        if disconnects:
            outages.extend(outage.plan(rng_session, work_time))
        if is_subtraction and config.inactivity_probability > 0:
            # the second sleep source: the user wanders off mid-booking
            pause = think.long_pause(
                rng_session,
                pause_probability=config.inactivity_probability,
                pause_mean=config.inactivity_pause_mean)
            if pause is not None:
                outages.append(DisconnectionEvent(
                    at_fraction=float(rng_session.uniform(0.05, 0.95)),
                    duration=pause))
        plan = SessionPlan(work_time=work_time, outages=tuple(outages))
        class_id = j * len(_KINDS) + _KINDS.index(kind)
        census[class_id] += 1
        profiles.append(single_step_profile(
            txn_id=f"T{label:04d}",
            arrival_time=arrival,
            object_name=object_name,
            invocation=invocation,
            plan=plan,
            kind=kind,
            class_id=class_id,
        ))

    workload = Workload(
        profiles=profiles,
        initial_values={name: config.initial_value
                        for name in object_names},
        description=(f"paper VI-B workload: n={config.n_transactions} "
                     f"alpha={config.alpha} beta={config.beta}"),
    )
    return GeneratedWorkload(workload=workload, classes=classes,
                             census=census, config=config)
