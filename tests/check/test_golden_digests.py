"""The eight golden digests: "same behaviour" is held by the suite.

Each pin is the rolling SHA-256 a harness keeps over 200 episodes at
seed 42, the campaigns CI runs.  What a pin sees depends on what its
harness hashes per episode:

- the three ``run_campaign`` pins and the service pin hash each
  episode's ``summary()``: the spec, the commit and abort counts and the
  verdicts.  They move when a count or a verdict moves, not when the
  schedule does;
- the four differential pins (``run_backend_differential_campaign`` per
  scheduler, ``run_differential_campaign`` for the GTM) hash every
  variant's full trace, permanent state and commit-order witness.  They
  move when the schedule moves.

The control leg flips the deadlock victim rule and shows the difference:
the two GTM trace pins move, and so do the two 2PL pins, since the 2PL
baseline is the GTM under the read/write matrix and its deadlocks span
objects often enough to move a count.  The other four hold.

A change that moves a pin on purpose updates it here in the same commit
and records old -> new in CHANGES.md, with the reason and the episodes
that moved (``run_episode`` and ``compare_episode`` replay one).
"""

import pytest

from repro.check.differential import (
    compare_episode,
    comparison_digest,
    run_backend_differential_campaign,
    run_differential_campaign,
)
from repro.check.fuzzer import FuzzConfig, generate_episode
from repro.check.runner import run_campaign, run_episode
from repro.check.service_fuzzer import ServiceFuzzConfig, run_service_campaign
from repro.core.deadlock import DeadlockPolicing, VictimPolicy

SEED = 42
EPISODES = 200

PINS = {
    "campaign gtm":
        "6ac8247c37f52b7059890dd63bee74b014f215f2948956cfcf235fcae2b67379",
    "campaign 2pl":
        "3407b196fd92abdc8a252cc6f4683192285013e0305bb0e48196bcadf1010317",
    "campaign optimistic":
        "f3fc9d1b68f9bc9edf5c2b51de5447d23338aea3c602d946f0928f9cfabaa144",
    "backend-diff gtm":
        "726ccf33e5a2e8b07f9e41006a797c6c01ce0b7a55f4925cf2b1af34a6a1e401",
    "backend-diff 2pl":
        "c7c345f87597df86bd1ef4c80295b2935848a1fd7700fdfa342708f805ae6641",
    "backend-diff optimistic":
        "d31f645d9c27c01b451cfcda8052bed009da02accd8e5d8c9f90c68482ee28ae",
    "engine-diff gtm":
        "ccb83e60659cbf0ad721ab1d940eac0623e52cb75e8d8f96bda4989b0bf10bb4",
    "service":
        "b846ecf06ac048438b2fc98f3de6bbc92bafdef08269a36367ad271169eaebcc",
}

#: The differential mode behind each GTM trace pin.
TRACE_PIN_MODES = {"backend-diff gtm": "backend", "engine-diff gtm": "engine"}

#: The pins of the 2PL baseline, whose GTM detects deadlocks too.
TWOPL_PINS = ("campaign 2pl", "backend-diff 2pl")


def _digest(pin: str) -> str:
    if pin == "service":
        return run_service_campaign(ServiceFuzzConfig(), SEED, EPISODES,
                                    shrink_failures=False).digest
    harness, scheduler = pin.split()
    config = FuzzConfig(scheduler=scheduler)
    if harness == "campaign":
        return run_campaign(config, SEED, EPISODES,
                            shrink_failures=False).digest
    if harness == "backend-diff":
        return run_backend_differential_campaign(config, SEED,
                                                 EPISODES).digest
    return run_differential_campaign(config, SEED, EPISODES).digest


def _oldest_victim(patch: pytest.MonkeyPatch) -> None:
    """The mutant: the deadlock victim rule picks the oldest."""
    patch.setattr(DeadlockPolicing, "victim_policy", VictimPolicy.OLDEST)


@pytest.mark.parametrize("pin", PINS)
def test_pin_holds(pin):
    assert _digest(pin) == PINS[pin]


@pytest.mark.parametrize(
    "pin", [pin for pin in PINS
            if pin not in TRACE_PIN_MODES and pin not in TWOPL_PINS])
def test_a_victim_flip_keeps_the_pin(pin, monkeypatch):
    """Summaries do not see which transaction a deadlock killed, and
    the optimistic baseline runs no GTM."""
    _oldest_victim(monkeypatch)
    assert _digest(pin) == PINS[pin]


def _first_moved_episode(pin: str, episode_digest) -> None:
    """Walk the pin's episodes until the flip moves one.  The rolling
    digest hashes every episode, so that episode moves the pin; the
    walk stops there rather than rerunning all 200 under the mutant."""
    config = FuzzConfig(scheduler=pin.split()[1])
    for index in range(EPISODES):
        spec = generate_episode(config, SEED, index)
        intact = episode_digest(spec)
        with pytest.MonkeyPatch.context() as patch:
            _oldest_victim(patch)
            flipped = episode_digest(spec)
        if flipped != intact:
            return
    pytest.fail(f"{pin}: no episode moved under the OLDEST victim rule")


@pytest.mark.parametrize("pin", TRACE_PIN_MODES)
def test_a_victim_flip_moves_the_trace_pin(pin):
    mode = TRACE_PIN_MODES[pin]
    _first_moved_episode(pin, lambda spec: comparison_digest(
        compare_episode(spec, mode=mode)))


@pytest.mark.parametrize("pin", TWOPL_PINS)
def test_a_victim_flip_moves_the_2pl_pin(pin):
    if pin.startswith("campaign"):
        _first_moved_episode(pin, lambda spec: run_episode(spec).summary())
    else:
        _first_moved_episode(pin, lambda spec: comparison_digest(
            compare_episode(spec, mode="backend")))
