"""Property tests for commitment-ordering certification.

The manager externalizes every commit at one point, under one commit
sequence number, so the per-object version orders can never disagree —
the seeded campaigns here drive random multi-object commits through
``externalize`` and assert every object's stamps follow the one order.
The remaining tests pin the read side (the sticky pin, served versions)
and the one order check that is *not* structural: snapshot-promotion
certification, including the ``validate_promotions=False``
fault-injection seam the oracle test relies on.
"""

import random

import pytest

from repro.core.mvcc import CommitmentOrderCertifier
from repro.errors import CertificationError
from repro.ldbs.versions import Version

OBJECTS = tuple(f"o{index}" for index in range(6))


@pytest.mark.parametrize("seed", range(25))
def test_externalized_orders_never_invert(seed):
    """Seeded multi-object commits: csns are the commit's position in
    the one order, so the transactions that stamped any two objects
    appear in the same relative order on both, and ``object_csn`` names
    each object's newest stamp."""
    rng = random.Random(seed)
    certifier = CommitmentOrderCertifier()
    stamps = {name: [] for name in OBJECTS}
    for position in range(1, 41):
        touched = rng.sample(OBJECTS, k=rng.randint(0, len(OBJECTS)))
        assert certifier.externalize(f"t{position:03d}", touched) \
            == position
        for name in touched:
            stamps[name].append(position)
    assert certifier.csn == 40
    for name, csns in stamps.items():
        assert csns == sorted(csns)
        assert certifier.object_csn.get(name, 0) == (csns or [0])[-1]


def test_externalize_assigns_csns_and_tracks_newest_versions():
    certifier = CommitmentOrderCertifier()
    assert certifier.externalize("t1", ["x", "y"]) == 1
    assert certifier.externalize("t2", ["x"]) == 2
    assert certifier.externalize("reader", []) == 3  # stamps nothing
    assert certifier.object_csn == {"x": 2, "y": 1}


def test_a_pin_is_sticky_per_transaction():
    """The first lock-free read pins the current csn; later reads reuse
    it whatever commits in between, other transactions pin fresh."""
    certifier = CommitmentOrderCertifier()
    assert certifier.pin("a") == 0
    certifier.externalize("w", ["x"])
    assert certifier.pin("a") == 0
    assert certifier.pin("b") == 1


def test_promotion_certification_rejects_stale_snapshots():
    certifier = CommitmentOrderCertifier()
    certifier.record_served("r", "x", Version(0, {"value": 1}))
    certifier.externalize("w", ["x"])
    with pytest.raises(CertificationError):
        certifier.certify_promotion("r", "x")
    assert certifier.promotions_checked == 1
    assert certifier.promotions_rejected == 1


def test_promotion_certification_passes_current_snapshots():
    certifier = CommitmentOrderCertifier()
    certifier.externalize("w", ["x"])
    certifier.record_served("r", "x", Version(1, {"value": 2}))
    certifier.certify_promotion("r", "x")
    certifier.certify_promotion("r", "y")  # nothing served: a no-op
    assert certifier.promotions_checked == 1
    assert certifier.promotions_rejected == 0


def test_disabled_validation_skips_the_order_check_only():
    """The fault-injection seam: the check is counted but never fires."""
    certifier = CommitmentOrderCertifier(validate_promotions=False)
    certifier.record_served("r", "x", Version(0, {"value": 1}))
    certifier.externalize("w", ["x"])
    certifier.certify_promotion("r", "x")  # stale, yet no raise
    assert certifier.promotions_checked == 1
    assert certifier.promotions_rejected == 0


def test_forget_drops_pins_and_served_versions():
    certifier = CommitmentOrderCertifier()
    certifier.pin("r")
    certifier.record_served("r", "x", Version(0, {"value": 1}))
    certifier.externalize("w", ["x"])
    certifier.forget("r")
    assert certifier.served_version("r", "x") is None
    assert certifier.pin("r") == 1  # re-pins at the current csn
