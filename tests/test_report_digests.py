"""The corpus report bytes, pinned.

Each entry's stripped report, serialized the way ``perfbench`` and
``reproduce`` see it, must keep its sha256 prefix: a refactor of the
pipeline may not move any reported value, key or seed.  The reports
come from ``corpus._REPORT_CACHE`` when the acceptance tests ran first.
"""

import hashlib
import json

import pytest

from fiberlab.corpus import CORPUS, compute_entry, strip_objects

DIGESTS = {
    "ex-1-intersection": "4f82e7ecae2d",
    "ex-1-matrix6x5": "b5ab012fbcd1",
    "ex-2.1-sixgen": "29cdb6b41814",
    "ex-2.2-sevengen": "8e55da6faf3d",
    "ex-3-monomial4": "94abc85ac7ff",
    "ex-3-binomial4": "a189c477fe10",
    "ex-3-matrix5x4": "a9c8c85215fa",
}


def test_every_entry_is_pinned():
    assert sorted(DIGESTS) == sorted(e.id for e in CORPUS)


@pytest.mark.parametrize("entry_id", sorted(DIGESTS))
def test_report_digest(entry_id):
    data = json.dumps(strip_objects(compute_entry(entry_id)), sort_keys=True)
    assert hashlib.sha256(data.encode()).hexdigest()[:12] == DIGESTS[entry_id]


SECOND_PRIME = 67108859


def _field_free(report):
    """A copy of a stripped report without the keys that name the field:
    ``field``, ``invariants.fingerprint`` and each predicate's
    ``inputs.ideal`` (a hash of the ring, field included)."""
    rep = json.loads(json.dumps(strip_objects(report), sort_keys=True))
    del rep["field"], rep["invariants"]["fingerprint"]
    for pred in rep["predicates"].values():
        del pred["inputs"]["ideal"]
    return rep


@pytest.mark.parametrize("entry_id", sorted(DIGESTS))
def test_second_prime_gives_the_same_report(entry_id):
    """A differential test over two primes: every entry's report over
    GF(67108859) equals its report over GF(32003) in every key but the
    ones that name the field.  The paper works over an infinite field,
    so a value that moved with a large prime would be a fault of the
    program, or a draw that missed general position."""
    other = compute_entry(entry_id, SECOND_PRIME)
    assert other["field"] == SECOND_PRIME
    assert _field_free(other) == _field_free(compute_entry(entry_id))
