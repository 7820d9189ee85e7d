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
    "ex-1-intersection": "a3e61a4a97ea",
    "ex-1-matrix6x5": "348803202db5",
    "ex-2.1-sixgen": "85cfbbfc1a27",
    "ex-2.2-sevengen": "f2741e587f15",
    "ex-3-monomial4": "0ebe99bb76b3",
    "ex-3-binomial4": "0968d34934a4",
    "ex-3-matrix5x4": "7dd3e0991f32",
}


def test_every_entry_is_pinned():
    assert sorted(DIGESTS) == sorted(e.id for e in CORPUS)


@pytest.mark.parametrize("entry_id", sorted(DIGESTS))
def test_report_digest(entry_id):
    data = json.dumps(strip_objects(compute_entry(entry_id)), sort_keys=True)
    assert hashlib.sha256(data.encode()).hexdigest()[:12] == DIGESTS[entry_id]
