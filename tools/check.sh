#!/bin/sh
# Full local check, in order, stopping at the first failure:
#   1. the tier-1 suite;
#   2. the depth, Hilbert, Groebner, polynomial, graded-piece, ideal,
#      blow-up, predicate, resolution and CLI tests under `python -O`,
#      where a bare `assert` in the package would check nothing;
#   3. the benchmark's self-test (tracer, oracles, host-speed probe).
#
#     sh tools/check.sh
#
# Runs from the root of the checkout wherever it is started; exits with the
# status of the first step that fails.
set -e
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH
python -m pytest -q --continue-on-collection-errors
python -O -m pytest -q tests/test_depth.py tests/test_hilbert.py tests/test_groebner.py \
    tests/test_polyring.py tests/test_graded.py tests/test_ideals.py \
    tests/test_blowup.py tests/test_predicates.py tests/test_resolutions.py \
    tests/test_cli.py
python3 perfbench/selftest.py
