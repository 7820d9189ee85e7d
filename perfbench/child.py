"""One cold run of one workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --manifest FILE --out FILE
                               [--setup-only] [--spans FILE]

Imports fiberlab from ``src/`` of the checkout this file sits in and
parses the inputs (the set-up), then runs the workload on them, then
checks every item.  Set-up and run are each timed by the clock
(``setup_clock_s``, ``wall_s``) and in reference seconds under a
host-speed probe (``setup_s``, ``run_s``; see ``hostspeed.py``).
The manifest lists the input files of a gen-monomial round with their
expected invariants; it is empty for a corpus entry.  Writes one JSON
object to FILE.  With ``--spans`` the run is traced and the spans are
written to that file.  Exits with EXIT_NO_PROGRAM when fiberlab cannot
be imported from the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXIT_NO_PROGRAM = 3

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from hostspeed import SpeedProbe  # noqa: E402

# Set-up takes about 0.2 s, so it is probed more often than a run.
SETUP_PROBE_INTERVAL_S = 0.01


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def import_program():
    """Import fiberlab from this checkout's source tree, or None."""
    sys.path.insert(0, str(SRC))
    try:
        import fiberlab
        from fiberlab import cli, corpus
        from fiberlab.parse import parse_ideal_file
    except ImportError as exc:
        print(f"cannot import fiberlab from {SRC}: {exc}", file=sys.stderr)
        return None
    if not Path(fiberlab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"fiberlab came from {fiberlab.__file__}, not {SRC}",
              file=sys.stderr)
        return None
    return cli, corpus, parse_ideal_file


def raised(exc) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def run_corpus(corpus, entry_id):
    """[(item, report bytes, report or the exception it raised)]."""
    try:
        report = corpus.strip_objects(corpus.compute_entry(entry_id))
    except Exception as exc:  # a failing item is counted, not fatal
        return [(entry_id, b"", exc)]
    return [(entry_id, json.dumps(report, sort_keys=True).encode(), report)]


def check_corpus(corpus, item, outcome) -> str | None:
    if isinstance(outcome, Exception):
        return raised(outcome)
    entry = corpus.CORPUS_BY_ID[item]
    diffs = corpus.compare_with_golden(outcome, corpus.load_golden(entry))
    if diffs:
        return f"{len(diffs)} golden diffs, first {diffs[0]}"
    return None


def run_cli(cli, files):
    """[(item, report bytes, exit code or the exception it raised)] for
    ``fiberlab invariants`` on each file."""
    out = []
    for path in files:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                outcome = cli.main(["invariants", str(path)])
            except SystemExit as exc:
                outcome = exc.code
            except Exception as exc:  # a failing item is counted, not fatal
                outcome = exc
        out.append((path.name, stdout.getvalue().encode(), outcome))
    return out


def check_cli(report_bytes, outcome, expected) -> str | None:
    if isinstance(outcome, Exception):
        return raised(outcome)
    if outcome != 0:
        return f"exit code {outcome}"
    try:
        inv = json.loads(report_bytes)["invariants"]
    except (ValueError, KeyError) as exc:
        return f"unreadable report: {exc}"
    wrong = {k: (inv.get(k), v) for k, v in expected.items() if inv.get(k) != v}
    return f"(got, expected) {wrong}" if wrong else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--manifest", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)

    manifest = json.loads(args.manifest.read_text())
    files = [args.manifest.parent / item["file"] for item in manifest]

    with SpeedProbe(SETUP_PROBE_INTERVAL_S) as probe:
        t0 = time.perf_counter()
        program = import_program()
        if program is None:
            return EXIT_NO_PROGRAM
        cli, corpus, parse_ideal_file = program
        entry_id = workloads.CORPUS_WORKLOADS.get(args.workload)
        if entry_id:
            texts = [corpus.read_entry_text(corpus.CORPUS_BY_ID[entry_id])]
        else:
            texts = [f.read_text() for f in files]
        for text in texts:
            parse_ideal_file(text)
        setup_clock_s = time.perf_counter() - t0
    result = {"setup_clock_s": setup_clock_s,
              "setup_s": probe.ref_seconds(setup_clock_s)}

    if not args.setup_only:
        tracer = None
        if args.spans:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        with SpeedProbe() as probe:
            t1 = time.perf_counter()
            if entry_id:
                outputs = run_corpus(corpus, entry_id)
            else:
                outputs = run_cli(cli, files)
            wall_s = time.perf_counter() - t1
        result.update(wall_s=wall_s, run_s=probe.ref_seconds(wall_s))
        if tracer is not None:
            result["trace"] = tracer.save(args.spans)

        items = []
        for i, (name, data, outcome) in enumerate(outputs):
            if entry_id:
                problem = check_corpus(corpus, name, outcome)
            else:
                problem = check_cli(data, outcome, manifest[i]["expected"])
            items.append({"item": name, "digest": digest(data),
                          "problem": problem})
        result["items"] = items
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024

    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
