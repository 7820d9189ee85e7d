"""fiberlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every process that runs fiberlab is a
fresh interpreter (``child.py``), started one at a time, so none inherits
warm caches (``corpus._REPORT_CACHE``, the ``lru_cache``s in ``graded``
and ``polyring``) or competes with another for a core.

A run is the workload's whole input: one child for a corpus entry, one
child per round of the gen-monomial batch.  Its ``run_s`` and ``wall_s``
are the sums of its children's times, its ``peak_rss_mb`` the median of
their peaks.  ``wall_s`` is clock time; ``run_s`` is the same span in
reference seconds, rescaled by a host-speed probe that samples the
child's own core while it runs (``hostspeed.py``), so that the drift of
a shared host's speed does not show as a change of the program.
``setup_s`` is measured the same way.

With ``--trace 0``: set-up samples first (import plus input parsing, in
children that do nothing else; the first compiles byte code and is
discarded), then whole runs, one after another.  A run always completes;
another starts only while it is predicted to end within ``--seconds``.
Reports the medians of ``run_s``, ``setup_s`` and ``peak_rss_mb``, and
prints the clock medians beside them.

With ``--trace 1``: one untraced and one traced run.  Reports the
per-layer metrics of the traced run (see ``tracer.py``) and
``trace.overhead_ratio``, traced over untraced ``run_s``.

Every item of every run is checked (golden diffs for corpus entries,
independent oracles for generated ideals), and every run of one
invocation must produce the same report bytes.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
WORKLOADS.md describes the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SCRATCH = ROOT / ".perfbench"
SETUP_SAMPLES = 10
GEN_ROUNDS = 3          # copies of the GEN_SHAPES mix in one gen-monomial batch
DEADLINE_S = 170        # the whole invocation ends within this

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402
from child import EXIT_NO_PROGRAM  # noqa: E402


class NoProgram(Exception):
    """fiberlab cannot be imported from this checkout."""


class RunFailed(Exception):
    """A child crashed, timed out or exited non-zero."""


def prepare_inputs(workload: str, seed: int, work: Path):
    """Write the input files and one manifest per child of a run; this
    happens before any timing.  Returns (manifest paths, item count)."""
    parts = [[]]
    if workload == workloads.GEN_WORKLOAD:
        batch = workloads.generate_batch(seed, GEN_ROUNDS)
        size = len(workloads.GEN_SHAPES)
        parts = [batch[i:i + size] for i in range(0, len(batch), size)]
    manifests = []
    for k, part in enumerate(parts):
        manifest = []
        for i, exps in enumerate(part):
            name = f"gen-{seed}-{k}-{i:02d}.ideal"
            (work / name).write_text(workloads.ideal_text(exps))
            manifest.append({"file": name,
                             "expected": workloads.expected_invariants(exps)})
        path = work / f"manifest-{k}.json"
        path.write_text(json.dumps(manifest))
        manifests.append(path)
    return manifests, max(1, sum(len(p) for p in parts))


def run_child(workload, manifest, out, deadline, setup_only=False, spans=None):
    """One cold child; returns its result dict."""
    cmd = [sys.executable, str(CHILD), "--workload", workload,
           "--manifest", str(manifest), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{out.stem} timed out") from None
    if proc.returncode == EXIT_NO_PROGRAM:
        sys.stderr.write(proc.stderr)
        raise NoProgram
    if proc.returncode != 0:
        raise RunFailed(f"{out.stem} exited with {proc.returncode}\n"
                        f"{proc.stderr[-4000:]}")
    return json.loads(out.read_text())


def run_once(workload, manifests, work, tag, deadline, traced=False):
    """One whole run; returns its combined result, or None if it failed."""
    parts = []
    try:
        for k, manifest in enumerate(manifests):
            spans = work / f"spans-{tag}-{k}.npz" if traced else None
            res = run_child(workload, manifest, work / f"{tag}-{k}.json",
                            deadline, spans=spans)
            res["spans"] = spans
            parts.append(res)
    except RunFailed as exc:
        print(f"run {tag} failed: {exc}", file=sys.stderr)
        return None
    return {"wall_s": sum(p["wall_s"] for p in parts),
            "run_s": sum(p["run_s"] for p in parts),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in parts),
            "items": [it for p in parts for it in p["items"]],
            "parts": parts}


def tally(runs, n_items):
    """(attempted, failed, report digest) over runs.  A failed run fails
    all its items; an item whose bytes differ from the first run fails."""
    attempted = failed = 0
    reference = None
    for res in runs:
        attempted += n_items
        if res is None:
            failed += n_items
            continue
        digests = [it["digest"] for it in res["items"]]
        reference = reference or digests
        for it, ref in zip(res["items"], reference):
            if it["problem"] or it["digest"] != ref:
                failed += 1
                print(f"FAILED {it['item']}: "
                      f"{it['problem'] or 'report bytes differ from the first run'}",
                      file=sys.stderr)
    if reference is None:
        whole = "none"
    elif len(reference) == 1:
        whole = reference[0]
    else:
        whole = hashlib.sha256("".join(reference).encode()).hexdigest()
    return attempted, failed, whole


def sample_setups(workload, manifest, work, deadline, tag, count):
    return [run_child(workload, manifest, work / f"setup-{tag}{i}.json",
                      deadline, setup_only=True)
            for i in range(count)]


def measure(workload, manifests, work, seconds, deadline, n_items):
    # The first set-up compiles byte code and is discarded.  Half the
    # samples come before the runs and half after, so that their median
    # is not set by the machine's speed in one moment.
    sample_setups(workload, manifests[0], work, deadline, "warm", 1)
    setups = sample_setups(workload, manifests[0], work, deadline, "a",
                           SETUP_SAMPLES // 2)
    runs = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        res = run_once(workload, manifests, work, f"run{len(runs)}", deadline)
        runs.append(res)
        took = time.monotonic() - t0
        if res is None or time.monotonic() - start + took > seconds \
                or time.monotonic() + took > deadline:
            break
    setups += sample_setups(workload, manifests[0], work, deadline, "b",
                            SETUP_SAMPLES - len(setups))
    ok = [r for r in runs if r is not None]
    attempted, failed, whole = tally(runs, n_items)
    print(f"{workload}: {len(runs)} run(s), {len(setups)} set-up samples, "
          f"report digest {whole[:12]}")
    if not ok:
        return attempted, failed, {}
    wall = statistics.median(r["wall_s"] for r in ok)
    setup_clock = statistics.median(s["setup_clock_s"] for s in setups)
    print(f"clock medians: wall_s = {wall:.6g} s, set-up = {setup_clock:.6g} s; "
          f"host speed {statistics.median(r['run_s'] / r['wall_s'] for r in ok):.3f} "
          f"of the reference")
    return attempted, failed, {
        "run_s": (statistics.median(r["run_s"] for r in ok), "s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in ok), "MB"),
    }


def layer_metrics(traced) -> dict:
    """Per-layer metrics of one traced run: name -> (value, unit)."""
    layer = {}
    for part in traced["parts"]:
        meta = part["trace"]
        if meta["missing"]:
            print(f"missing targets: {', '.join(meta['missing'])}")
        for name, value in tracer.summarize(part["spans"], meta).items():
            layer[name] = layer.get(name, 0) + value
    gains = layer.pop("linalg.Echelon.add.rank_gains")
    oks = layer.pop("depth.regular_cut.ok")
    metrics = {name: (value, "s" if name.endswith("_s") else "count")
               for name, value in layer.items()}
    metrics["linalg.Echelon.add.row_ops"] = (
        layer["linalg.Echelon.add.row_ops"], "computed-ops")
    # A ratio over zero calls reads 0; its .calls metric shows why.
    add_calls = layer.get("linalg.Echelon.add.calls", 0)
    cut_calls = layer.get("depth.regular_cut.calls", 0)
    metrics["linalg.Echelon.add.rank_gain_ratio"] = (
        gains / add_calls if add_calls else 0.0, "ratio")
    metrics["depth.regular_cut.ok_ratio"] = (
        oks / cut_calls if cut_calls else 0.0, "ratio")
    return metrics


def measure_traced(workload, manifests, work, deadline, n_items):
    plain = run_once(workload, manifests, work, "plain", deadline)
    traced = run_once(workload, manifests, work, "traced", deadline, traced=True)
    attempted, failed, whole = tally([plain, traced], n_items)
    print(f"{workload}: traced, report digest {whole[:12]}")
    if plain is None or traced is None:
        return attempted, failed, {}
    metrics = layer_metrics(traced)
    metrics["trace.overhead_ratio"] = (traced["run_s"] / plain["run_s"], "ratio")
    return attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running child and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    if not (ROOT / "src" / "fiberlab" / "__init__.py").is_file():
        print(f"no fiberlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        manifests, n_items = prepare_inputs(args.workload, args.seed, work)
        if args.trace:
            outcome = measure_traced(args.workload, manifests, work, deadline,
                                     n_items)
        else:
            outcome = measure(args.workload, manifests, work, args.seconds,
                              deadline, n_items)
    except NoProgram:
        return 2
    except RunFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()
    attempted, failed, metrics = outcome
    if not metrics:
        print("no run completed", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} items)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
