"""Self-test of the benchmark's tracer and oracles.

    python3 perfbench/selftest.py [--workload gen-monomial] [--seed 1]

1. Exact counts on a synthetic package: calls, nesting, self time and
   recursion on a call tree whose shape is known in advance, with the
   target bound under a second name by ``from .x import f``, and a
   target that does not exist.
2. The gen-monomial oracles on hand-checked ideals.
3. The host-speed probe: its rescaling arithmetic on fixed samples, and
   that it samples while its block runs and restores the signal state.
4. Two traced runs of one workload give identical counts: every
   ``.calls``, ``basis_elems``, ``row_ops``, ``rank_gain_ratio`` and
   ``ok_ratio``.  The program is deterministic, so drift is a tracer bug.
   The runs report exactly the ``per_layer`` metrics of BENCHMARK.json.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TOY_MODULES = {
    "__init__.py": "",
    "leaf.py": """
import time

def leaf(k):
    time.sleep(0.001)
    return k

def fact(n):
    return 1 if n <= 1 else n * fact(n - 1)

class Box:
    def put(self, k):
        return leaf(k)
""",
    "mid.py": """
from .leaf import Box, fact, leaf

def mid(n):
    box = Box()
    return sum(leaf(k) for k in range(n)) + box.put(n) + fact(4)
""",
}
TOY_TARGETS = {"leaf": ("leaf", "fact", "Box.put", "gone"), "mid": ("mid",),
               "absent": ("nothing",)}


def check_synthetic(work: Path) -> list:
    pkg = work / "toypkg"
    pkg.mkdir(parents=True)
    for name, text in TOY_MODULES.items():
        (pkg / name).write_text(text)
    sys.path.insert(0, str(work))
    import toypkg.mid
    t = tracer.Tracer()
    t.install("toypkg", TOY_TARGETS)
    t0 = time.perf_counter()
    toypkg.mid.mid(3)
    toypkg.mid.mid(2)
    elapsed = time.perf_counter() - t0
    spans = work / "toy-spans.npz"
    got = tracer.summarize(spans, t.save(spans))
    problems = []
    # mid(3): 3 leaf + put (1 leaf inside) + fact(4) (4 nested fact calls)
    want = {"leaf.leaf.calls": 3 + 1 + 2 + 1, "leaf.Box.put.calls": 2,
            "leaf.fact.calls": 8, "mid.mid.calls": 2}
    for k, v in want.items():
        if got[k] != v:
            problems.append(f"{k} = {got[k]}, expected {v}")
    if sorted(t.missing) != ["absent.nothing", "leaf.gone"]:
        problems.append(f"missing = {t.missing}")
    if not 0 <= got["mid.mid.total_s"] <= elapsed:
        problems.append("mid total outside the measured interval")
    own = sum(got[f"{n}.self_s"] for n in t.names)
    if abs(own - got["mid.mid.total_s"]) > 1e-9:
        problems.append(f"self times sum to {own}, not the root total")
    # fact only calls itself, so its outermost spans cover exactly its self time
    if abs(got["leaf.fact.total_s"] - got["leaf.fact.self_s"]) > 1e-9:
        problems.append("recursive fact counted more than once in total_s")
    if got["leaf.Box.put.self_s"] >= got["leaf.Box.put.total_s"]:
        problems.append("Box.put self time does not exclude its leaf child")
    return problems


def check_oracles() -> list:
    cases = [
        ([(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)],
         {"mu": 4, "height": 3, "analytic_spread": 3}),
        ([(2, 0, 1), (1, 1, 1), (0, 2, 1), (0, 0, 3)],
         {"mu": 4, "height": 1, "analytic_spread": 3}),
        ([(3, 0, 1), (2, 1, 1), (0, 3, 1), (1, 2, 1)],
         {"mu": 4, "height": 1, "analytic_spread": 2}),
        ([(4, 0, 0), (0, 4, 0), (2, 2, 0), (3, 1, 0)],
         {"mu": 4, "height": 2, "analytic_spread": 2}),
    ]
    problems = []
    for exps, want in cases:
        got = workloads.expected_invariants(exps)
        if got != want:
            problems.append(f"oracles on {exps}: {got}, expected {want}")
    batch = workloads.generate_batch(1, 1)
    if batch != workloads.generate_batch(1, 1):
        problems.append("generator is not a function of the seed")
    if not any(workloads.exponent_rank(e) == 2 for e in batch):
        problems.append("a batch has no ideal of analytic spread 2")
    return problems


def check_probe() -> list:
    problems = []
    ref = hostspeed.REF_PROBE_S
    probe = hostspeed.SpeedProbe()
    # One sample before the span, two inside it: at reference speed and
    # at half of it, so the span ran at 0.75 of the reference on average.
    probe.samples = [ref, ref, 2 * ref]
    speed = (1 + 1 + 0.5) / 3
    if abs(probe.speed() - speed) > 1e-12:
        problems.append(f"speed {probe.speed()}, expected {speed}")
    want = (1.0 - 3 * ref) * speed
    if abs(probe.ref_seconds(1.0) - want) > 1e-12:
        problems.append(f"ref_seconds(1.0) = {probe.ref_seconds(1.0)}, "
                        f"expected {want}")
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedProbe(0.01) as live:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
    if len(live.samples) < 10:
        problems.append(f"{len(live.samples)} samples in 0.2 s at a 0.01 s interval")
    if signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0):
        problems.append("the interval timer is still running")
    if signal.getsignal(signal.SIGALRM) is not before:
        problems.append("the SIGALRM handler was not restored")
    return problems


DETERMINISTIC = (".calls", ".basis_elems", ".row_ops", "rank_gain_ratio",
                 "ok_ratio")


def check_repeat(workload: str, seed: int, work: Path) -> list:
    run_work = work / "runs"
    run_work.mkdir()
    manifests, _ = run.prepare_inputs(workload, seed, run_work)
    deadline = time.monotonic() + 3600
    metrics = []
    for i in range(2):
        res = run.run_once(workload, manifests, run_work, f"traced{i}", deadline,
                           traced=True)
        if res is None:
            return [f"traced run {i} failed"]
        if any(it["problem"] for it in res["items"]):
            return [f"traced run {i} has failed items"]
        metrics.append(run.layer_metrics(res))
    problems = []
    for name, (value, _) in metrics[0].items():
        if name.endswith(DETERMINISTIC) and metrics[1][name][0] != value:
            problems.append(f"{name}: {value} then {metrics[1][name][0]}")
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    declared = {m["name"]: m["unit"] for m in declared}
    reported = {name: unit for name, (_, unit) in metrics[0].items()}
    reported["trace.overhead_ratio"] = "ratio"
    if reported != declared:
        problems.append(f"per_layer metrics differ from BENCHMARK.json: "
                        f"{sorted(set(reported.items()) ^ set(declared.items()))}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default=workloads.GEN_WORKLOAD,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    work = run.SCRATCH / f"selftest-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        problems = []
        for name, check in (("synthetic call tree", lambda: check_synthetic(work)),
                            ("oracles", check_oracles),
                            ("host-speed probe", check_probe),
                            (f"two traced runs of {args.workload}",
                             lambda: check_repeat(args.workload, args.seed, work))):
            found = check()
            print(f"{'FAIL' if found else 'ok'}: {name}")
            for p in found:
                print(f"    {p}")
            problems += found
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.SCRATCH.rmdir()
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
