"""Exit code of every corpus entry over the small primes 3, 5 and 7.

    python3 tools/small_primes.py

Runs ``fiberlab reproduce <id> --field p`` for every corpus entry and
p in {3, 5, 7}, one fresh process at a time, from the ``src/`` of this
checkout.  That is ``corpus.compute_entry(id, p)`` compared with the
goldens, with the exit code ``cli.main`` maps the outcome to: 0 goldens
match, 1 golden diffs, 2 input error, 3 bound exceeded, 5 internal
error.  Prints one line per run (its exit code, clock seconds and the
first line of its standard error), then a table of the entries by prime
and exit code.  Takes no options, and always exits 0: it is a survey,
not a gate.  A full run takes several minutes on a 2-core host.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fiberlab.corpus import CORPUS  # noqa: E402

PRIMES = (3, 5, 7)
EXITS = {0: "goldens match", 1: "golden diffs", 2: "input error",
         3: "bound exceeded", 5: "internal error"}


def main():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cells = {}
    for p in PRIMES:
        for entry in CORPUS:
            t0 = time.perf_counter()
            out = subprocess.run([sys.executable, "-m", "fiberlab.cli", "reproduce",
                                  entry.id, "--field", str(p)],
                                 capture_output=True, text=True, env=env)
            seconds = time.perf_counter() - t0
            cause = next((line for line in out.stderr.splitlines()
                          if not line.startswith("reproduce elapsed")), "")
            cells.setdefault(p, {}).setdefault(out.returncode, []).append(
                f"{entry.id} ({seconds:.1f} s)")
            print(f"p={p} {entry.id}: exit {out.returncode} in {seconds:.1f} s"
                  + (f"  {cause}" if cause else ""), flush=True)
    codes = sorted(set(EXITS) | {c for row in cells.values() for c in row})
    print()
    print("| p | " + " | ".join(f"exit {c} ({EXITS.get(c, '?')})" for c in codes) + " |")
    print("| --- |" + " --- |" * len(codes))
    for p in PRIMES:
        print(f"| {p} | " + " | ".join(", ".join(cells[p].get(c, [])) or "-"
                                       for c in codes) + " |")


if __name__ == "__main__":
    main()
