#!/bin/sh
# Full local check, in order, stopping at the first failure:
#   0. no bare `assert` statement in the package: its self-checks raise
#      real errors, which `python -O` does not strip; no top-level
#      function or class of the package that is named nowhere but at its
#      own definition or in tests/, and no method (dunder names aside) of
#      a package class that is never read as an attribute (`.name`)
#      outside tests/, in the Python and shell files of src/, perfbench/
#      and tools/: code that only the tests call lives in the tests (the
#      names of perfbench/tracer.py's targets count as named there); no imported
#      name that its module in src/ or tests/ never reads (a name in
#      `__all__` or in a quoted annotation counts as read); no module of
#      the package but linalg.py that imports numpy, so that the rows of
#      both fields stay behind that one module; and no module of the
#      package but groebner.py and ideals.py that builds a
#      `GroebnerBasis(...)` or touches an ideal's `_gb_cache`, so that
#      every basis comes out of the engine and passes its closing
#      self-check;
#   1. the tier-1 suite, printing its ten slowest tests (ROADMAP's target
#      is the whole suite under 60 s);
#   2. the depth, Hilbert, Groebner, polynomial, graded-piece, ideal,
#      blow-up, predicate, resolution, CLI and linear-algebra tests (the
#      exactness of the kernel and of the normal-form products among
#      them), the sympy recheck of Example 2.2's depth and grade
#      certificates (`tests/test_acceptance_certificate.py`, which shares
#      no code with the depth engine) and the 7 report digests under
#      `python -O`, where a bare `assert` in the package would check
#      nothing; the digests and the linear-algebra tests again with
#      OPENBLAS_NUM_THREADS=2, so that no report depends on the BLAS
#      thread count (`linalg` sets 1 when the variable is unset) and the
#      kernel's oracle tests, not only the digests, run the threaded
#      product path;
#   3. the benchmark's self-test (tracer, oracles, host-speed probe);
#   4. the package's source-line total, `wc -l src/fiberlab/*.py`, which
#      the line budget in ROADMAP.md and CHANGES.md quote (printed, not a
#      gate).
#
#     sh tools/check.sh
#
# Runs from the root of the checkout wherever it is started; exits with the
# status of the first step that fails.
set -e
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH
python - <<'PY'
import ast, pathlib, re, sys
paths = sorted(pathlib.Path("src/fiberlab").rglob("*.py"))
bare = [f"{path}:{node.lineno}" for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)]
if bare:
    sys.exit("bare assert in the package:\n  " + "\n  ".join(bare))
numpy_users = [f"{path}:{node.lineno}" for path in paths
               if path != pathlib.Path("src/fiberlab/linalg.py")
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if any(name.split(".")[0] == "numpy" for name in
                      ([a.name for a in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""] if isinstance(node, ast.ImportFrom)
                       else []))]
if numpy_users:
    sys.exit("numpy imported outside linalg.py:\n  " + "\n  ".join(numpy_users))
engine = {pathlib.Path("src/fiberlab/groebner.py"), pathlib.Path("src/fiberlab/ideals.py")}
hand_made = [f"{path}:{node.lineno}" for path in paths if path not in engine
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if (isinstance(node, ast.Attribute) and node.attr == "_gb_cache")
             or (isinstance(node, ast.Call) and "GroebnerBasis" in (
                 getattr(node.func, "id", None), getattr(node.func, "attr", None)))]
if hand_made:
    sys.exit("basis built or cached outside the engine:\n  " + "\n  ".join(hand_made))
files = [p for d in ("src", "tests", "perfbench", "tools")
         for p in sorted(pathlib.Path(d).rglob("*")) if p.suffix in (".py", ".sh")]
lines = [(path, k, line) for path in files if path.parts[0] != "tests"
         for k, line in enumerate(path.read_text().splitlines(), 1)]
text = "\n".join(line for p, k, line in lines)
dead = []
for path in paths:
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(line) for p, k, line in lines
                       if (p, k) != (path, node.lineno)):
                dead.append(f"{path}:{node.lineno} {node.name}")
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not re.fullmatch(r"__\w+__", item.name)
                        and not re.search(rf"\.{item.name}\b", text)):
                    dead.append(f"{path}:{item.lineno} {node.name}.{item.name}")
if dead:
    sys.exit("named only at its definition or in tests:\n  " + "\n  ".join(dead))
unused = []
for path in [p for p in files if p.suffix == ".py" and p.parts[0] in ("src", "tests")]:
    tree = ast.parse(path.read_text(), str(path))
    notes = [n.returns if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
             else n.annotation for n in ast.walk(tree)
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.arg, ast.AnnAssign))]
    quoted = [ast.parse(n.value, mode="eval") for n in notes
              if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    read = {n.id for t in (tree, *quoted) for n in ast.walk(t)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    read |= {e.value for n in tree.body if isinstance(n, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets)
             for e in n.value.elts}
    unused += [f"{path}:{node.lineno} {name}" for node in ast.walk(tree)
               if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                   and node.module != "__future__")
               for name in (a.asname or a.name.split(".")[0] for a in node.names)
               if name not in read]
if unused:
    sys.exit("imported but never read:\n  " + "\n  ".join(unused))
PY
python -m pytest -q --continue-on-collection-errors --durations=10
python -O -m pytest -q tests/test_depth.py tests/test_hilbert.py tests/test_groebner.py \
    tests/test_polyring.py tests/test_graded.py tests/test_ideals.py \
    tests/test_blowup.py tests/test_predicates.py tests/test_resolutions.py \
    tests/test_cli.py tests/test_linalg.py tests/test_acceptance_certificate.py
OPENBLAS_NUM_THREADS=2 python -O -m pytest -q tests/test_report_digests.py tests/test_linalg.py
python3 perfbench/selftest.py
wc -l src/fiberlab/*.py | tail -n 1
