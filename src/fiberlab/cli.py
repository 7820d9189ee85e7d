"""Command-line surface.

    fiberlab invariants <file> [flags]
    fiberlab check <predicate> <file> [flags]
    fiberlab reproduce [id|all] [flags]

Reports are JSON with sorted keys (byte-deterministic for fixed input,
seeds and field); human tables via --markdown.  ``invariants`` runs the
corpus pipeline's ``basic`` plan, with the file's stem in its seeds; its
Cohen-Macaulay verdicts are depth = dimension on certified depth descents.

Exit codes:

    0  success, or a true verdict
    1  golden mismatch, or a false verdict
    2  input error
    3  a computation bound was exceeded: an ``invariants`` item skipped
       for a bound (a skip for a property of the input, such as a
       non-equigenerated ideal having no blow-up block, is not one), or a
       bounded search that ran out under any command, printed as
       ``bound exceeded: ...`` (a resolution not certified within
       --cutoff, seeded random draws that all missed, or a depth descent
       that ended without a certificate, which leaves a Cohen-Macaulay
       verdict undecided)
    4  unknown verdict
    5  internal error (a self-check failed, or another fault of the
       program), printed as ``internal error: ...``
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import corpus as corpus_mod
from .blowup import IdealContext
from .fields import FieldError
from .ideals import Ideal
from .parse import ParseError, parse_ideal_file
from .polyring import RingError
from .predicates import (analytically_adjusted, analytically_tight, check_gs,
                         fiber_indeg, generic_forms, generically_ci, is_perfect,
                         map_degree_via_formula, multiplicity_formula_checks,
                         regular_in_gr, tight_profile, valabrega_valla,
                         valla_dimension)
from .resolutions import BoundExceededError

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_BOUND = 3
EXIT_UNKNOWN = 4
EXIT_INTERNAL = 5

# Skips that state a property of the input, not an exceeded bound.
INPUT_SKIPS = frozenset({"blowup"})

CHECK_NAMES = ("gs", "valla-dim", "indeg", "tight", "adjusted", "vv",
               "reg-in-gr", "gen-ci", "perfect", "mult-formulas", "map-degree")


def _at_least(low: int):
    """argparse type: an int >= ``low``; anything else exits with code 2."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"      # argparse names the type in its message
    return parse


def _common_flags(p):
    p.add_argument("--field", type=int, default=None,
                   help="override the characteristic (0 for the rationals)")
    p.add_argument("--seed", type=str, default="1,2,3",
                   help="comma-separated seed list")
    p.add_argument("--cutoff", type=_at_least(1),
                   default=corpus_mod.DEFAULT_CUTOFF_CEILING,
                   help="ceiling on the certified regularity bound m of a resolution")
    p.add_argument("--markdown", action="store_true", help="render a human table")


def _rmax_flag(p):
    p.add_argument("--rmax", type=_at_least(0), default=corpus_mod.DEFAULT_RMAX,
                   help="reduction-number search bound")


def build_parser():
    ap = argparse.ArgumentParser(prog="fiberlab")
    sub = ap.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="blow-up invariants of an ideal file")
    p_inv.add_argument("file")
    p_inv.add_argument("--timings", action="store_true",
                       help="include wall-clock timing in the report")
    _common_flags(p_inv)
    _rmax_flag(p_inv)

    p_chk = sub.add_parser("check", help="run one named predicate")
    p_chk.add_argument("predicate", choices=CHECK_NAMES)
    p_chk.add_argument("file")
    p_chk.add_argument("--s", type=_at_least(1), default=3, help="s for the gs predicate")
    p_chk.add_argument("--n", type=_at_least(0), default=1,
                       help="power for tight (0: the whole profile)")
    p_chk.add_argument("--l", type=_at_least(1), default=None, help="forms for adjusted")
    p_chk.add_argument("--nmax", type=_at_least(1), default=None,
                       help="power bound for per-n checks")
    _common_flags(p_chk)

    p_rep = sub.add_parser("reproduce", help="rerun corpus entries against goldens")
    p_rep.add_argument("target", nargs="?", default="all")
    p_rep.add_argument("--jobs", type=_at_least(1), default=1)
    p_rep.add_argument("--nmax", type=_at_least(1), default=None,
                       help="power bound for per-n checks")
    _common_flags(p_rep)
    _rmax_flag(p_rep)
    return ap


def _emit(tree: dict, markdown: bool):
    if markdown:
        _render_markdown(tree)
    else:
        print(json.dumps(tree, sort_keys=True, indent=2, default=str))


def _render_markdown(tree, prefix=""):
    if prefix == "":
        print("| key | value |")
        print("| --- | --- |")
    for k in sorted(tree):
        v = tree[k]
        name = f"{prefix}{k}"
        if isinstance(v, dict):
            _render_markdown(v, name + ".")
        else:
            print(f"| {name} | {v} |")


def _load_ideal(path: str, field_char):
    """The file's ideal; a nonzero constant generator, which makes it the
    unit ideal, is refused here, once for every command."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    ring, gens = parse_ideal_file(text, characteristic_override=field_char)
    if any(g.terms.keys() == {0} for g in gens):     # 0 packs the monomial 1
        raise ValueError("the unit ideal has no blow-up algebras")
    return Ideal(ring, tuple(gens))


def _seeds(args):
    seeds = [int(s) for s in args.seed.split(",") if s.strip()]
    if not seeds:
        raise ValueError("--seed needs at least one seed")
    return seeds


def cmd_invariants(args) -> int:
    ideal = _load_ideal(args.file, args.field)
    t0 = time.time()
    entry = corpus_mod.CorpusEntry(Path(args.file).stem, args.file, "",
                                   plan="basic")
    report = corpus_mod.entry_report(entry, ideal, _seeds(args), r_max=args.rmax,
                                     cutoff=args.cutoff)
    if args.timings:
        report["timing_seconds"] = round(time.time() - t0, 3)
    else:
        print(f"elapsed {time.time() - t0:.2f}s", file=sys.stderr)
    _emit(report, args.markdown)
    return EXIT_BOUND if set(report["skipped"]) - INPUT_SKIPS else EXIT_OK


def cmd_check(args) -> int:
    ctx = IdealContext(_load_ideal(args.file, args.field), cutoff=args.cutoff)
    seeds = _seeds(args)
    nmax = corpus_mod.DEFAULT_NMAX_FLOOR if args.nmax is None else args.nmax
    name = args.predicate
    if name == "gs":
        rep = check_gs(ctx, args.s)
    elif name == "valla-dim":
        rep = valla_dimension(ctx)
    elif name == "indeg":
        rep = fiber_indeg(ctx)
    elif name == "perfect":
        rep = is_perfect(ctx)
    elif name == "gen-ci":
        rep = generically_ci(ctx)
    elif name == "mult-formulas":
        rep = multiplicity_formula_checks(ctx)
    elif name == "map-degree":
        rep = map_degree_via_formula(ctx)
    elif name == "tight":
        fs = generic_forms(ctx, ctx.spread, f"forms:{seeds[0]}")
        if args.n == 0:
            rep = tight_profile(ctx, fs, nmax)
        else:
            rep = analytically_tight(ctx, fs, args.n)
    elif name == "adjusted":
        fs = generic_forms(ctx, ctx.spread if args.l is None else args.l,
                           f"forms:{seeds[0]}")
        rep = analytically_adjusted(ctx, fs)
    elif name in ("vv", "reg-in-gr"):
        fs = generic_forms(ctx, ctx.ideal.height(), f"forms:{seeds[0]}")
        check = valabrega_valla if name == "vv" else regular_in_gr
        rep = check(ctx, fs, nmax)
    else:
        raise SystemExit(f"unknown predicate {name}")
    _emit(rep.to_json(), args.markdown)
    if rep.verdict == "true":
        return EXIT_OK
    if rep.verdict == "false":
        return EXIT_FALSE
    return EXIT_UNKNOWN


def cmd_reproduce(args) -> int:
    targets = [e.id for e in corpus_mod.CORPUS] if args.target == "all" \
        else [args.target]
    for t in targets:
        if t not in corpus_mod.CORPUS_BY_ID:
            print(f"unknown corpus id {t!r}", file=sys.stderr)
            return EXIT_INPUT
    seeds = _seeds(args)
    results = {}
    t0 = time.time()
    if args.jobs > 1 and len(targets) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futs = {t: pool.submit(_reproduce_one, t, args.field, tuple(seeds),
                                   args.nmax, args.rmax, args.cutoff)
                    for t in targets}
            for t in targets:
                results[t] = futs[t].result()
    else:
        for t in targets:
            results[t] = _reproduce_one(t, args.field, tuple(seeds), args.nmax,
                                        args.rmax, args.cutoff)
    any_diff = False
    out = {}
    for t in targets:
        diffs = results[t]
        out[t] = {"diffs": diffs, "ok": not diffs}
        if diffs:
            any_diff = True
    _emit(out, args.markdown)
    print(f"reproduce elapsed {time.time() - t0:.1f}s", file=sys.stderr)
    return EXIT_FALSE if any_diff else EXIT_OK


def _reproduce_one(entry_id, field, seeds, nmax, rmax, cutoff):
    """The entry's differences from its golden record."""
    report = corpus_mod.compute_entry(entry_id, field, seeds, nmax, rmax, cutoff)
    golden = corpus_mod.load_golden(corpus_mod.CORPUS_BY_ID[entry_id])
    return corpus_mod.compare_with_golden(corpus_mod.strip_objects(report), golden)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "invariants":
            return cmd_invariants(args)
        if args.command == "check":
            return cmd_check(args)
        if args.command == "reproduce":
            return cmd_reproduce(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (FieldError, RingError, FileNotFoundError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BoundExceededError as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (AssertionError, RuntimeError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
