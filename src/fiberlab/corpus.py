"""Bundled worked examples with golden expectations, and the report
pipeline they share with ``fiberlab invariants``.

Each entry carries an input file, a per-entry computation plan (see
``entry_report``; the 6x5-matrix entry runs the bounded plan: its Rees
elimination, from which the fiber presentation is read, is out of
budget, so the analytic spread comes from the Jacobian squeeze; every
plan reads the relation dimensions off mu(I^n) = dim_k [I^n]_{nd}), and a
golden record whose values are tagged literature / trivial / derived.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .blowup import IdealContext, fiber_truncated, minimal_reduction
from .depth import GRADE_CANDIDATE_DEGREE
from .graded import linear_rank
from .ideals import Ideal
from .parse import parse_ideal_file
from .predicates import (FormSequence, analytically_adjusted, check_gs,
                         fiber_indeg, generic_forms, generically_ci,
                         ideal_fingerprint, is_perfect, map_degree_via_formula,
                         multiplicity_formula_checks, tight_profile,
                         valabrega_valla, valla_dimension)


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    filename: str
    description: str
    plan: str                   # "full" | "basic" | "bounded-blowup"
    gs_values: tuple = ()
    run_valla: bool = False
    run_map_degree: bool = False
    n_max_override: int | None = None


CORPUS = [
    CorpusEntry("ex-1-intersection", "ex-1-intersection.ideal",
                "intersection of two fat triple lines; symmetric-algebra dimension",
                plan="basic", run_valla=True),
    CorpusEntry("ex-1-matrix6x5", "ex-1-matrix6x5.ideal",
                "6x5 staircase minors, degree 6 in four variables",
                plan="bounded-blowup", gs_values=(3, 4), n_max_override=2),
    CorpusEntry("ex-2.1-sixgen", "ex-2.1-sixgen.ideal",
                "six monomial sextics; almost Cohen-Macaulay fiber and gr",
                plan="full", run_map_degree=True),
    CorpusEntry("ex-2.2-sevengen", "ex-2.2-sevengen.ideal",
                "seven monomial sextics; tight but non-CM fiber",
                plan="full", run_map_degree=True),
    CorpusEntry("ex-3-monomial4", "ex-3-monomial4.ideal",
                "four monomial quadrics; CM Rees algebra, reduction number one",
                plan="full"),
    CorpusEntry("ex-3-binomial4", "ex-3-binomial4.ideal",
                "binomial perturbation; non-CM Rees algebra, reduction number two",
                plan="full"),
    CorpusEntry("ex-3-matrix5x4", "ex-3-matrix5x4.ideal",
                "5x4 staircase minors; CM fiber cut by cubics",
                plan="full", gs_values=(3,), run_map_degree=True),
]

CORPUS_BY_ID = {e.id: e for e in CORPUS}

DEFAULT_SEEDS = (1, 2, 3)
DEFAULT_NMAX_FLOOR = 5
DEFAULT_RMAX = 12
DEFAULT_CUTOFF_CEILING = 60


def read_entry_text(entry: CorpusEntry) -> str:
    return resources.files("fiberlab.corpus_data").joinpath(entry.filename).read_text()


def load_entry_ideal(entry: CorpusEntry, field_char: int | None = None) -> Ideal:
    ring, gens = parse_ideal_file(read_entry_text(entry),
                                  characteristic_override=field_char)
    return Ideal(ring, tuple(gens))


_REPORT_CACHE = {}


def compute_entry(entry_id: str, field_char: int | None = None,
                  seeds=DEFAULT_SEEDS, n_max: int | None = None,
                  r_max: int = DEFAULT_RMAX,
                  cutoff: int = DEFAULT_CUTOFF_CEILING) -> dict:
    """Full report tree for one corpus entry; deterministic for fixed
    (entry, field, seeds, bounds), and cached on that key."""
    key = (entry_id, field_char, tuple(seeds), n_max, r_max, cutoff)
    if key not in _REPORT_CACHE:
        entry = CORPUS_BY_ID[entry_id]
        report = entry_report(entry, load_entry_ideal(entry, field_char), seeds,
                              n_max, r_max, cutoff)
        _REPORT_CACHE[key] = {"id": entry.id, "description": entry.description,
                              **report}
    return _REPORT_CACHE[key]


def entry_report(entry: CorpusEntry, ideal: Ideal, seeds=DEFAULT_SEEDS,
                 n_max: int | None = None, r_max: int = DEFAULT_RMAX,
                 cutoff: int = DEFAULT_CUTOFF_CEILING) -> dict:
    """Report tree of one ideal under its entry's plan, over one
    ``IdealContext``; ``entry.id`` names the ideal in every seed.

    Every plan starts with the ideal-level block (generators, dimension,
    resolution, perfectness, the entry's G_s / Valla / generic-CI
    predicates).  For an equigenerated ideal the plan then adds:

    - ``basic``: the invariants read off the fiber and Rees presentations
      (analytic spread, fiber multiplicity, reduction numbers, and the
      fiber and Rees CM verdicts, depth = dimension on the certified
      depth descents), and the relation dimensions and indeg read off
      mu(I^n) = dim_k [I^n]_{nd} and checked against the fiber
      presentation;
    - ``full``: basic, plus the fiber resolution, the depth, grade and
      codimension values (the fiber's depth by Auslander-Buchsbaum, held
      to its descent), the seeded tight / VV / adjusted predicates and
      the formula checks;
    - ``bounded-blowup``: relation dimensions and indeg from mu(I^n)
      alone, the Jacobian spread, a capped reduction search,
      the seeded tight / adjusted predicates and the formula checks.
    """
    ctx = IdealContext(ideal, entry.id, cutoff=cutoff,
                       bounded=entry.plan == "bounded-blowup")
    report = {
        "field": ideal.ring.field.characteristic,
        "seeds": list(seeds),
        "bounds": {"r_max": r_max, "cutoff_ceiling": cutoff},
        "skipped": {},
        "invariants": {},
        "predicates": {},
    }
    _ideal_block(ctx, entry, report)
    if ctx.degree is None:
        report["skipped"]["blowup"] = "ideal is not equigenerated"
        return report
    n_max = n_max or entry.n_max_override or DEFAULT_NMAX_FLOOR
    if ctx.bounded:
        _bounded_blowup(ctx, report, list(seeds), n_max, r_max)
    else:
        _blowup(ctx, entry, report, list(seeds), n_max, r_max)
    if entry.plan != "basic" and ideal.height() == 2 and is_perfect(ctx).is_true:
        report["predicates"]["mult-formulas"] = \
            multiplicity_formula_checks(ctx).to_json()
        if entry.run_map_degree:
            report["predicates"]["map-degree"] = \
                map_degree_via_formula(ctx).to_json()
    return report


def _ideal_block(ctx, entry, report):
    ideal = ctx.ideal
    inv = report["invariants"]
    preds = report["predicates"]
    inv["mu"] = len(ctx.mingens)
    inv["generator_degrees"] = sorted({g.homogeneous_degree() for g in ctx.mingens})
    inv["degree"] = ctx.degree
    inv["dim"] = ideal.krull_dimension()
    inv["height"] = ideal.height()
    inv["multiplicity"] = ideal.multiplicity()
    inv["fingerprint"] = ideal_fingerprint(ideal)
    preds["perfect"] = is_perfect(ctx).to_json()

    # resolution-side data over the small polynomial ambient
    res = ctx.resolution
    if res.table.complete:
        inv["pd"] = res.table.projective_dimension
        inv["depth_quotient"] = ideal.ring.nvars - res.table.projective_dimension
        inv["regularity_quotient"] = res.table.regularity()
        inv["betti"] = res.table.rows()
        inv["presentation_column_degrees"] = sorted(res.presentation.column_degrees)
        if ctx.degree is not None:
            inv["linear_rank"] = linear_rank(res.presentation)
    else:
        report["skipped"]["resolution"] = f"incomplete at cutoff {res.table.ceiling}"

    for s in entry.gs_values:
        preds[f"gs-{s}"] = check_gs(ctx, s).to_json()
    if entry.run_valla:
        preds["valla-dim"] = valla_dimension(ctx).to_json()
    if ideal.height() == 2 and res.table.complete:
        preds["gen-ci"] = generically_ci(ctx).to_json()


def _blowup(ctx, entry, report, seeds, n_max, r_max):
    """The basic and full plans, from the fiber and Rees presentations."""
    inv = report["invariants"]
    preds = report["predicates"]
    fp = ctx.fp
    inv["analytic_spread"] = ctx.spread
    inv["analytic_spread_method"] = "fiber-dimension"
    inv["fiber_multiplicity"] = fp.multiplicity()
    inv["relation_dims"] = {str(n): v for n, v in fiber_truncated(ctx, 4).items()}
    indeg = fiber_indeg(ctx)
    preds["indeg"] = indeg.to_json()
    inv["indeg_Q"] = indeg.certificate["indeg"]
    inv["fiber_cm"] = "CM" if ctx.fiber_cm else "NOT_CM"
    inv["rees_cm"] = "CM" if ctx.rees_cm else "NOT_CM"

    # one drawn sequence per seed serves as the reduction candidate, the
    # tightness sequence and (its prefix) the Valabrega-Valla input
    forms = {seed: generic_forms(ctx, ctx.spread, f"{ctx.label}:forms:{seed}")
             for seed in seeds}
    reduce_forms = ctx.spread < len(ctx.mingens)
    reductions = {seed: minimal_reduction(ctx, seed=f"{ctx.label}:red:{seed}",
                                          r_max=r_max,
                                          forms=fs.forms if reduce_forms else None)
                  for seed, fs in forms.items()}
    red_numbers = [reductions[seed].reduction_number for seed in seeds]
    n_max = max((red_numbers[0] or 0) + 2, n_max)
    ctx.forget(keep_powers=n_max)   # what tightness and VV read
    inv["reduction_numbers"] = red_numbers
    inv["reduction_number"] = red_numbers[0] if len(set(red_numbers)) == 1 else None
    inv["reduction_stable"] = len(set(red_numbers)) == 1
    unfound = [seed for seed, r in zip(seeds, red_numbers) if r is None]
    if unfound:
        report["skipped"]["reduction_number"] = \
            f"not found <= {r_max} for seeds {unfound}"
    if entry.plan != "full":
        return

    _depth_block(ctx, report)
    report["bounds"]["n_max"] = n_max
    g = ctx.ideal.height()
    tight, vv = {}, {}
    for seed, fs in forms.items():
        tight[seed] = tight_profile(ctx, fs, n_max)
        prefix = FormSequence(fs.forms[:g], fs.provenance,
                              fs.coefficients[:g] if fs.coefficients else None)
        vv[seed] = valabrega_valla(ctx, prefix, n_max)
        preds[f"tight:seed{seed}"] = tight[seed].to_json()
        preds[f"vv:seed{seed}"] = vv[seed].to_json()
        preds[f"adjusted:seed{seed}"] = analytically_adjusted(ctx, fs).to_json()
        ctx.forget(keep_powers=n_max)
    report["_objects"] = {
        "id": ctx.label, "ideal": ctx.ideal, "fp": fp, "rees": ctx.pres,
        "fiber_cm": ctx.fiber_cm, "rees_cm": ctx.rees_cm, "seeds": seeds,
        "forms": forms, "reductions": reductions,
        "tight": tight, "vv_prefix": vv, "indeg": indeg,
    }


def _depth_block(ctx, report):
    """Depths of the fiber (Auslander-Buchsbaum on its certified
    resolution, which must equal the depth of its descent), the Rees
    algebra when it is not CM (its descent) and gr (``ctx.gr_depth``: the
    descent, stopped at dim gr - 1 when the grade of gr+ shows that gr is
    not CM), grade and codim of gr+, with gr+ generated by the w-variables
    (``ReesPresentation.wvars``).  When gr is not CM, the Rees algebra
    must be one deeper (Huckaba-Marley)."""
    inv = report["invariants"]
    fp = ctx.fp
    fres = ctx.fiber_resolution
    if fres.table.complete:
        inv["depth_fiber"] = fp.ring.nvars - fres.table.projective_dimension
        if inv["depth_fiber"] != ctx.fiber_depth.value:
            raise AssertionError(f"fiber depth {inv['depth_fiber']} by Auslander-Buchsbaum, "
                                 f"{ctx.fiber_depth.value} by the descent")
        inv["regularity_fiber"] = fres.table.regularity()
        inv["fiber_relation_degrees"] = sorted(
            g.homogeneous_degree() for g in fp.minimal_generators())
    else:
        report["skipped"]["fiber_resolution"] = \
            f"incomplete at cutoff {fres.table.ceiling}"
    if not ctx.rees_cm:
        inv["depth_rees"] = ctx.rees_depth.value
    dgr = ctx.gr_depth
    if dgr.exact:
        inv["depth_gr"] = dgr.value
        # Huckaba-Marley: R = k[x] is CM and ht I > 0, so when gr is not
        # CM, depth R(I) = depth gr + 1 (D23)
        if dgr.value < dgr.dimension and ctx.rees_depth.value != dgr.value + 1:
            raise AssertionError(f"depth R(I) = {ctx.rees_depth.value} by the descent, but gr "
                                 f"is not CM of depth {dgr.value} (Huckaba-Marley)")
    else:
        report["skipped"]["depth_gr"] = "descent inconclusive within bounds"
    inv["grade_gr_plus"] = ctx.gr_plus_grade.value
    inv["grade_gr_plus_bound"] = GRADE_CANDIDATE_DEGREE
    inv["gr_plus_codim"] = ctx.gr_plus_codim


def _bounded_blowup(ctx, report, seeds, n_max, r_max):
    """Matrix entry whose Rees elimination exceeds the budget: fiber
    relation dimensions through degree 4, Jacobian-squeezed spread,
    piece-level reductions."""
    inv = report["invariants"]
    preds = report["predicates"]
    skipped = report["skipped"]

    known = 4
    inv["relation_dims"] = {str(n): v for n, v in fiber_truncated(ctx, known).items()}
    indeg = fiber_indeg(ctx, up_to=known)
    preds["indeg"] = indeg.to_json()
    inv["indeg_Q"] = indeg.certificate["indeg"]
    inv["fiber_relations_known_through"] = known

    lower, exact = ctx.jacobian_spread
    if exact:
        inv["analytic_spread"] = lower
        inv["analytic_spread_method"] = "jacobian-rank squeeze at dim R"
    else:
        inv["analytic_spread_lower_bound"] = lower
        skipped["analytic_spread"] = "jacobian bound below dim R; fiber not eliminated"
    skipped["fiber_cm"] = "full fiber presentation out of budget"
    skipped["rees"] = "full Rees presentation out of budget"

    capped_rmax = min(r_max, 3)     # degree-(r+1)d pieces outgrow the budget fast
    red_number = None
    if ctx.spread is not None and seeds:
        forms = {seed: generic_forms(ctx, ctx.spread, f"{ctx.label}:forms:{seed}")
                 for seed in seeds}
        red_number = minimal_reduction(ctx, seed=f"{ctx.label}:red:{seeds[0]}",
                                       r_max=capped_rmax,
                                       forms=forms[seeds[0]].forms).reduction_number
        ctx.forget(keep_powers=n_max)   # what tightness reads
        for seed, fs in forms.items():
            preds[f"tight:seed{seed}"] = tight_profile(ctx, fs, n_max).to_json()
            preds[f"adjusted:seed{seed}"] = analytically_adjusted(ctx, fs).to_json()
            ctx.forget(keep_powers=n_max)
    if red_number is not None:
        inv["reduction_number"] = red_number
    else:
        skipped["reduction_number"] = f"not found <= {capped_rmax} (search capped)"
    report["bounds"]["r_max_effective"] = capped_rmax


# ---------------------------------------------------------------------------
# goldens

def golden_path(entry: CorpusEntry):
    return resources.files("fiberlab.corpus_data").joinpath(
        entry.filename.replace(".ideal", ".golden.json"))


def load_golden(entry: CorpusEntry) -> list:
    return json.loads(golden_path(entry).read_text())


def lookup_path(tree: dict, dotted: str):
    node = tree
    for part in dotted.split("."):
        if isinstance(node, dict) and part in node:
            node = node[part]
        else:
            return None, False
    return node, True


def compare_with_golden(report: dict, golden: list) -> list:
    """Structured diff: one record per mismatching golden expectation."""
    diffs = []
    for item in golden:
        value, found = lookup_path(report, item["path"])
        if not found:
            diffs.append({"path": item["path"], "expected": item["value"],
                          "actual": None, "source": item.get("source", ""),
                          "problem": "missing"})
        elif value != item["value"]:
            diffs.append({"path": item["path"], "expected": item["value"],
                          "actual": value, "source": item.get("source", ""),
                          "problem": "mismatch"})
    return diffs


def strip_objects(report: dict) -> dict:
    return {k: v for k, v in report.items() if not k.startswith("_")}
