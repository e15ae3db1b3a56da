"""Command-line entry point.

Every verb reads the same JSON problem configuration; reports are built as
one plain dict first and then rendered either as JSON or as aligned text,
so both formats carry identical content.  All floats are rounded to 12
significant digits before rendering, and Burnside elements serialize as
{name, coefficient} arrays in the canonical class order (largest class
first), which keeps reports byte-identical across runs for a fixed
configuration and seed.

Exit codes: 0 success, 1 malformed configuration or usage, 2 validation
failure (the message names the violated assumption).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from .bifurcation import bifurcation_report
from .burnside import BurnsideElement
from .errors import EqdegError, InputError, ValidationError
from .spectral import (GammaSpec, ProblemConfig, SymmetryContext,
                       build_symmetry_context, existence_degree,
                       parity_predictions)

VERBS = ("group-info", "basic-degrees", "burnside-mul", "existence",
         "bifurcation")

_CONFIG_KEYS = {"m", "k", "gamma", "A", "spectrum", "tolerance",
                "nagumo_assumed", "seed", "window"}


def _f12(x) -> float:
    """Round to 12 significant digits; applied to every reported float."""
    return float(f"{float(x):.12g}")


def _exact(value, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise InputError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        exact = Fraction(value)
        float(exact)                  # finite and within the float range
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"{where}: cannot parse {value!r} as a finite "
                         "rational number") from exc
    return exact


def _num(value, where: str) -> float:
    return float(_exact(value, where))


def _int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{where}: expected an integer")
    return value


def validate_config(raw) -> tuple[ProblemConfig, tuple[float, float] | None]:
    """Structural validation of a configuration dict (shape and types).

    Mathematical assumptions (symmetry, equivariance, nondegeneracy) are
    checked later by the pipeline and raise ValidationError instead.
    """
    if not isinstance(raw, dict):
        raise InputError("configuration must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise InputError(f"unknown configuration keys: {sorted(unknown)}")
    for key in ("m", "k"):
        if key not in raw:
            raise InputError(f"configuration key {key!r} is required")
    m = _int(raw["m"], "m")
    k = _int(raw["k"], "k")

    graw = raw.get("gamma", {"type": "trivial"})
    if not isinstance(graw, dict) or "type" not in graw:
        raise InputError("gamma must be an object with a 'type' key")
    gtype = graw["type"]
    if gtype == "trivial":
        gamma = GammaSpec()
    elif gtype == "dihedral":
        gamma = GammaSpec(type="dihedral", n=_int(graw.get("n"), "gamma.n"))
    elif gtype == "permutation":
        gens = graw.get("generators")
        if not isinstance(gens, list) or not gens:
            raise InputError("gamma.generators must be a nonempty list")
        parsed = []
        for g in gens:
            if (not isinstance(g, list) or len(g) != k
                    or any(isinstance(x, bool) or not isinstance(x, int)
                           for x in g)):
                raise InputError("each generator must be a list of k "
                                 "integer images")
            parsed.append(tuple(g))
        gamma = GammaSpec(type="permutation", generators=tuple(parsed))
    else:
        raise InputError(f"unknown gamma type {gtype!r}")

    has_a, has_s = "A" in raw, "spectrum" in raw
    if has_a == has_s:
        raise InputError("exactly one of 'A' and 'spectrum' is required")
    a_matrix = None
    spectrum = None
    if has_a:
        rows = raw["A"]
        if not isinstance(rows, list) or len(rows) != k:
            raise InputError(f"A must be a list of {k} rows")
        out = []
        for r, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != k:
                raise InputError(f"A row {r} must have {k} entries")
            out.append(tuple(_num(x, f"A[{r}][{c}]")
                             for c, x in enumerate(row)))
        a_matrix = tuple(out)
    else:
        ent = raw["spectrum"]
        if not isinstance(ent, list) or not ent:
            raise InputError("spectrum must be a nonempty list of "
                             "[eigenvalue, multiplicity] pairs")
        pairs = []
        for t, pair in enumerate(ent):
            if not isinstance(pair, list) or len(pair) != 2:
                raise InputError(f"spectrum[{t}] must be a two-element list")
            pairs.append((_exact(pair[0], f"spectrum[{t}][0]"),
                          _int(pair[1], f"spectrum[{t}][1]")))
        spectrum = tuple(pairs)

    kwargs = {}
    if "tolerance" in raw:
        kwargs["tolerance"] = _num(raw["tolerance"], "tolerance")
    if "nagumo_assumed" in raw:
        if not isinstance(raw["nagumo_assumed"], bool):
            raise InputError("nagumo_assumed must be a boolean")
        kwargs["nagumo_assumed"] = raw["nagumo_assumed"]
    if "seed" in raw:
        kwargs["seed"] = _int(raw["seed"], "seed")

    window = None
    if "window" in raw:
        w = raw["window"]
        if not isinstance(w, list) or len(w) != 2:
            raise InputError("window must be a two-element list [lo, hi]")
        window = (_num(w[0], "window[0]"), _num(w[1], "window[1]"))

    config = ProblemConfig(m=m, k=k, gamma=gamma, a_matrix=a_matrix,
                           spectrum=spectrum, **kwargs)
    return config, window


def _degree_json(el: BurnsideElement) -> list[dict]:
    return [{"name": name, "coefficient": coeff}
            for name, coeff in el.to_pairs()]


def _group_block(ctx: SymmetryContext) -> dict:
    return {"name": ctx.group.name, "order": ctx.group.order,
            "subgroup_classes": len(ctx.poset)}


def group_info_doc(ctx: SymmetryContext) -> dict:
    classes = [{"name": c.name, "subgroup_order": c.order,
                "conjugates": c.n_conjugates, "weyl_order": c.weyl_order}
               for c in ctx.poset.classes]
    return {"verb": "group-info", "group": _group_block(ctx),
            "classes": classes}


def basic_degrees_doc(ctx: SymmetryContext) -> dict:
    rows = [{"label": irr.label, "dim": irr.dim,
             "degree": _degree_json(BurnsideElement.from_marks(
                 ctx.poset, 1 - 2 * (ctx.dims[i, l] % 2)))}
            for (i, l), irr in ctx.minus.items()]
    return {"verb": "basic-degrees", "group": _group_block(ctx),
            "degrees": rows}


def burnside_mul_doc(ctx: SymmetryContext, names: list[str]) -> dict:
    if len(names) < 2:
        raise InputError("burnside-mul needs at least two class names")
    product = BurnsideElement.unit(ctx.poset)
    for name in names:
        try:
            idx = ctx.poset.index_by_name(name)
        except (KeyError, ValidationError) as exc:
            raise InputError(f"unknown subgroup class name {name!r}") from exc
        product = product * BurnsideElement(ctx.poset, {idx: 1})
    return {"verb": "burnside-mul", "group": _group_block(ctx),
            "factors": list(names), "product": _degree_json(product)}


def existence_doc(config: ProblemConfig, ctx: SymmetryContext) -> dict:
    report = existence_degree(config, ctx)
    table = report.table
    doc = {
        "verb": "existence",
        "group": _group_block(ctx),
        "m": config.m,
        "k": config.k,
        "period_over_pi": 2 * config.m,
        "tolerance": _f12(config.tolerance),
        "nagumo_assumed": config.nagumo_assumed,
        "spatial_irreps": [{"label": r.label, "dim": r.dim}
                           for r in ctx.gamma_irreps],
        "eigenvalues": [{"mu": _f12(e.mu), "multiplicity": e.mult,
                         "isotypic": {r.label: c for r, c in
                                      zip(ctx.gamma_irreps, e.gamma_mults)}}
                        for e in table.eigenvalues],
        "negative_spectrum": [{"j": j, "mu": _f12(mu), "lambda": _f12(lam)}
                              for j, mu, lam in table.negative_lambdas],
        "eta": {str(i): table.eta[i] for i in sorted(table.eta)},
        "rho": {str(i): table.rho[i] for i in sorted(table.rho)},
        "degree": _degree_json(report.degree),
        "maximal_orbit_types": report.maximal_orbit_types,
        "guarantees": [dataclasses.asdict(g) for g in report.guarantees],
        "total_solutions": report.total_solutions,
    }
    if config.gamma.type == "trivial":
        doc["parity_predictions"] = [
            {"source": p.source, "candidates": list(p.candidates)}
            for p in parity_predictions(table, config.m)]
    return doc


def bifurcation_doc(config: ProblemConfig, ctx: SymmetryContext,
                    window: tuple[float, float] | None) -> dict:
    report = bifurcation_report(config, ctx, window)
    points = []
    conclusions = []
    period = f"{2 * config.m} pi"
    for inv in report.invariants:
        p = inv.point
        points.append({
            "alpha": _f12(p.alpha),
            "alpha_exact": None if p.alpha_exact is None else str(p.alpha_exact),
            "contributions": [{"j": j, "mu": _f12(mu)}
                              for j, mu in p.contributions],
            "crossing_multiplicities": dict(p.crossing_multiplicities),
            "simple": p.simple,
            "omega": _degree_json(inv.omega),
            "nonzero": inv.nonzero,
            "odd_crossing_shortcut": inv.odd_crossing,
            "branch_symmetries": [name for name, _c in inv.branch_types],
        })
        if inv.nonzero:
            names = ", ".join(f"({name})" for name, _c in inv.branch_types)
            conclusions.append(
                f"alpha = {_f12(p.alpha):.12g}: branch of nontrivial "
                f"{period} periodic solutions with symmetries at least "
                f"{names}")
    conclusions.append(
        "each local branch either continues unboundedly in parameter and "
        "amplitude or reconnects to the trivial line at another critical "
        "value (global alternative; not verified computationally)")
    return {"verb": "bifurcation", "group": _group_block(ctx),
            "m": config.m, "k": config.k,
            "window": [_f12(report.window[0]), _f12(report.window[1])],
            "critical_points": points, "conclusions": conclusions}


# ---------------------------------------------------------------------------
# text rendering

def _table(rows: list[list[str]], indent: str = "  ") -> list[str]:
    if not rows:
        return []
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return [indent + "  ".join(cell.ljust(w) for cell, w in
                               zip(row, widths)).rstrip()
            for row in rows]


def _degree_lines(pairs: list[dict]) -> list[str]:
    if not pairs:
        return ["  0"]
    return _table([[f"{p['coefficient']:+d}", p["name"]] for p in pairs])


def _render_group(block: dict) -> str:
    return (f"group {block['name']}  order {block['order']}  "
            f"subgroup classes {block['subgroup_classes']}")


def render_text(doc: dict) -> str:
    verb = doc["verb"]
    lines = [verb, _render_group(doc["group"])]
    if verb == "group-info":
        lines.append("")
        rows = [["name", "order", "conjugates", "weyl"]]
        rows += [[c["name"], str(c["subgroup_order"]), str(c["conjugates"]),
                  str(c["weyl_order"])] for c in doc["classes"]]
        lines += _table(rows)
    elif verb == "basic-degrees":
        for row in doc["degrees"]:
            lines.append("")
            lines.append(f"deg {row['label']}  (dim {row['dim']})")
            lines += _degree_lines(row["degree"])
    elif verb == "burnside-mul":
        lines.append("factors: " + " * ".join(f"({n})"
                                              for n in doc["factors"]))
        lines.append("product:")
        lines += _degree_lines(doc["product"])
    elif verb == "existence":
        lines += _render_existence(doc)
    elif verb == "bifurcation":
        lines += _render_bifurcation(doc)
    return "\n".join(lines) + "\n"


def _render_existence(doc: dict) -> list[str]:
    lines = [f"m = {doc['m']}  k = {doc['k']}  period = "
             f"{doc['period_over_pi']} pi  tolerance = "
             f"{doc['tolerance']:.12g}"]
    lines.append("spatial irreps in R^k: " +
                 ", ".join(f"{r['label']} (dim {r['dim']})"
                           for r in doc["spatial_irreps"]))
    lines.append("")
    lines.append("eigenvalues of A")
    rows = [["mu", "mult", "isotypic"]]
    for e in doc["eigenvalues"]:
        iso = " ".join(f"{lab}:{c}" for lab, c in e["isotypic"].items() if c)
        rows.append([f"{e['mu']:.12g}", str(e["multiplicity"]), iso])
    lines += _table(rows)
    lines.append("")
    lines.append("negative spectrum")
    rows = [["j", "mu", "lambda"]]
    rows += [[str(t["j"]), f"{t['mu']:.12g}", f"{t['lambda']:.12g}"]
             for t in doc["negative_spectrum"]]
    lines += _table(rows)
    lines.append("")
    lines.append("counters by dihedral index")
    rows = [["i", "eta", "rho"]]
    rows += [[i, str(doc["eta"][i]), str(doc["rho"][i])]
             for i in doc["eta"]]
    lines += _table(rows)
    lines.append("")
    lines.append("existence degree")
    lines += _degree_lines(doc["degree"])
    lines.append("")
    lines.append("maximal orbit types of the function space")
    lines += [f"  {name}" for name in doc["maximal_orbit_types"]]
    lines.append("")
    lines.append("solution guarantees (exact isotropy at maximal types)")
    rows = [["orbit type", "size", "nonconstant", "period > 2 pi"]]
    for g in doc["guarantees"]:
        rows.append([g["orbit_type"], str(g["orbit_size"]),
                     "yes" if g["nonconstant"] else "no",
                     "yes" if g["minimal_period_exceeds_base"] else "no"])
    lines += _table(rows)
    if "parity_predictions" in doc:
        lines.append("")
        lines.append("parity predictions")
        for p in doc["parity_predictions"]:
            cands = " or ".join(f"({c})" for c in p["candidates"])
            lines.append(f"  {p['source']} -> {cands}")
    lines.append("")
    growth = ("growth condition assumed" if doc["nagumo_assumed"] else
              "growth condition NOT assumed; totals need a priori bounds")
    lines.append(f"at least {doc['total_solutions']} different "
                 f"{doc['period_over_pi']} pi periodic solutions ({growth})")
    return lines


def _render_bifurcation(doc: dict) -> list[str]:
    lines = [f"m = {doc['m']}  k = {doc['k']}  window = "
             f"[{doc['window'][0]:.12g}, {doc['window'][1]:.12g})",
             f"critical values: {len(doc['critical_points'])}"]
    for p in doc["critical_points"]:
        lines.append("")
        exact = "" if p["alpha_exact"] is None else f"  (= {p['alpha_exact']})"
        flags = []
        if p["simple"]:
            flags.append("simple")
        if p["odd_crossing_shortcut"]:
            flags.append("odd crossing")
        tag = f"  [{', '.join(flags)}]" if flags else ""
        lines.append(f"alpha = {p['alpha']:.12g}{exact}{tag}")
        lines.append("  crossings: " +
                     ", ".join(f"{lab} x{c}" for lab, c in
                               p["crossing_multiplicities"].items()))
        lines.append("  omega " + ("nonzero" if p["nonzero"] else "zero"))
        lines += ["  " + s for s in _degree_lines(p["omega"])]
    lines.append("")
    lines.append("conclusions")
    lines += [f"  {c}" for c in doc["conclusions"]]
    return lines


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqdeg",
        description="Burnside-ring degrees for reversible equivariant "
                    "systems")
    parser.add_argument("verb", choices=VERBS)
    parser.add_argument("config", help="path to a JSON problem configuration")
    parser.add_argument("names", nargs="*",
                        help="subgroup class names (burnside-mul only)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the configuration seed")
    return parser


def run(args: argparse.Namespace) -> dict:
    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read configuration: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"configuration is not valid JSON: {exc}") from exc
    config, window = validate_config(raw)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.names and args.verb != "burnside-mul":
        raise InputError(f"{args.verb} takes no class-name arguments")
    ctx = build_symmetry_context(config)
    if args.verb == "group-info":
        return group_info_doc(ctx)
    if args.verb == "basic-degrees":
        return basic_degrees_doc(ctx)
    if args.verb == "burnside-mul":
        return burnside_mul_doc(ctx, args.names)
    if args.verb == "existence":
        return existence_doc(config, ctx)
    return bifurcation_doc(config, ctx, window)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EqdegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(render_text(doc), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
