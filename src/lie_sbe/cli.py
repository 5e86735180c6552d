"""Command line driver.

Laws are referenced as "catalog:NAME" or as a path to a JSON file; the
environment variable LIE_SBE_CATALOG may name a directory of extra law
files looked up as NAME.json before the built-in catalog.  Output is a JSON
body on stdout (or a short text rendering with --text).  Exit codes: 0
success or verdict yes (an obstruction found is a yes for `obstruct`), 1
verdict no, 2 usage error, 3 input error, failed precondition (such as a
law that is not completely solvable) or other computation error.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

# Each command imports the layers it calls, so a process compiles and runs
# only those (numpy only for `pinch`).
from . import jsonio
from .errors import DivergentFamily, InputError, LieSbeError
from .jsonio import matrix_from_list, to_wire


def _ft(x: float) -> str:
    return "%.17g" % x


# ----------------------------------------------------------------- loading --

def _external_catalog_file(name: str):
    base = os.environ.get("LIE_SBE_CATALOG")
    if not base:
        return None
    path = os.path.join(base, name + ".json")
    return path if os.path.isfile(path) else None


def _catalog_lookup(name: str):
    from .catalog import catalog

    path = _external_catalog_file(name)
    if path is None:
        return catalog(name)
    with open(path, "r", encoding="utf-8") as fh:
        return jsonio.law_loads(fh.read())


def load_law(ref: str, skip_validate: bool = False):
    from .laws import check_jacobi

    if ref.startswith("catalog:"):
        law = _catalog_lookup(ref[len("catalog:"):])
    else:
        try:
            with open(ref, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise InputError("cannot read law file %r: %s" % (ref, e)) from None
        law = jsonio.law_loads(text)
    if not skip_validate:
        rep = check_jacobi(law)
        if not rep.ok:
            raise InputError(
                "law %r fails the Jacobi identity at triple %s" % (ref, (rep.triple,))
            )
    return law


def _json_arg(text: str):
    """Inline JSON if the argument starts like JSON, else a file path."""
    s = text.strip()
    if s.startswith("[") or s.startswith("{"):
        return jsonio.loads(s)
    try:
        with open(text, "r", encoding="utf-8") as fh:
            return jsonio.loads(fh.read())
    except OSError as e:
        raise InputError("cannot read %r: %s" % (text, e)) from None


def _family_arg(text: str, dim: int):
    return jsonio.family_from_dict(_json_arg(text), dim=dim)


# ---------------------------------------------------------------- commands --

def cmd_check(args):
    from .laws import check_jacobi, fingerprint

    law = load_law(args.law, skip_validate=True)
    rep = check_jacobi(law)
    fp = fingerprint(law) if rep.ok else None
    payload = {
        "source": args.law,
        "jacobi_ok": rep.ok,
        "failing_triple": to_wire(rep.triple),
        "residual": to_wire(rep.residual),
        "fingerprint": to_wire(fp),
    }
    if rep.ok:
        text = [
            "jacobi: ok",
            "dim: %d" % fp.dim,
            "nilpotent: %s  solvable: %s" % (fp.nilpotent, fp.solvable),
            "betti: %s" % (list(fp.betti),),
            "derivations: %d (inner %d, outer %d)"
            % (fp.der_dim, fp.inner_dim, fp.outer_dim),
        ]
        return 0, payload, text
    text = ["jacobi: FAIL at triple %s" % (tuple(rep.triple),)]
    return 1, payload, text


def cmd_cohomology(args):
    from .cohomology import adjoint_h_dim, betti_numbers, cohomology_basis

    law = load_law(args.law, args.skip_validate)
    q = args.degree
    if not 0 <= q <= law.dim:
        raise InputError("degree %d out of range 0..%d" % (q, law.dim))
    if args.module == "trivial":
        dim = betti_numbers(law)[q]
    else:
        dim = adjoint_h_dim(law, q)
    payload = {"source": args.law, "module": args.module, "degree": q, "dim": dim}
    text = ["dim H^%d (%s) = %d" % (q, args.module, dim)]
    if args.reps:
        reps = cohomology_basis(law, q, args.module)
        payload["representatives"] = to_wire(reps)
        text.append("representatives: %d" % len(reps))
    return 0, payload, text


def cmd_contract(args):
    from .deformation import apply_family, contraction_limit

    law = load_law(args.law, args.skip_validate)
    fam = _family_arg(args.family, law.dim)
    try:
        limit = contraction_limit(apply_family(law, fam))
        entries = None
    except DivergentFamily as e:
        limit = None
        entries = [dict(zip(("i", "j", "k", "exponent", "c"), to_wire(x))) for x in e.entries]
    payload = {
        "source": args.law,
        "diverges": limit is None,
        "limit": to_wire(limit),
        "jacobi_ok": None if limit is None else True,
        "entries": entries,
    }
    if limit is None:
        text = ["diverges: yes"] + [
            "  [%(i)d,%(j)d]->%(k)d at t^%(exponent)d" % x for x in entries
        ]
        return 1, payload, text
    text = ["diverges: no", "limit has %d bracket entries" % len(limit.table)]
    return 0, payload, text


def cmd_obstruct(args):
    from .deformation import semicontinuity_obstruction, spectral_obstruction

    source = load_law(args.source, args.skip_validate)
    target = load_law(args.target, args.skip_validate)
    semi = semicontinuity_obstruction(source, target)
    payload = {
        "source": args.source,
        "target": args.target,
        "semicontinuity": to_wire(semi),
        "spectral": None,
    }
    obstructed = semi.obstructed
    text = []
    for r in semi.rows:
        if r.violated:
            text.append(
                "violated: %s (source %d > target %d)" % (r.name, r.source, r.target)
            )
    if args.spectral:
        sp = spectral_obstruction(source, target)
        payload["spectral"] = to_wire(sp)
        if sp.status == "obstructed":
            obstructed = True
            text.append("spectral: obstructed (%s)" % sp.reason)
        else:
            text.append("spectral: %s" % sp.status)
    payload["obstructed"] = obstructed
    text.insert(0, "obstructed: %s" % ("yes" if obstructed else "no"))
    return (0 if obstructed else 1), payload, text


def cmd_certify(args):
    from .deformation import h2c_certificate, lauret_certificate

    law = load_law(args.law, args.skip_validate)
    method = "lauret" if args.lauret else "h2c"
    cert = lauret_certificate(law) if args.lauret else h2c_certificate(law)
    payload = {
        "source": args.law,
        "method": method,
        **to_wire(cert, "applies", "reason", "family", "limit"),
        "target": cert.target_name,
    }
    text = ["applies: %s" % ("yes" if cert.applies else "no"), "reason: %s" % cert.reason]
    if cert.applies:
        text.append("target: %s" % cert.target_name)
    return (0 if cert.applies else 1), payload, text


def cmd_reduce(args):
    from .deformation import cornulier_reduction

    law = load_law(args.law, args.skip_validate)
    data = _json_arg(args.cartan)
    if not isinstance(data, list) or not data:
        raise InputError("--cartan must give a non-empty list of vectors")
    vectors = []
    for pos, row in enumerate(data):
        if not isinstance(row, list) or len(row) != law.dim:
            raise InputError("cartan vector %d must have %d entries" % (pos, law.dim))
        vectors.append([jsonio.parse_scalar(x) for x in row])
    res = cornulier_reduction(law, vectors)
    payload = {"source": args.law, **to_wire(res)}
    text = [
        "exponential radical dim: %d" % res.r_dim,
        "w = h intersect r dim: %d" % res.w_dim,
        "g1 entries: %d; g_inf entries: %d" % (len(res.g1.table), len(res.g_inf.table)),
    ]
    return 0, payload, text


def cmd_modify(args):
    from .deformation import modification

    law = load_law(args.law, args.skip_validate)
    torus_data = _json_arg(args.torus)
    if not isinstance(torus_data, list) or not torus_data:
        raise InputError("--torus must give a non-empty list of matrices")
    mats = [matrix_from_list(m, square_of=law.dim) for m in torus_data]
    tau_rows = matrix_from_list(_json_arg(args.tau))
    res = modification(law, mats, tau_rows)
    payload = {"source": args.law, **to_wire(res)}
    text = [
        "closure: %s" % ("yes" if res.closure else "no"),
        "twisting: %s" % ("yes" if res.twisting else "no"),
        "jacobi on the modified law: %s" % ("ok" if res.jacobi_ok else "FAIL"),
    ]
    return (0 if res.closure else 1), payload, text


def cmd_classify(args):
    from .heintze import classify_hyperbolic

    law = load_law(args.law, args.skip_validate)
    v = classify_hyperbolic(law)
    payload = {"source": args.law, **to_wire(v)}
    text = ["target: %s" % v.target]
    if v.n is not None:
        text[0] += " (n=%d)" % v.n
    if v.commable_to:
        text.append("commable to: %s" % v.commable_to)
    for e in v.evidence:
        text.append("  - %s" % e)
    return (0 if v.target != "none" else 1), payload, text


def cmd_table2(args):
    from .heintze import table2_report

    rep = table2_report()
    blocks = [
        [
            {
                "label": row.label,
                **to_wire(row.verdict, "target", "n", "commable_to"),
                **to_wire(row.invariants, "cdim", "topdim"),
                **to_wire(row.traits),
            }
            for row in block
        ]
        for block in rep.blocks
    ]
    payload = {"blocks": blocks, **to_wire(rep, "consistent", "dashed", "dashed_note")}
    text = []
    for bi, rows in enumerate(blocks):
        if bi:
            if bi == rep.dashed[1] and bi - 1 == rep.dashed[0]:
                text.append("- - - - - - - (%s)" % rep.dashed_note)
            else:
                text.append("-" * 30)
        for r in rows:
            verdict = r["target"] + ("" if r["n"] is None else "(%d)" % r["n"])
            if r["commable_to"]:
                verdict += " ~ " + r["commable_to"]
            text.append("%-28s cdim=%-5s %s" % (r["label"], r["cdim"], verdict))
    return 0, payload, text


def _alpha_arg(spec: str):
    if spec.startswith("catalog:"):
        from .curvature import alpha_from_law

        return alpha_from_law(load_law(spec))
    data = _json_arg(spec)
    try:
        return matrix_from_list(data)
    except InputError:
        if (isinstance(data, list) and data
                and all(isinstance(r, list) and len(r) == len(data) for r in data)
                and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                        for r in data for x in r)):
            return [[float(x) for x in r] for r in data]
        raise


def cmd_pinch(args):
    from .curvature import pansu_consistency, pinching_estimate

    alpha = _alpha_arg(args.alpha)
    if args.pansu:
        pr = pansu_consistency(alpha, args.eps, samples=args.samples, seed=args.seed)
        rep = pr.curvature
    else:
        pr = None
        rep = pinching_estimate(alpha, args.eps, samples=args.samples, seed=args.seed)
    payload = to_wire(rep, "eps", "samples", "seed", "sec_min", "sec_max", "ratio",
                      "bianchi_max")
    text = [
        "sectional range: [%s, %s]" % (_ft(rep.sec_min), _ft(rep.sec_max)),
        "pinching ratio: %s" % _ft(rep.ratio),
        "bianchi residual: %s" % _ft(rep.bianchi_max),
    ]
    if pr is not None:
        payload["pansu"] = to_wire(pr, "b_est", "trace", "bound", "holds")
        text.append(
            "trace %s <= bound %s: %s"
            % (_ft(pr.trace), _ft(pr.bound), "yes" if pr.holds else "NO")
        )
    return (1 if pr is not None and not pr.holds else 0), payload, text


def cmd_buildings(args):
    from .buildings import building_cdim, equal_cdim_search, tyson_identities

    given = [x is not None for x in (args.p, args.q, args.p2, args.q2)]
    if args.search is not None:
        if any(given) or args.bound is not None:
            args._parser.error("--search excludes the --p/--q/--p2/--q2/--bound flags")
        p_max, q_max, bound = args.search
        hits = equal_cdim_search(p_max, q_max, bound)
        payload = {
            "p_max": p_max,
            "q_max": q_max,
            "bound": bound,
            "hits": to_wire(hits),
        }
        text = ["hits: %d" % len(hits)] + [
            "(%d,%d) ~ (%d,%d) cdim %s witnesses %s"
            % (h.p, h.q, h.p2, h.q2, _ft(h.cdim), [tuple(w) for w in h.witnesses])
            for h in hits
        ]
        return 0, payload, text
    if args.p is None or args.q is None:
        args._parser.error("need --p and --q (or --search)")
    if (args.p2 is None) != (args.q2 is None):
        args._parser.error("--p2 and --q2 go together")
    if args.p2 is not None:
        if args.bound is None:
            args._parser.error("comparing two buildings needs --bound")
        wits = tyson_identities(args.p, args.q, args.p2, args.q2, args.bound)
        payload = {
            "p": args.p, "q": args.q, "p2": args.p2, "q2": args.q2,
            "bound": args.bound,
            "witnesses": to_wire(wits),
        }
        text = ["witnesses: %s" % ([tuple(w) for w in wits],)]
        return 0, payload, text
    if args.bound is not None:
        args._parser.error("--bound needs --p2/--q2")
    cv = building_cdim(args.p, args.q)
    payload = to_wire(cv)
    text = [
        "conformal dimension: %s%s" % (_ft(cv.value), " (exactly 1)" if cv.exact_one else ""),
        "translation length: %s + sqrt(%s)" % tuple(payload["tau"]),
    ]
    return 0, payload, text


def cmd_catalog(args):
    from .catalog import catalog_names

    if args.action == "list":
        names = list(catalog_names())
        base = os.environ.get("LIE_SBE_CATALOG")
        if base and os.path.isdir(base):
            for fn in sorted(os.listdir(base)):
                name = fn[:-len(".json")]
                if fn.endswith(".json") and name not in names:
                    names.append(name)
        payload = {"names": names}
        return 0, payload, list(names)
    if not args.name:
        args._parser.error("catalog dump needs a name")
    law = _catalog_lookup(args.name)
    text = ["%s: dim %d, %d bracket entries" % (args.name, law.dim, len(law.table))]
    return 0, to_wire(law), text


# ------------------------------------------------------------------ parser --

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lie-sbe",
        description="Exact calculations on Lie algebra laws: cohomology, "
        "degenerations, hyperbolic classification, curvature pinching and "
        "building conformal dimensions.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--text", action="store_true",
                        help="human-readable output instead of JSON")
    withlaw = argparse.ArgumentParser(add_help=False)
    withlaw.add_argument("--skip-validate", action="store_true",
                         help="skip the Jacobi check when loading laws")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="Jacobi check plus structural fingerprint")
    p.add_argument("law", help="catalog:NAME or a JSON file path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("cohomology", parents=[common, withlaw],
                       help="cohomology dimension in one degree")
    p.add_argument("law")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--module", choices=["trivial", "adjoint"], default="trivial")
    p.add_argument("--reps", action="store_true",
                   help="include representative cocycles")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("contract", parents=[common, withlaw],
                       help="limit of a one-parameter scaling family")
    p.add_argument("law")
    p.add_argument("--family", required=True,
                   help="inline JSON or a file: {\"w\": [...], \"P\": [[...]]}")
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("obstruct", parents=[common, withlaw],
                       help="dimension-count obstructions to a degeneration")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--spectral", action="store_true",
                   help="also run the eigenvalue-support test")
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("certify", parents=[common, withlaw],
                       help="construct an explicit degeneration family")
    p.add_argument("law")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lauret", action="store_true",
                       help="target: the real hyperbolic law of the same dimension")
    group.add_argument("--h2c", action="store_true",
                       help="target: the complex-hyperbolic-plane solvable law")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("reduce", parents=[common, withlaw],
                       help="exponential-radical reduction over a Cartan subalgebra")
    p.add_argument("law")
    p.add_argument("--cartan", required=True,
                   help="inline JSON or a file: list of spanning vectors")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("modify", parents=[common, withlaw],
                       help="modification of a law along a compact torus")
    p.add_argument("law")
    p.add_argument("--torus", required=True,
                   help="inline JSON or a file: list of commuting derivations")
    p.add_argument("--tau", required=True,
                   help="inline JSON or a file: coefficient matrix of the twist")
    p.set_defaults(func=cmd_modify)

    p = sub.add_parser("classify", parents=[common, withlaw],
                       help="match against real/complex hyperbolic model laws")
    p.add_argument("law")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("table2", parents=[common],
                       help="the low-dimensional classification table")
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("pinch", parents=[common],
                       help="sampled sectional curvature pinching")
    p.add_argument("--alpha", required=True,
                   help="inline JSON matrix, a file, or catalog:NAME")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pansu", action="store_true",
                   help="also check the conformal-dimension consistency bound")
    p.set_defaults(func=cmd_pinch)

    p = sub.add_parser("buildings", parents=[common],
                       help="conformal dimensions of right-angled buildings")
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--p2", type=int)
    p.add_argument("--q2", type=int)
    p.add_argument("--bound", type=int)
    p.add_argument("--search", type=int, nargs=3,
                   metavar=("P_MAX", "Q_MAX", "BOUND"))
    p.set_defaults(func=cmd_buildings)

    p = sub.add_parser("catalog", parents=[common],
                       help="list or dump the built-in laws")
    p.add_argument("action", choices=["list", "dump"])
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_catalog)

    for action in sub.choices.values():
        action.set_defaults(_parser=action)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, text = args.func(args)
    except LieSbeError as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    if args.text:
        print("\n".join(text))
    else:
        print(json.dumps(payload, indent=2))
    return code


def main():
    # a reader that closes stdout early ends the process quietly, as it
    # would any filter, instead of a BrokenPipeError traceback and exit 1
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
