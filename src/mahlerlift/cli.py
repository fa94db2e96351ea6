"""Command-line interface: one subcommand per library capability.

Conventions
-----------
* Rationals cross the boundary as strings like ``3/4``; never floats.
  ``--alpha``, ``--tau`` and ``--poly`` take values that start with a
  minus sign as separate arguments too (``--alpha -5/11``).
* ``--json`` prints a single JSON document on stdout; human-readable
  notes then go to stderr.  Without it, plain tables go to stdout.
* Exit codes: 0 success / verified; 1 negative mathematical result
  (refuted relation, no lift at the degree cap, not regular, failed
  stabilization); 2 usage or input errors.
* Reruns with identical inputs produce byte-identical output.
* ``MAHLER_BUDGET_MB`` caps the address space (the soft limit, for the
  duration of ``main``) as a guard against big integer blowups; hitting
  it exits with code 2, and so does a value that is not a size in MB.
"""

import argparse
import functools
import json
import os
import sys

from . import engine, hilbert, ideal, lifting, systems
from .kron import kron_system, lift_algebraic_relation, parse_homogeneous
from .errors import (MahlerError, NoLiftAtDegree, NotRegularAt,
                     StabilizationFailed, ValueRelationRefuted)
from .polyring import TruncSeries
from .scalars import QQ, qq_from_str, qq_str
from .systems import corpus_path, load_system


def _emit(doc, args, human):
    """JSON document to stdout under --json, else the human renderer."""
    if args.json:
        sys.stdout.write(json.dumps(doc, separators=(",", ":")) + "\n")
    else:
        human(doc)


def _load(path):
    if not os.path.exists(path):
        bundled = corpus_path(os.path.splitext(os.path.basename(path))[0])
        if bundled.is_file() and os.path.basename(path) == path:
            return load_system(str(bundled))
        raise ValueError(f"system file not found: {path}")
    return load_system(path)


def _tau(s, m):
    parts = [p for p in s.split(",") if p.strip()]
    if len(parts) != m:
        raise ValueError(f"tau needs {m} comma-separated rationals")
    return tuple(qq_from_str(p) for p in parts)


def _kset(s):
    s = s.strip()
    if ".." in s:
        lo, hi = s.split("..")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(p) for p in s.split(",") if p.strip())


def _print_series(doc):
    for i, coeffs in enumerate(doc["series"]):
        print(f"f{i + 1}: " + " ".join(coeffs))


# ---------------------------------------------------------------------------
# subcommand implementations

def cmd_solve(args):
    sys_ = _load(args.system)
    f = systems.solve_series(sys_, args.order)
    doc = {"system": sys_.name, "order": args.order,
           "series": [s.to_json() for s in f]}
    _emit(doc, args, _print_series)
    return 0


def cmd_verify(args):
    sys_ = _load(args.system)
    if args.series:
        with open(args.series, "r", encoding="ascii") as fh:
            data = json.load(fh)
        f = tuple(TruncSeries.from_json(row) for row in data)
    else:
        f = systems.solve_series(sys_, args.order)
    n = systems.verify_solution(sys_, f)
    doc = {"system": sys_.name, "verified_order": n,
           "input_order": min(s.order for s in f)}
    _emit(doc, args, lambda d: print(f"verified through order {d['verified_order']}"))
    return 0


def cmd_cocycle(args):
    sys_ = _load(args.system)
    mats = systems.cocycle(sys_, args.k, degree_budget=args.degree_budget)
    doc = {"system": sys_.name, "k": args.k,
           "matrix": [[e.to_json() for e in row] for row in mats]}
    if args.alpha:
        alpha = qq_from_str(args.alpha)
        vals = systems.eval_cocycle(sys_, alpha, args.k)
        doc["alpha"] = qq_str(alpha)
        doc["value"] = [[qq_str(v) for v in row] for row in vals]

    def human(d):
        for row in mats:
            print("  ".join(repr(e) for e in row))
        if "value" in d:
            print(f"at alpha = {d['alpha']}:")
            for row in d["value"]:
                print("  ".join(row))

    _emit(doc, args, human)
    return 0


def cmd_regular(args):
    sys_ = _load(args.system)
    cert = systems.certify_regular(sys_, qq_from_str(args.alpha))
    doc = {"system": sys_.name, "certificate": cert.to_json()}

    def human(d):
        c = d["certificate"]
        if c["regular"]:
            print(f"regular: {c['checked_upto']} explicit checks, "
                  f"tail radius {c['tail_bound_radius']}")
        else:
            print(f"NOT regular: fails at k={c['failing_k']} ({c['failure_kind']})")

    _emit(doc, args, human)
    return 0 if cert.regular else 1


def cmd_dims(args):
    sys_ = _load(args.system)
    alpha = qq_from_str(args.alpha)
    d2s = list(range(args.delta2_min, args.delta2_max + 1))
    prof = ideal.dim_profile(sys_, alpha, args.delta1, d2s, max_k=args.max_k)
    doc = {"system": sys_.name, "alpha": qq_str(alpha), "profile": prof.to_json()}

    def human(d):
        print("delta2  rank  increment  k_top")
        for row in prof.rows:
            inc = "-" if row.increment is None else str(row.increment)
            print(f"{row.delta2:6d}  {row.rank:4d}  {inc:>9}  {row.k_top:5d}")
        print(f"c1 estimate: {prof.c1_estimate}")

    _emit(doc, args, human)
    return 0


def cmd_kernel(args):
    sys_ = _load(args.system)
    alpha = qq_from_str(args.alpha)
    kb = ideal.kernel_basis(sys_, alpha, args.delta1, args.delta2, max_k=args.max_k)
    vecs = [ideal.vector_str(kb.mb, v) for v in kb.basis]
    doc = {"system": sys_.name, "alpha": qq_str(alpha),
           "delta1": args.delta1, "delta2": args.delta2,
           "dimension": kb.dimension, "rank": kb.rank,
           "k_used": list(kb.k_used), "held_out_verified": list(kb.held_out_verified),
           "basis": vecs}

    def human(d):
        print(f"kernel dimension {d['dimension']}, rank {d['rank']}, "
              f"iterates {d['k_used'][0]}..{d['k_used'][-1]}, "
              f"held out {d['held_out_verified']}")
        for v in vecs[: args.limit]:
            print("  " + v)
        if len(vecs) > args.limit:
            print(f"  ... ({len(vecs) - args.limit} more)")

    _emit(doc, args, human)
    return 0


def cmd_guess(args):
    sys_ = _load(args.system)
    f = systems.solve_series(sys_, args.order)
    basis = lifting.guess_function_relations(f, args.deg, args.order)
    doc = {"system": sys_.name, "basis": basis.to_json()}

    def human(d):
        print(f"{basis.dimension} relation(s) of degree <= {args.deg} "
              f"modulo z^{args.order}")
        for vec in basis.basis:
            print("  (" + ", ".join(repr(p) for p in vec) + ")")

    _emit(doc, args, human)
    return 0


def _escalate(fn, deg, max_deg):
    d = deg
    tried = []
    while d <= max_deg:
        tried.append(d)
        try:
            return fn(d), tried
        except NoLiftAtDegree:
            d = 2 * d if d else 1
    raise NoLiftAtDegree(max_deg)


def cmd_lift(args):
    sys_ = _load(args.system)
    alpha = qq_from_str(args.alpha)
    tau = _tau(args.tau, sys_.m)

    def attempt(d):
        order = max(args.order, sys_.m * (d + 1) + lifting.GUARD)
        return lifting.lift_linear_relation(sys_, alpha, tau, d, order,
                                            override=args.override)

    try:
        lift, tried = _escalate(attempt, args.deg, args.max_deg)
    except NoLiftAtDegree:
        _emit({"status": "no_lift", "max_degree": args.max_deg}, args,
              lambda d: print(f"no lift up to degree {args.max_deg}"))
        return 1
    except ValueRelationRefuted as e:
        _emit({"status": "refuted", "detail": str(e)}, args,
              lambda d: print(f"refuted: {e}"))
        return 1
    doc = {"status": "lifted", "degrees_tried": tried, "lift": lift.to_json()}

    def human(d):
        print("lift: (" + ", ".join(repr(p) for p in lift.coefficients) + ")")
        print(f"residual order: {lift.residual_order}")

    _emit(doc, args, human)
    return 0


def cmd_kron(args):
    sys_ = _load(args.system)
    ks = kron_system(sys_, args.power, size_budget=args.size_budget)
    doc = systems.system_to_json(ks)
    _emit(doc, args, lambda d: print(json.dumps(d, indent=1)))
    return 0


def cmd_kron_lift(args):
    sys_ = _load(args.system)
    alpha = qq_from_str(args.alpha)
    P = parse_homogeneous(args.poly, sys_.m)

    def attempt(d):
        order = max(args.order, sys_.m ** P.degree * (d + 1) + lifting.GUARD)
        return lift_algebraic_relation(sys_, alpha, P, d, order,
                                            override=args.override,
                                            size_budget=args.size_budget)

    try:
        lifted, tried = _escalate(attempt, args.deg, args.max_deg)
    except NoLiftAtDegree:
        _emit({"status": "no_lift", "max_degree": args.max_deg}, args,
              lambda d: print(f"no lift up to degree {args.max_deg}"))
        return 1
    except ValueRelationRefuted as e:
        _emit({"status": "refuted", "detail": str(e)}, args,
              lambda d: print(f"refuted: {e}"))
        return 1
    doc = {"status": "lifted", "degrees_tried": tried, "lift": lifted.to_json()}

    def human(d):
        for lam, p in lifted.coeffs:
            print(f"  X^{list(lam)} : {p!r}")
        print(f"residual order: {lifted.residual_order}")

    _emit(doc, args, human)
    return 0


def cmd_hilbert(args):
    sys_ = _load(args.system)
    f = systems.solve_series(sys_, args.order)
    prof = hilbert.phi_profile(f, args.dmax, args.reldeg, args.order)
    est = hilbert.estimate_trdeg(prof)
    bounds = hilbert.bounds_check(prof, est.t_hat)
    doc = {"system": sys_.name, "profile": prof.to_json(),
           "trdeg": est.to_json(), "bounds": bounds.to_json()}

    def human(d):
        print("d    phi(d)")
        for dd, phi in zip(prof.d_values, prof.phi):
            print(f"{dd:<4d} {phi}")
        print(f"transcendence degree estimate: {est.t_hat} ({est.confidence})")
        print(f"lower bounds met: {bounds.lower_all_ok}; gamma2 = {qq_str(bounds.gamma2)}")

    _emit(doc, args, human)
    return 0


def cmd_heights(args):
    sys_ = _load(args.system)
    alpha = qq_from_str(args.alpha)
    rep = engine.height_growth(sys_, alpha, args.kmax)
    doc = {"system": sys_.name, "alpha": qq_str(alpha), "report": rep.to_json()}

    def human(d):
        print("k    max h(entry)/q^k")
        for k, _mat, ratio in rep.rows:
            print(f"{k:<4d} {ratio:.12g}")
        print(f"gamma_hat = {rep.gamma_hat:.12g}  stabilized: {rep.stabilized}")

    _emit(doc, args, human)
    return 0


def cmd_prove(args):
    sys_ = _load(args.system)
    alpha = qq_from_str(args.alpha)
    tau = _tau(args.tau, sys_.m)
    order = max(args.order, args.delta2 + lifting.GUARD,
                max(1, args.delta1 * args.delta2 // 4) + lifting.GUARD)
    f = systems.solve_series(sys_, order)
    aux = engine.build_aux(sys_, f, alpha, tau, args.delta1, args.delta2,
                           _kset(args.kset))
    identity_order = engine.formal_identity_order(sys_, f, aux)
    rep = engine.decay_report(sys_, f, aux, args.kmax)
    all_liouville = all(r.liouville_ok for r in rep.rows)
    doc = {"system": sys_.name, "aux": aux.to_json(),
           "identity_verified_order": identity_order,
           "decay": rep.to_json(), "liouville_all_ok": all_liouville}

    def human(d):
        print(f"auxiliary function: v0 = {aux.v0}, p = {aux.p} "
              f"(asymptotic formula gives {aux.p_asymptotic})")
        print(f"constraints k in {list(aux.kset_constraints)}, "
              f"held out {list(aux.kset_heldout)} all vanish exactly")
        print(f"series identity verified to z-order {identity_order}")
        print("k    value (exact)                 log|value|     height      Liouville")
        for r in rep.rows:
            val = qq_str(r.value)
            if len(val) > 28:
                val = val[:25] + "..."
            la = "zero" if r.is_zero else f"{r.log_abs.value: .6g}"
            print(f"{r.k:<4d} {val:<30} {la:>12}  {r.height.value:10.6g}  "
                  f"{'ok' if r.liouville_ok else 'VIOLATED'}")
        print(f"c2_hat = {rep.c2_hat:.6g}   c3_hat = {rep.c3_hat:.6g}")

    _emit(doc, args, human)
    return 0 if all_liouville else 1


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser():
    """The argparse tree, built on the first request and reused by later ones."""
    ap = argparse.ArgumentParser(
        prog="mahlerlift",
        description="Exact computations for linear q-Mahler systems in one variable.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, alpha=False):
        p.add_argument("--system", required=True,
                       help="system JSON file (bundled names like cantor3.json work)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if alpha:
            p.add_argument("--alpha", required=True, help="rational point, e.g. 1/2")

    p = sub.add_parser("solve", help="solve the system as truncated power series")
    common(p)
    p.add_argument("--order", type=int, default=64)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="residual order of a (solved or given) solution")
    common(p)
    p.add_argument("--order", type=int, default=64)
    p.add_argument("--series", help="JSON file: list of coefficient-string lists")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("cocycle", help="iterated matrix A_k(z), optionally evaluated")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", help="optional rational evaluation point")
    p.add_argument("--degree-budget", type=int, default=4096, dest="degree_budget")
    p.set_defaults(fn=cmd_cocycle)

    p = sub.add_parser("regular", help="finite certificate of regularity at alpha")
    common(p, alpha=True)
    p.set_defaults(fn=cmd_regular)

    p = sub.add_parser("dims", help="stabilized rank profile of the relation box")
    common(p, alpha=True)
    p.add_argument("--delta1", type=int, required=True)
    p.add_argument("--delta2-min", type=int, default=1, dest="delta2_min")
    p.add_argument("--delta2-max", type=int, required=True, dest="delta2_max")
    p.add_argument("--max-k", type=int, default=24, dest="max_k")
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("kernel", help="stabilized kernel basis of the relation box")
    common(p, alpha=True)
    p.add_argument("--delta1", type=int, required=True)
    p.add_argument("--delta2", type=int, required=True)
    p.add_argument("--max-k", type=int, default=24, dest="max_k")
    p.add_argument("--limit", type=int, default=16, help="vectors shown in table mode")
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("guess", help="polynomial-coefficient relations among solutions")
    common(p)
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--order", type=int, default=64)
    p.set_defaults(fn=cmd_guess)

    p = sub.add_parser("lift", help="lift a linear value relation to Q[z] coefficients")
    common(p, alpha=True)
    p.add_argument("--tau", required=True, help="comma-separated rationals")
    p.add_argument("--deg", type=int, default=1)
    p.add_argument("--order", type=int, default=64)
    p.add_argument("--max-deg", type=int, default=16, dest="max_deg",
                   help="degree-escalation cap")
    p.add_argument("--override", action="store_true",
                   help="skip the value-relation verification")
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("kron", help="emit the Kronecker power system as JSON")
    common(p)
    p.add_argument("--power", type=int, required=True)
    p.add_argument("--size-budget", type=int, default=256, dest="size_budget")
    p.set_defaults(fn=cmd_kron)

    p = sub.add_parser("kron-lift",
                       help="lift a homogeneous value relation (rational coefficients, "
                            "Xk, *, ^, +, -, parentheses)")
    common(p, alpha=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--deg", type=int, default=1)
    p.add_argument("--order", type=int, default=64)
    p.add_argument("--max-deg", type=int, default=16, dest="max_deg")
    p.add_argument("--size-budget", type=int, default=256, dest="size_budget")
    p.add_argument("--override", action="store_true")
    p.set_defaults(fn=cmd_kron_lift)

    p = sub.add_parser("hilbert", help="Hilbert-function profile and growth exponent")
    common(p)
    p.add_argument("--dmax", type=int, default=5)
    p.add_argument("--reldeg", type=int, default=3)
    p.add_argument("--order", type=int, default=128)
    p.set_defaults(fn=cmd_hilbert)

    p = sub.add_parser("heights", help="entry heights of the iterates and growth fit")
    common(p, alpha=True)
    p.add_argument("--kmax", type=int, default=10)
    p.set_defaults(fn=cmd_heights)

    p = sub.add_parser("prove", help="auxiliary function, decay table, Liouville floors")
    common(p, alpha=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--delta1", type=int, required=True)
    p.add_argument("--delta2", type=int, required=True)
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--kset", default="2..6", help="constraint iterates, e.g. 2..6")
    p.add_argument("--order", type=int, default=32, help="solution series order")
    p.set_defaults(fn=cmd_prove)

    return ap


# options whose value may start with "-", which argparse would take for an option
_SIGNED_VALUE_OPTIONS = ("--alpha", "--tau", "--poly")


def _attach_signed_values(argv):
    """Rewrite "--alpha -5/11" as "--alpha=-5/11" so argparse reads it as the value."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if tok in _SIGNED_VALUE_OPTIONS and nxt.startswith("-") and not nxt.startswith("--"):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    budget = os.environ.get("MAHLER_BUDGET_MB")
    if not budget:
        return _dispatch(argv)
    import resource

    # only the soft limit, and only while main runs: the caller can always
    # raise it again, and an in-process caller gets its own limit back
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    try:
        resource.setrlimit(resource.RLIMIT_AS, (int(budget) * (1 << 20), hard))
    except (ValueError, OSError):
        print("bad MAHLER_BUDGET_MB value", file=sys.stderr)
        return 2
    try:
        return _dispatch(argv)
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _dispatch(argv):
    ap = _build_parser()
    try:
        args = ap.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except MemoryError:
        print("memory budget exceeded (MAHLER_BUDGET_MB)", file=sys.stderr)
        return 2
    except (NoLiftAtDegree, ValueRelationRefuted, StabilizationFailed,
            NotRegularAt) as e:
        print(f"negative result: {e}", file=sys.stderr)
        return 1
    except MahlerError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
