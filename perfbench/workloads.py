"""The benchmark's workloads: seeded inputs, the program calls, and their checks.

Every workload is a fixed list of requests made from the seed before the
program is imported; one round of each workload is about a second of work on
the reference machine and a run makes one round per second asked for.  Each
request carries a maker that converts its inputs to the program's types and
returns the call into mahlerlift (run in set-up, once the program is loaded),
a check of the output against the reference code in ``oracles`` (never
against stored output), a canonical text of the output (for comparing a
traced run with an untraced one), and ways to corrupt the output, used to
show that the check rejects wrong answers.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
from fractions import Fraction as Fr

import oracles as O
from oracles import expect, fr, fr_str

BUNDLED = ("cantor2", "cantor3", "thue_morse")
WARMUP_ALPHA = Fr(1, 3)  # never drawn for a timed request


class Request:
    """One program call.  ``corrupt`` is one function or a tuple of them."""

    __slots__ = ("kind", "label", "make", "call", "check", "canon", "corrupts")

    def __init__(self, kind, label, make, check, canon, corrupt):
        self.kind, self.label, self.make, self.call = kind, label, make, None
        self.check, self.canon = check, canon
        self.corrupts = corrupt if isinstance(corrupt, tuple) else (corrupt,)

    def prepare(self):
        self.call = self.make()


class Env:
    """The program under test plus reference-side caches shared by the checks."""

    def __init__(self, root):
        self.lib = self.cli = self.ideal = self.backend = None
        self.bundled = {}
        for name in BUNDLED:
            path = os.path.join(root, "src", "mahlerlift", "data", f"{name}.json")
            with open(path, encoding="ascii") as fh:
                self.bundled[name] = O.OSystem.from_doc(json.load(fh))
        # keyed by id(); the values hold the reference system, keeping the id taken
        self._lib_sys = {}
        self._it = {}
        self._series = {}

    def load_program(self):
        """Import the program: the first thing set-up time covers."""
        import mahlerlift
        from mahlerlift import cli, ideal, scalars

        # program functions are looked up at call time, so a traced run sees
        # the wrappers the tracer puts in place
        self.lib = mahlerlift
        self.cli = cli
        self.ideal = ideal
        self.backend = scalars._BACKEND

    def known_answers(self):
        """The reference code against answers known in closed form."""
        expect(O.first_singular_iterate(shrinking16(), Fr(1, 4)) == 1,
               "1 - 16z must first be singular at k = 1 from alpha = 1/4")
        for name, sys in self.bundled.items():
            expect(O.closed_form(name, 64) == O.solve(sys, 64),
                   f"closed form of {name} disagrees with the recursion")

    def qq(self, a):
        return self.lib.QQ(a.numerator, a.denominator)

    def lib_sys(self, osys):
        key = id(osys)
        if key not in self._lib_sys:
            self._lib_sys[key] = (osys, self.lib.system_from_json(osys.doc()))
        return self._lib_sys[key][1]

    def iterates(self, sys, alpha):
        key = (id(sys), alpha, None)
        if key not in self._it:
            self._it[key] = O.Iterates(sys, alpha)
        return self._it[key]

    def mod_iterates(self, sys, alpha, p):
        key = (id(sys), alpha, p)
        if key not in self._it:
            self._it[key] = O.ModIterates(sys, alpha, p)
        return self._it[key]

    def series(self, sys, n):
        have = self._series.get(id(sys))
        if have is None or len(have[1][0]) < n:
            have = (sys, O.reference_series(sys, max(n, 2 * len(have[1][0]) if have else n)))
            self._series[id(sys)] = have
        return [c[:n] for c in have[1]]

    def lib_series(self, coeff_lists):
        ts = self.lib.TruncSeries
        return tuple(ts([self.qq(c) for c in cl]) for cl in coeff_lists)

    def check_rank(self, sys, alpha, delta1, delta2, claimed, k_top):
        O.check_stabilized_rank(sys, alpha, delta1, delta2, claimed, k_top,
                                mod_cache=lambda p: self.mod_iterates(sys, alpha, p),
                                exact_cache=lambda: self.iterates(sys, alpha))

    def box_rank(self, sys, alpha, entries, ks, claimed):
        """Rank of the evaluation rows at iterates ks: modular, exact on disagreement."""
        for p in O.PRIMES:
            it = self.mod_iterates(sys, alpha, p)
            r = O.rank_mod([O.mod_row(it, k, entries) for k in ks], p)
            if r >= claimed:
                return r
        it = self.iterates(sys, alpha)
        return O.rank_exact([O.exact_row(it, k, entries) for k in ks])


# ---------------------------------------------------------------------------
# seeded inputs

def draw_alpha(rng, bits, stratum=None):
    """±p/q with q within 1/8 below 2^bits and q/2 <= p <= 4q/5.

    Keeping q close to 2^bits and p within a fixed band of q fixes the height
    of alpha, which sets the bit size of every iterate, so requests of one
    slot cost about the same whatever the seed.  With a stratum, p is the
    stratum-th admissible numerator instead of a random one: at 3 bits the
    only choices are 4/7 and 5/7, whose costs differ by a third, and
    alternating them by round keeps the mix of a run fixed.
    """
    hi = 1 << bits
    lo = max(3, hi - hi // 8)
    while True:
        q = rng.randrange(lo, hi)
        ps = [p for p in range((q + 1) // 2, (4 * q) // 5 + 1) if math.gcd(p, q) == 1]
        p = ps[stratum % len(ps)] if stratum is not None else rng.choice(ps)
        a = Fr(p, q) * rng.choice((1, -1))
        if a != WARMUP_ALPHA:
            return a


def regular_alpha(rng, sys, bits, stratum=None):
    for attempt in range(64):
        a = draw_alpha(rng, bits, stratum if attempt < 8 else None)
        if O.first_singular_iterate(sys, a) is None:
            return a
    raise ValueError(f"no regular point of {bits} bits found for {sys.name}")


def random_scalar(rng, name, q, deg):
    """m = 1, A = 1 + a_1 z + ... + a_deg z^deg with small integer a_i."""
    coeffs = [Fr(1)] + [Fr(rng.randint(-3, 3)) for _ in range(deg)]
    while coeffs[-1] == 0:
        coeffs[-1] = Fr(rng.randint(-3, 3))
    return O.OSystem(name, q, [[coeffs]], [Fr(1)])


def random_matrix(rng, name, m, deg):
    """A(0) = I and small integer coefficients; f(0) drawn, never zero."""
    A = [[[Fr(int(i == j))] + [Fr(rng.randint(-2, 2)) for _ in range(deg)]
          for j in range(m)] for i in range(m)]
    f0 = [Fr(rng.randint(-2, 2)) for _ in range(m)]
    if not any(f0):
        f0[0] = Fr(1)
    return O.OSystem(name, 2, A, f0)


def shrinking16():
    """A = 1 - 16 z: singular exactly where z = 1/16."""
    return O.OSystem("shrinking16", 2, [[[Fr(1), Fr(-16)]]], [Fr(1)])


def cantor3_relation(rng, alpha):
    """(X1 - X2 + alpha X3)(a X1 + b X2 + c X3): true at f(alpha) for cantor3."""
    while True:
        a, b, c = (rng.randint(-2, 2) for _ in range(3))
        if a or b or c:
            break
    lin1 = {(1, 0, 0): Fr(1), (0, 1, 0): Fr(-1), (0, 0, 1): alpha}
    lin2 = {(1, 0, 0): Fr(a), (0, 1, 0): Fr(b), (0, 0, 1): Fr(c)}
    out = {}
    for e1, c1 in lin1.items():
        for e2, c2 in lin2.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, Fr(0)) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def poly_text(terms):
    parts = []
    for lam, c in sorted(terms.items()):
        mono = "*".join(f"X{i + 1}^{e}" for i, e in enumerate(lam) if e)
        parts.append(f"{fr_str(c)}*{mono}")
    return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# library-call requests: ideal-ranks

def _replace(obj, **kw):
    return dataclasses.replace(obj, **kw)


def req_dim_profile(env, sys, alpha, delta1, d2s):
    d2s = list(d2s)

    def make():
        lsys, a = env.lib_sys(sys), env.qq(alpha)
        return lambda: env.lib.dim_profile(lsys, a, delta1, d2s)

    def check(out):
        expect(out.delta1 == delta1 and len(out.rows) == len(d2s), "profile shape")
        bound = (delta1 + 1) ** (sys.m * sys.m)
        prev = None
        for row, d2 in zip(out.rows, d2s):
            expect(row.delta2 == d2, "delta2 order")
            env.check_rank(sys, alpha, delta1, d2, row.rank, row.k_top)
            if prev is None:
                expect(row.increment is None, "first increment must be empty")
            else:
                expect(row.increment == row.rank - prev, "increment arithmetic")
                expect(1 <= row.increment <= bound, f"increment {row.increment} outside "
                       f"[1, {bound}]")
            prev = row.rank
        expect(out.c1_estimate == (out.rows[-1].increment if len(out.rows) > 1 else None),
               "c1 estimate")

    def corrupt(out):
        last = out.rows[-1]
        return _replace(out, rows=out.rows[:-1] + (_replace(last, rank=last.rank + 1),))

    return Request("dim_profile", f"{sys.name} a={alpha} d1={delta1} d2={d2s}",
                   make, check,
                   lambda out: json.dumps(out.to_json()), corrupt)


def req_doubling(env, sys, alpha, delta1, delta2):
    def make():
        lsys, a = env.lib_sys(sys), env.qq(alpha)
        return lambda: env.lib.doubling_check(lsys, a, delta1, delta2)

    def check(out):
        env.check_rank(sys, alpha, delta1, delta2, out.rank_base, None)
        env.check_rank(sys, alpha, 2 * delta1, delta2, out.rank_doubled, None)
        expect(out.factor == 2 ** (sys.m * sys.m), "factor 2^(m^2)")
        expect(out.passed == (out.rank_doubled <= out.factor * out.rank_base), "verdict")
        expect(out.passed, "rank(2 delta1) <= 2^(m^2) rank(delta1) must hold")

    return Request("doubling_check", f"{sys.name} a={alpha} d1={delta1} d2={delta2}",
                   make, check,
                   lambda out: json.dumps(out.to_json()),
                   lambda out: _replace(out, rank_doubled=out.rank_doubled + 1))


def req_kernel(env, sys, alpha, delta1, delta2):
    def make():
        lsys, a = env.lib_sys(sys), env.qq(alpha)
        return lambda: env.lib.kernel_basis(lsys, a, delta1, delta2)

    entries = O.box_entries(sys.m, delta1, delta2)

    def check(out):
        expect(list(out.mb.entries) == entries, "monomial order")
        ks, held = list(out.k_used), list(out.held_out_verified)
        expect(ks == list(range(ks[0], ks[0] + len(ks))), "iterates used are consecutive")
        expect(held == list(range(ks[-1] + 1, ks[-1] + 1 + len(held))), "held-out iterates")
        it = env.iterates(sys, alpha)
        for vec in out.basis:
            terms = {entries[i]: fr(c) for i, c in vec.items()}
            for k in ks + held:
                expect(O.poly_value(terms, it.mat(k), it.x(k)) == 0,
                       f"kernel vector does not vanish at k={k}")
        expect(out.rank == len(out.pivots), "rank = pivot count")
        expect(env.box_rank(sys, alpha, entries, ks, out.rank) == out.rank, "rank")
        expect(out.dimension == len(entries) - out.rank, "dimension = columns - rank")
        dense = [[fr(vec.get(i, 0)) for i in range(len(entries))] for vec in out.basis]
        expect(O.rank_of(dense, out.dimension) == out.dimension, "basis not independent")

    def corrupt(out):
        if not out.basis:
            return _replace(out, pivots=out.pivots[:-1])
        vec = dict(out.basis[0])
        i = next(iter(vec))
        vec[i] = vec[i] + 1
        return _replace(out, basis=(vec,) + out.basis[1:])

    def canon(out):
        return json.dumps([sorted((i, fr_str(fr(c))) for i, c in v.items()) for v in out.basis]
                          + [list(out.pivots), list(out.k_used), list(out.held_out_verified)])

    return Request("kernel_basis", f"{sys.name} a={alpha} box=({delta1},{delta2})",
                   make, check, canon, corrupt)


def req_cell_rref(env, sys, alpha, delta1, delta2, kset):
    entries = O.box_entries(sys.m, delta1, delta2)
    ks = list(kset)

    def make():
        lsys, a = env.lib_sys(sys), env.qq(alpha)
        return lambda: env.ideal.cell_rref(lsys, a, delta1, delta2, ks)

    def check(out):
        mb, pivots, red = out
        expect(list(mb.entries) == entries, "monomial order")
        pivots = list(pivots)
        expect(pivots == sorted(set(pivots)) and len(red) == len(pivots), "pivot list")
        red = [[fr(c) for c in row] for row in red]
        for i, (p, row) in enumerate(zip(pivots, red)):
            expect(all(c == 0 for c in row[:p]) and row[p] == 1, "echelon row shape")
            expect(all(red[j][p] == 0 for j in range(len(red)) if j != i), "reduced column")
        # every evaluation row is the combination of the reduced rows that its
        # pivot entries dictate, so the two row spaces agree once the ranks do
        it = env.iterates(sys, alpha)
        for k in ks:
            row = O.exact_row(it, k, entries)
            for c in range(len(entries)):
                expect(row[c] == sum((row[p] * r[c] for p, r in zip(pivots, red)), Fr(0)),
                       f"row k={k} outside the reduced row space")
        expect(env.box_rank(sys, alpha, entries, ks, len(pivots)) == len(pivots), "rank")

    def corrupt(out):
        mb, pivots, red = out
        row = list(red[-1])
        row[-1] = row[-1] + 1
        return mb, pivots, red[:-1] + (tuple(row),)

    def canon(out):
        return json.dumps([list(out[1]), [[fr_str(fr(c)) for c in r] for r in out[2]]])

    return Request("cell_rref", f"{sys.name} a={alpha} box=({delta1},{delta2}) k={ks}",
                   make, check, canon, corrupt)


def ideal_ranks(env, rng, rounds):
    """Rank and kernel computations whose cost is late-iterate big-rational arithmetic."""
    tm, c2, c3 = (env.bundled[n] for n in ("thue_morse", "cantor2", "cantor3"))
    out = []
    for r in range(rounds):
        reqs = []
        out.append(reqs)
        rs2 = random_scalar(rng, f"rs2-{r}", 2, 2)
        rs3 = random_scalar(rng, f"rs3-{r}", 3, 1)
        reqs += [
            req_dim_profile(env, tm, regular_alpha(rng, tm, 4, r), 1, range(0, 3)),
            req_dim_profile(env, rs2, regular_alpha(rng, rs2, 4, r), 1, range(0, 3)),
            req_dim_profile(env, rs3, regular_alpha(rng, rs3, 3, r), 1, range(0, 2)),
            req_dim_profile(env, c2, regular_alpha(rng, c2, 6, r), 1, range(0, 3)),
            # the deepest iterates (the doubled box stabilizes at k = 12, with
            # entries of about 2^12 * 3 bits) on alternate rounds
            (req_doubling(env, tm, draw_alpha(rng, 3, r // 2), 1, 2) if r % 2 == 0 else
             req_dim_profile(env, tm, regular_alpha(rng, tm, 4, r), 1, range(0, 4))),
            req_doubling(env, tm, regular_alpha(rng, tm, 4, r), 1, 1),
            req_doubling(env, rs2, regular_alpha(rng, rs2, 4, r), 1, 1),
            req_doubling(env, c2, regular_alpha(rng, c2, 5, r), 1, 1),
            req_kernel(env, tm, regular_alpha(rng, tm, 4, r), 1, 1),
            req_kernel(env, c2, regular_alpha(rng, c2, 4, r), 1, 1),
            req_kernel(env, rs2, regular_alpha(rng, rs2, 3, r), 1, 1),
            req_cell_rref(env, rs2, regular_alpha(rng, rs2, 4, r), 2, 2, range(1, 11)),
            req_cell_rref(env, c2, regular_alpha(rng, c2, 4, r), 1, 2, range(1, 9)),
            req_cell_rref(env, c3, regular_alpha(rng, c3, 3, r), 1, 1, range(1, 6)),
        ]
    return out


def ideal_ranks_warmup(env):
    tm, c2 = env.bundled["thue_morse"], env.bundled["cantor2"]
    a = WARMUP_ALPHA
    return [req_dim_profile(env, tm, a, 1, range(0, 2)), req_doubling(env, c2, a, 1, 1),
            req_kernel(env, tm, a, 1, 0), req_cell_rref(env, c2, a, 1, 1, range(1, 5))]


# ---------------------------------------------------------------------------
# library-call requests: series-relations

def _series_text(f):
    return json.dumps([[fr_str(fr(c)) for c in s.coeffs] for s in f])


def req_solve(env, sys, n):
    def make():
        lsys = env.lib_sys(sys)
        return lambda: env.lib.solve_series(lsys, n)

    def check(out):
        expect(len(out) == sys.m and all(s.order == n for s in out), "series shape")
        f = [[fr(c) for c in s.coeffs] for s in out]
        ref = O.closed_form(sys.name, n)
        if ref is not None:
            expect(f == ref, "coefficients differ from the closed form")
        expect([s[0] for s in f] == (sys.f0 or [s[0] for s in f]), "initial vector")
        expect(O.residual_order(sys, f, n) == n, "residual f - A f(z^q) is not 0 mod z^N")

    def corrupt(out):
        s = out[0]
        i = len(s.coeffs) // 2
        c = list(s.coeffs)
        c[i] = c[i] + 1
        return (type(s)(c),) + tuple(out[1:])

    return Request("solve_series", f"{sys.name} N={n}",
                   make, check, _series_text, corrupt)


def req_verify(env, sys, n):
    f = env.series(sys, n)

    def make():
        lsys, lf = env.lib_sys(sys), env.lib_series(f)
        return lambda: env.lib.verify_solution(lsys, lf)

    def check(out):
        expect(out == O.residual_order(sys, f, n), "verified order")

    return Request("verify_solution", f"{sys.name} N={n}",
                   make, check, str,
                   lambda out: out - 1)


def req_guess(env, sys, D, n, known_dim=None):
    f = env.series(sys, n)

    def make():
        lf = env.lib_series(f)
        return lambda: env.lib.guess_function_relations(lf, D, n)
    unknowns = sys.m * (D + 1)

    def check(out):
        expect(out.degree_bound == D and out.verified_order == n, "echoed parameters")
        vecs = [[[fr(c) for c in p.coeffs] for p in vec] for vec in out.basis]
        for polys in vecs:
            expect(all(len(p) <= D + 1 for p in polys), "degree bound")
            expect(O.combination_order(polys, f, n) == n, "relation does not vanish mod z^N")
        rank = unknowns - out.dimension
        expect(O.rank_of(O.convolution_rows(f, D, n), rank) == rank,
               "dimension differs from the nullity of the convolution matrix")
        dense = [[c for p in polys for c in p + [Fr(0)] * (D + 1 - len(p))] for polys in vecs]
        expect(O.rank_of(dense, out.dimension) == out.dimension, "basis not independent")
        if known_dim is not None:
            expect(out.dimension == known_dim, f"dimension {out.dimension}, known {known_dim}")

    def corrupt(out):
        if not out.basis:
            return _replace(out, verified_order=n + 1)
        vec = list(out.basis[0])
        vec[0] = vec[0] + type(vec[0]).one()
        return _replace(out, basis=(tuple(vec),) + out.basis[1:])

    return Request("guess_function_relations", f"{sys.name} D={D} N={n}",
                   make, check,
                   lambda out: json.dumps(out.to_json()), corrupt)


def off_relation(coeffs, alpha, j):
    """coeffs + (z - alpha) z^j: the same value at alpha, but no longer a relation.

    Added to one coefficient of a lift, it keeps the specialization at alpha
    and moves the series combination by (z - alpha) z^j f_i, which is nonzero
    at z^j whenever f_i(0) is (as for every coordinate of cantor3).
    """
    return O.padd(coeffs, [Fr(0)] * j + [-alpha, Fr(1)])


def check_lift_order(reported, reference, n):
    """The reported residual order is the reference one, and the lift vanishes mod z^n."""
    expect(reported == reference, f"residual order {reported}, reference {reference}")
    expect(reference >= n, f"the lift vanishes only to order {reference}, not mod z^{n}")


def linear_order(env, sys, polys, n):
    """Vanishing order of sum_i L_i f_i on the reference series, up to n + 1."""
    return O.combination_order(polys, env.series(sys, n + 1), n + 1)


def req_lift(env, alpha, D, n):
    c3 = env.bundled["cantor3"]
    tau = (Fr(1), Fr(-1), alpha)

    def make():
        lsys, a = env.lib_sys(c3), env.qq(alpha)
        ltau = tuple(env.qq(t) for t in tau)
        return lambda: env.lib.lift_linear_relation(lsys, a, ltau, D, n)

    def polys_of(out):
        return [[fr(c) for c in p.coeffs] for p in out.coefficients]

    def check(out):
        polys = polys_of(out)
        expect([O.peval(p, alpha) for p in polys] == list(tau), "specialization at alpha")
        check_lift_order(out.residual_order, linear_order(env, c3, polys, n), n)

    def corrupt_value(out):
        co = list(out.coefficients)
        co[0] = co[0] + type(co[0]).one()
        return _replace(out, coefficients=tuple(co))

    def corrupt_vanishing(out):
        polys = polys_of(out)
        polys[0] = off_relation(polys[0], alpha, n // 2)
        poly = type(out.coefficients[0])
        return _replace(out, coefficients=tuple(poly([env.qq(c) for c in p]) for p in polys),
                        residual_order=linear_order(env, c3, polys, n))

    return Request("lift_linear_relation", f"cantor3 a={alpha} D={D} N={n}", make, check,
                   lambda out: json.dumps(out.to_json()), (corrupt_value, corrupt_vanishing))


def algebraic_order(env, coeffs, n):
    """Vanishing order of sum_lambda p_lambda f^lambda on the cantor3 reference series.

    coeffs: {lambda: polynomial coefficient list}; the order is taken up to n + 1.
    """
    f = env.series(env.bundled["cantor3"], n + 1)
    acc = [Fr(0)] * (n + 1)
    for lam, p in coeffs.items():
        prod = O.pmul(p, O.series_power_product(f, lam, n + 1), n + 1)
        for i, c in enumerate(prod):
            acc[i] += c
    return next((i for i, c in enumerate(acc) if c != 0), n + 1)


def check_algebraic_lift(env, P, alpha, coeffs, residual_order, n):
    """coeffs: {lambda: polynomial coefficient list}; n: the relation order N."""
    spec = {lam: O.peval(p, alpha) for lam, p in coeffs.items()}
    expect({k: v for k, v in spec.items() if v != 0} == P, "specialization at alpha")
    check_lift_order(residual_order, algebraic_order(env, coeffs, n), n)


def req_lift_algebraic(env, rng, alpha, D, n):
    P = cantor3_relation(rng, alpha)

    def make():
        lsys, a = env.lib_sys(env.bundled["cantor3"]), env.qq(alpha)
        lP = env.lib.HomogeneousPoly(3, {lam: env.qq(c) for lam, c in P.items()})
        return lambda: env.lib.lift_algebraic_relation(lsys, a, lP, D, n)

    def coeffs_of(out):
        return {lam: [fr(c) for c in p.coeffs] for lam, p in out.coeffs}

    def check(out):
        expect(out.m == 3 and out.degree == 2, "arity and degree")
        check_algebraic_lift(env, P, alpha, coeffs_of(out), out.residual_order, n)

    def corrupt_value(out):
        (lam, p), rest = out.coeffs[0], out.coeffs[1:]
        return _replace(out, coeffs=((lam, p + type(p).one()),) + rest)

    def corrupt_vanishing(out):
        coeffs = coeffs_of(out)
        (lam, p), rest = out.coeffs[0], out.coeffs[1:]
        coeffs[lam] = off_relation(coeffs[lam], alpha, n // 2)
        bad = type(p)([env.qq(c) for c in coeffs[lam]])
        return _replace(out, coeffs=((lam, bad),) + rest,
                        residual_order=algebraic_order(env, coeffs, n))

    return Request("lift_algebraic_relation", f"cantor3 a={alpha} P={poly_text(P)} D={D}",
                   make, check, lambda out: json.dumps(out.to_json()),
                   (corrupt_value, corrupt_vanishing))


def req_phi(env, sys, d_max, D, n):
    f = env.series(sys, n)

    def make():
        lf = env.lib_series(f)
        return lambda: env.lib.phi_profile(lf, d_max, D, n)

    def check(out):
        expect(out.d_values == tuple(range(d_max + 1)), "d values")
        expect(out.stabilized_D == D and out.relation_order == n, "echoed parameters")
        # one transcendental coordinate over Q(z) in every bundled system
        expect(out.phi == tuple(d + 1 for d in range(d_max + 1)), f"phi {out.phi} != d + 1")

    return Request("phi_profile", f"{sys.name} dmax={d_max} D={D} N={n}",
                   make, check,
                   lambda out: json.dumps(out.to_json()),
                   lambda out: _replace(out, phi=out.phi[:-1] + (out.phi[-1] + 1,)))


def series_relations(env, rng, rounds):
    """Series solving, guessing and lifting: polyring products and rref on small rationals."""
    tm, c2, c3 = (env.bundled[n] for n in ("thue_morse", "cantor2", "cantor3"))
    phi_systems = (c2, tm, c3)
    out = []
    for r in range(rounds):
        reqs = []
        out.append(reqs)
        rm = random_matrix(rng, f"rm2-{r}", 2, 2)
        # orders in the thousands; solve_series is quadratic in N, so one
        # system per round is solved, in turn, at orders of about equal cost
        n_tm = rng.randrange(2000, 2061)
        n_c2 = rng.randrange(1100, 1131)
        n_rm = rng.randrange(1100, 1121)
        solved = ((tm, n_tm), (c2, n_c2), (rm, n_rm))[r % 3]
        reqs += [req_solve(env, *solved), req_verify(env, tm, n_tm), req_verify(env, c2, n_c2),
                 req_verify(env, rm, n_rm)]
        # degrees and heights of alpha go by slot, not by draw, so the cost
        # mix of a run is the same for every seed.  At N = 160 the linear
        # lifts cost about what the verifications and algebraic lifts cost,
        # and the median latency falls inside that cluster, not at its edge.
        D = 2 + r % 2
        reqs.append(req_guess(env, c3, D, 3 * (D + 1) + 24, known_dim=D))
        reqs.append(req_guess(env, rm, 2, 2 * 3 + 24))
        for i in range(6):
            reqs.append(req_lift(env, draw_alpha(rng, 3 + (i + r) % 4), 1 + i % 2, 160))
        for i in range(3):
            reqs.append(req_lift_algebraic(env, rng, draw_alpha(rng, 3 + (i + r) % 4), 1, 48))
        reqs.append(req_phi(env, phi_systems[2 * r % 3], 2, 2, 96))
        reqs.append(req_phi(env, phi_systems[(2 * r + 1) % 3], 2, 2, 96))
    return out


def series_relations_warmup(env, rng):
    c2, c3 = env.bundled["cantor2"], env.bundled["cantor3"]
    return [req_solve(env, c2, 64), req_verify(env, c2, 64), req_guess(env, c3, 1, 30, 1),
            req_lift(env, WARMUP_ALPHA, 1, 40),
            req_lift_algebraic(env, rng, WARMUP_ALPHA, 1, 48), req_phi(env, c2, 1, 1, 60)]


# ---------------------------------------------------------------------------
# request-mix: small requests through the command-line entry point

def _mix_call(env, argv):
    """The maker of a request that runs ``cli.main(argv)``; returns (exit code, stdout)."""
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = env.cli.main(argv)
        return rc, out.getvalue()
    return lambda: call


def _doc(out, want_rc=0):
    rc, text = out
    expect(rc == want_rc, f"exit code {rc}, expected {want_rc}")
    return json.loads(text)


def _fr_list(xs):
    return [Fr(x) for x in xs]


def _corrupt_doc(path, bump):
    """A corrupted copy of (rc, stdout): the value at `path` in the JSON document changed."""
    def corrupt(out):
        rc, text = out
        doc = json.loads(text)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bump(node[path[-1]])
        return rc, json.dumps(doc)
    return corrupt


def _bump_str(s):
    return fr_str(Fr(s) + 1)


class MixSystem:
    """A system as the command line sees it: a file name plus the reference data."""

    def __init__(self, sys, arg):
        self.sys, self.arg = sys, arg


def mix_regular(env, ms, alpha):
    argv = ["regular", "--system", ms.arg, f"--alpha={fr_str(alpha)}", "--json"]
    k = O.first_singular_iterate(ms.sys, alpha)

    def check(out):
        cert = _doc(out, 0 if k is None else 1)["certificate"]
        expect(Fr(cert["alpha"]) == alpha, "alpha echo")
        expect(cert["regular"] == (k is None), f"regular={cert['regular']}, reference k={k}")
        if k is not None:
            expect(cert["failing_k"] == k and cert["failure_kind"] == "singular",
                   f"failing_k {cert['failing_k']}, reference {k}")

    return Request("regular", " ".join(argv), _mix_call(env, argv), check,
                   lambda out: f"{out[0]}\n{out[1]}",
                   _corrupt_doc(["certificate", "regular"], lambda v: not v))


def mix_cocycle(env, ms, alpha, k):
    argv = ["cocycle", "--system", ms.arg, f"--alpha={fr_str(alpha)}", "--k", str(k), "--json"]

    def check(out):
        doc = _doc(out)
        sym = O.symbolic_cocycle(ms.sys, k)
        got = [[_fr_list(e) for e in row] for row in doc["matrix"]]
        expect(got == sym, "symbolic A_k(z)")
        val = [[Fr(v) for v in row] for row in doc["value"]]
        expect(val == env.iterates(ms.sys, alpha).mat(k), "A_k(alpha)")

    return Request("cocycle", " ".join(argv), _mix_call(env, argv), check,
                   lambda out: f"{out[0]}\n{out[1]}",
                   _corrupt_doc(["value", 0, 0], _bump_str))


def mix_heights(env, ms, alpha, kmax):
    argv = ["heights", "--system", ms.arg, f"--alpha={fr_str(alpha)}", "--kmax", str(kmax),
            "--json"]

    def close(a, b):
        return abs(a - b) <= 1e-9 * max(1.0, abs(b))

    def check(out):
        rep = _doc(out)["report"]
        it = env.iterates(ms.sys, alpha)
        expect([r["k"] for r in rep["rows"]] == list(range(kmax + 1)), "rows")
        gamma = 0.0
        for r in rep["rows"]:
            k = r["k"]
            hs = [[O.height(v) for v in row] for row in it.mat(k)]
            got = [[h["log"] for h in row] for row in r["heights"]]
            expect(all(close(g, h) for gr, hr in zip(got, hs) for g, h in zip(gr, hr)),
                   f"entry heights at k={k}")
            ratio = max(max(row) for row in hs) / ms.sys.q ** k if k else 0.0
            expect(close(r["max_ratio"], ratio), f"max ratio at k={k}")
            gamma = max(gamma, ratio)
        expect(close(rep["gamma_hat"], gamma), "gamma_hat")

    return Request("heights", " ".join(argv), _mix_call(env, argv), check,
                   lambda out: f"{out[0]}\n{out[1]}",
                   _corrupt_doc(["report", "gamma_hat"], lambda v: v * 1.5 + 1))


def mix_lift(env, ms, alpha, deg, order):
    tau = (Fr(1), Fr(-1), alpha)
    argv = ["lift", "--system", ms.arg, f"--alpha={fr_str(alpha)}",
            "--tau=" + ",".join(fr_str(t) for t in tau), "--deg", str(deg),
            "--order", str(order), "--json"]

    def order_of(doc):  # the relation order the command line used
        return max(order, ms.sys.m * (doc["degrees_tried"][-1] + 1) + 16)

    def check(out):
        doc = _doc(out)
        expect(doc["status"] == "lifted", "status")
        n = order_of(doc)
        polys = [_fr_list(p) for p in doc["lift"]["coefficients"]]
        expect([O.peval(p, alpha) for p in polys] == list(tau), "specialization at alpha")
        check_lift_order(doc["lift"]["residual_order"], linear_order(env, ms.sys, polys, n), n)

    def corrupt_vanishing(out):
        rc, text = out
        doc = json.loads(text)
        n, lift = order_of(doc), doc["lift"]
        polys = [_fr_list(p) for p in lift["coefficients"]]
        polys[0] = off_relation(polys[0], alpha, n // 2)
        lift["coefficients"][0] = [fr_str(c) for c in polys[0]]
        lift["residual_order"] = linear_order(env, ms.sys, polys, n)
        return rc, json.dumps(doc)

    return Request("lift", " ".join(argv), _mix_call(env, argv), check,
                   lambda out: f"{out[0]}\n{out[1]}",
                   (_corrupt_doc(["lift", "coefficients", 0],
                                 lambda p: [_bump_str(p[0])] + p[1:] if p else ["1"]),
                    corrupt_vanishing))


def mix_kron_lift(env, rng, ms, alpha, deg, order):
    P = cantor3_relation(rng, alpha)
    argv = ["kron-lift", "--system", ms.arg, f"--alpha={fr_str(alpha)}",
            f"--poly={poly_text(P)}", "--deg", str(deg), "--order", str(order), "--json"]

    def order_of(doc):  # the relation order the command line used: m^2 (d + 1) + 16
        return max(order, 9 * (doc["degrees_tried"][-1] + 1) + 16)

    def coeffs_of(doc):
        return {tuple(t["exponents"]): _fr_list(t["poly"]) for t in doc["lift"]["coefficients"]}

    def check(out):
        doc = _doc(out)
        expect(doc["status"] == "lifted", "status")
        check_algebraic_lift(env, P, alpha, coeffs_of(doc), doc["lift"]["residual_order"],
                             order_of(doc))

    def corrupt_vanishing(out):
        rc, text = out
        doc = json.loads(text)
        n, coeffs, lift = order_of(doc), coeffs_of(doc), doc["lift"]
        first = lift["coefficients"][0]
        lam = tuple(first["exponents"])
        coeffs[lam] = off_relation(coeffs[lam], alpha, n // 2)
        first["poly"] = [fr_str(c) for c in coeffs[lam]]
        lift["residual_order"] = algebraic_order(env, coeffs, n)
        return rc, json.dumps(doc)

    return Request("kron-lift", " ".join(argv), _mix_call(env, argv), check,
                   lambda out: f"{out[0]}\n{out[1]}",
                   (_corrupt_doc(["lift", "coefficients", 0, "poly"],
                                 lambda p: [_bump_str(p[0])] + p[1:]), corrupt_vanishing))


def mix_kernel(env, ms, alpha, delta1, delta2):
    argv = ["kernel", "--system", ms.arg, f"--alpha={fr_str(alpha)}", "--delta1", str(delta1),
            "--delta2", str(delta2), "--json"]
    sys = ms.sys
    entries = O.box_entries(sys.m, delta1, delta2)
    index = {e: i for i, e in enumerate(entries)}

    def check(out):
        doc = _doc(out)
        ks, held = doc["k_used"], doc["held_out_verified"]
        vecs = [O.parse_box_poly(s, sys.m) for s in doc["basis"]]
        expect(len(vecs) == doc["dimension"], "basis size")
        it = env.iterates(sys, alpha)
        for terms in vecs:
            expect(all(key in index for key in terms), "monomial outside the box")
            for k in ks + held:
                expect(O.poly_value(terms, it.mat(k), it.x(k)) == 0,
                       f"kernel vector does not vanish at k={k}")
        rank = doc["rank"]
        expect(env.box_rank(sys, alpha, entries, ks, rank) == rank, "rank")
        expect(doc["dimension"] == len(entries) - rank, "dimension = columns - rank")
        dense = [[terms.get(e, Fr(0)) for e in entries] for terms in vecs]
        expect(O.rank_of(dense, len(vecs)) == len(vecs), "basis not independent")

    return Request("kernel", " ".join(argv), _mix_call(env, argv), check,
                   lambda out: f"{out[0]}\n{out[1]}",
                   _corrupt_doc(["rank"], lambda r: r + 1))


def mix_solve(env, ms, order):
    argv = ["solve", "--system", ms.arg, "--order", str(order), "--json"]

    def check(out):
        doc = _doc(out)
        f = [_fr_list(s) for s in doc["series"]]
        expect(f == env.series(ms.sys, order), "series coefficients")

    return Request("solve", " ".join(argv), _mix_call(env, argv), check,
                   lambda out: f"{out[0]}\n{out[1]}",
                   _corrupt_doc(["series", 0, 1], _bump_str))


def mix_prove(env, ms, alpha, tau, delta1, delta2, kset, kmax):
    argv = ["prove", "--system", ms.arg, f"--alpha={fr_str(alpha)}",
            "--tau=" + ",".join(fr_str(t) for t in tau), "--delta1", str(delta1),
            "--delta2", str(delta2), f"--kset={kset[0]}..{kset[1]}", "--kmax", str(kmax),
            "--json"]
    sys = ms.sys

    def check(out):
        doc = _doc(out)
        aux = doc["aux"]
        P = [O.parse_box_poly(s, sys.m) for s in aux["P"]]
        expect(len(P) == delta1 + 1 and any(P), "P_j must not all vanish")
        v0 = aux["v0"]
        expect(v0 == min(j for j, pj in enumerate(P) if pj), "v0")
        p = aux["p"]
        expect(doc["identity_verified_order"] == p, "identity order")
        it = env.iterates(sys, alpha)
        f = env.series(sys, p)
        for k in aux["kset_constraints"] + aux["kset_heldout"]:
            expect(O.constraint_value(P, tau, it.mat(k), it.x(k), f, p) == 0,
                   f"auxiliary function does not vanish at k={k}")
        rows = doc["decay"]["rows"]
        expect([r["k"] for r in rows] == list(range(kmax + 1)), "decay rows")
        for r in rows:
            k = r["k"]
            val = O.poly_value(P[v0], it.mat(k), it.x(k))
            expect(Fr(r["value"]) == val, f"decay value at k={k}")
            expect(r["is_zero"] == (val == 0) and r["liouville_ok"], f"decay flags at k={k}")
        expect(doc["liouville_all_ok"], "Liouville floor")

    return Request("prove", " ".join(argv), _mix_call(env, argv), check,
                   lambda out: f"{out[0]}\n{out[1]}",
                   _corrupt_doc(["decay", "rows", -1, "value"], _bump_str))


def skewed(rng, pool, count, weight=lambda i: 1.0 / (i + 1)):
    """`count` picks from pool, slot i taking a share proportional to weight(i).

    The number of picks of each slot is fixed (largest remainder) and only
    their order is drawn, so pairs repeat as under a Zipf law while every seed
    sends the same number of requests to each slot and the cost mix stays put.
    """
    w = [weight(i) for i in range(len(pool))]
    exact = [count * x / sum(w) for x in w]
    counts = [int(e) for e in exact]
    by_rest = sorted(range(len(pool)), key=lambda i: counts[i] - exact[i])
    for i in by_rest[:count - sum(counts)]:
        counts[i] += 1
    picks = [pool[i] for i, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(picks)
    return picks


def request_mix(env, rng, rounds, sysdir):
    """Many small command-line requests over a skewed set of (system, alpha) pairs."""
    systems = dict(env.bundled)
    systems["shrinking16"] = shrinking16()
    systems["randA"] = random_scalar(rng, "randA", 2, 2)
    systems["randB"] = random_matrix(rng, "randB", 2, 2)
    systems["randC"] = random_scalar(rng, "randC", 3, 1)
    ms = {}
    for name, sys in systems.items():
        if name in BUNDLED:
            ms[name] = MixSystem(sys, f"{name}.json")
        else:
            path = os.path.join(sysdir, f"{name}.json")
            with open(path, "w", encoding="ascii") as fh:
                json.dump(sys.doc(), fh)
            ms[name] = MixSystem(sys, os.path.relpath(path))
    order = ["cantor2", "thue_morse", "randA", "cantor3", "randC", "randB", "shrinking16"]
    general = []
    for i in range(14):
        s = ms[order[i % len(order)]]
        general.append((s, regular_alpha(rng, s.sys, 3 + i % 4, i)))
    # known non-regular points of 1 - 16z sit among the frequent pairs
    s16 = ms["shrinking16"]
    regular_pool = list(general)
    for pos, a in ((1, Fr(1, 4)), (3, Fr(-1, 4)), (6, Fr(1, 2)), (9, Fr(1, 16))):
        regular_pool.insert(pos, (s16, a))
    # kernel boxes stay small: q = 2 and at most 16 y-monomials (with q = 3 the
    # iterates the kernel search reaches grow to millions of bits)
    small = [(s, a) for s, a in general
             if s.sys.q == 2 and (s.sys.m == 1 or s.sys.name == "cantor2")]
    c3 = ms["cantor3"]
    c3_alphas = [draw_alpha(rng, 3 + i % 4, i) for i in range(8)]
    zero_tau = [(s, a) for s, a in general if s.sys.name in ("cantor2", "thue_morse")]
    n = rounds
    plan = {
        "regular": skewed(rng, regular_pool, 8 * n),
        "cocycle": skewed(rng, general, 5 * n),
        "heights": skewed(rng, general, 5 * n),
        "lift": skewed(rng, c3_alphas, 5 * n),
        "kron-lift": skewed(rng, c3_alphas, 4 * n),
        "kernel": skewed(rng, small, 4 * n),
        "solve": skewed(rng, order, 4 * n, weight=lambda i: 1.0),
        "prove0": skewed(rng, zero_tau, 2 * n),
        "prove": skewed(rng, c3_alphas, (n + 1) // 2),
    }
    out = []
    for r in range(n):
        reqs = []
        out.append(reqs)
        def take(kind, per_round):
            return enumerate(plan[kind][r * per_round:(r + 1) * per_round],
                             start=r * per_round)

        reqs += [mix_regular(env, s, a) for _, (s, a) in take("regular", 8)]
        reqs += [mix_cocycle(env, s, a, 3 + i % 2) for i, (s, a) in take("cocycle", 5)]
        reqs += [mix_heights(env, s, a, 6 + i % 4) for i, (s, a) in take("heights", 5)]
        reqs += [mix_lift(env, c3, a, 1 + i % 2, 64) for i, a in take("lift", 5)]
        reqs += [mix_kron_lift(env, rng, c3, a, 1, 48) for _, a in take("kron-lift", 4)]
        reqs += [mix_kernel(env, s, a, 1, i % 2) for i, (s, a) in take("kernel", 4)]
        reqs += [mix_solve(env, ms[name], 120 + 7 * (i % 4)) for i, name in take("solve", 4)]
        reqs += [mix_prove(env, s, a, (Fr(0),) * s.sys.m, 1, 1 + i % 4, (2, 3), 6)
                 for i, (s, a) in take("prove0", 2)]
        if r % 2 == 0:  # the auxiliary-function build for cantor3 costs ten small requests
            i, a = r // 2, plan["prove"][r // 2]
            reqs.append(mix_prove(env, c3, a, (Fr(1), Fr(-1), a), 1, 1 + i % 2, (2, 3), 6))
    return out


def request_mix_warmup(env):
    c2, c3, tm = (MixSystem(env.bundled[n], f"{n}.json")
                  for n in ("cantor2", "cantor3", "thue_morse"))
    a = WARMUP_ALPHA
    import random

    rng = random.Random(0)
    return [mix_regular(env, c2, a), mix_cocycle(env, c2, a, 3), mix_heights(env, tm, a, 5),
            mix_lift(env, c3, a, 1, 64), mix_kron_lift(env, rng, c3, a, 1, 48),
            mix_kernel(env, tm, a, 1, 0), mix_solve(env, c2, 64),
            mix_prove(env, c2, a, (Fr(0), Fr(0)), 1, 2, (2, 3), 4)]


WORKLOADS = ("ideal-ranks", "series-relations", "request-mix")


def build(name, seed, rounds, env, sysdir):
    """(warm-up requests, timed requests grouped by round) for one workload and seed."""
    import random

    rng = random.Random(f"{name}/{seed}")
    if name == "ideal-ranks":
        return ideal_ranks_warmup(env), ideal_ranks(env, rng, rounds)
    if name == "series-relations":
        return series_relations_warmup(env, random.Random(0)), series_relations(env, rng, rounds)
    if name == "request-mix":
        return request_mix_warmup(env), request_mix(env, rng, rounds, sysdir)
    raise ValueError(f"unknown workload {name!r}")
