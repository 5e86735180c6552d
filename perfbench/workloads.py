"""The four workloads: their seeded inputs, the operations and the checks.

A workload hands out rounds.  A round is a fixed list of operations, the
same kinds on the same base inputs every time; the seed and the round
number only choose the basis changes (cohomology, algebra), the sampling
seeds (pinch) or the command order (cli).  So every run attempts whole
rounds, and operations that fail do so in the same share in every run.

Every check compares with oracles.py or with a property the method must
have (basis invariance, values the paper or the acceptance suite derive);
none compares with a stored copy of the program's output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

import oracles as orc

import lie_sbe


class Fault(NamedTuple):
    """A known fault of the program that makes an operation fail."""
    cause: str
    symptom: str        # text of the failure it gives; any other failure is incorrect


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]    # None when the output is right
    fault: Fault | None = None


def _law(table, n):
    return lie_sbe.LieLaw(n, table)


def _catalog_table(name):
    law = lie_sbe.catalog(name)
    return dict(law.table), law.dim


def _semidirect(nil_table, n, alpha):
    """N x| R A with [A, x] = alpha x, A last: [e_i, A] = -alpha e_i."""
    table = dict(nil_table)
    for i in range(n):
        row = {k: -Fraction(alpha[k][i]) for k in range(n) if alpha[k][i]}
        if row:
            table[(i, n)] = row
    return table, n + 1


def _rng(seed, *salt):
    return random.Random("%s:%s" % (seed, ":".join(map(str, salt))))


def _transported(base, rng, shears):
    """(table, Q, Q^-1) of a seeded unimodular copy of a (table, dim) law."""
    table, n = base
    q, q_inv = orc.unimodular(rng, n, shears)
    return orc.transport(table, n, q, q_inv), q, q_inv


def _expect(cond, msg):
    return None if cond else msg


# --------------------------------------------------------------- cohomology --

# (kind, law, degree).  Queries are grouped by weight so that the median and
# the 90th percentile of a run each fall inside a group of like queries, not
# on the edge between two groups, where machine noise would move them:
# about 30 % light (~0.02 s), 55 % medium (0.06-0.14 s) and 18 % heavy
# (0.2-0.36 s, the top group holding the p90).  Adjoint H^2 of b(8,R),
# b(4,C), b(2,H) and heis(9) (1.1-3.5 s each) is left out: any one of them
# would dominate a round.
COHOMOLOGY_QUERIES = (
    # light
    [("h_adj", name, 1) for name in ("l_6_6", "l_6_7", "l_6_11", "l_6_12", "l_6_13")]
    + [("cup", "l_6_7", None), ("basis_trivial", "heis(7)", 3), ("basis_adjoint", "heis(5)", 1)]
    # medium
    + [("betti", name, None) for name in ("b(8,R)", "b(4,C)", "b(2,H)")]
    + [("h_adj", name, 1) for name in ("b(8,R)", "b(4,C)", "b(2,H)")]
    + [("h_adj", name, 2) for name in ("b(6,R)", "b(3,C)", "l_6_6", "l_6_7", "l_6_11", "l_6_12", "l_6_13")]
    + [("basis_adjoint", "heis(7)", 1), ("cup", "heis(7)", None)]
    # heavy
    + [("betti", "heis(9)", None), ("h_adj", "heis(9)", 1), ("h_adj", "b(7,R)", 2),
       ("h_adj", "heis(7)", 2), ("basis_adjoint", "l_6_13", 2)]
)


class Cohomology:
    """Cohomology-dimension queries, each on a fresh signed-permutation copy."""

    def __init__(self, seed):
        self.seed = seed
        self.bases = {name: _catalog_table(name) for _, name, _ in COHOMOLOGY_QUERIES}
        self._oracle = {}

    def oracle(self, kind, name, q):
        key = (kind, name, q)
        if key not in self._oracle:
            table, n = self.bases[name]
            if kind == "betti":
                value = orc.known_betti(name, n) or orc.betti(table, n)
            elif kind == "cup":
                value = orc.cup_square_rank(table, n)
            else:
                adjoint = kind != "basis_trivial"
                closed = {(1, True): orc.h1_adjoint(name),
                          (2, True): 18 if name == "l_6_7" else None}.get((q, adjoint))
                value = closed if closed is not None else orc.h_dim(table, n, q, adjoint)
            self._oracle[key] = value
        return self._oracle[key]

    def op(self, kind, name, q, rng):
        table, n = self.bases[name]
        q_mat, q_inv = orc.unimodular(rng, n, 0)       # signed permutation only
        moved = orc.transport(table, n, q_mat, q_inv)
        law = _law(moved, n)
        if kind == "betti":
            call = lambda: lie_sbe.betti_numbers(law)
            check = lambda out: _expect(out == self.oracle(kind, name, q), "betti %s" % out)
        elif kind == "h_adj":
            call = lambda: lie_sbe.adjoint_h_dim(law, q)
            check = lambda out: _expect(out == self.oracle(kind, name, q), "H^%d = %s" % (q, out))
        elif kind == "cup":
            call = lambda: lie_sbe.cup_square_rank(law)
            check = lambda out: _expect(out == self.oracle(kind, name, q), "cup rank %s" % out)
        else:
            adjoint = kind == "basis_adjoint"
            module = "adjoint" if adjoint else "trivial"
            call = lambda: lie_sbe.cohomology_basis(law, q, module)

            def check(out):
                if len(out) != self.oracle(kind, name, q):
                    return "%d representatives" % len(out)
                vecs = [orc.cochain_vector(c.terms, n, q, adjoint) for c in out]
                return _expect(orc.represents_basis(moved, n, q, adjoint, vecs),
                               "representatives are not independent cocycles")
        label = "%s %s%s" % (kind, name, "" if q is None else " q=%d" % q)
        return Op(kind, label, call, check)

    def round(self, r):
        rng = _rng(self.seed, "cohomology", r)
        return [self.op(kind, name, q, rng) for kind, name, q in COHOMOLOGY_QUERIES]

    def warmup(self):
        """One light query of each kind."""
        rng = _rng(self.seed, "warmup")
        return [self.op(kind, name, q, rng) for kind, name, q in
                (("betti", "heis(5)", None), ("h_adj", "heis(5)", 1), ("basis_trivial", "heis(5)", 1),
                 ("basis_adjoint", "heis(5)", 1), ("cup", "l_6_7", None))]

    def check_round(self, results):
        return None


# ------------------------------------------------------------------ algebra --

def _jordan(lam, size):
    return [[lam if r == c else (1 if c == r + 1 else 0) for c in range(size)] for r in range(size)]


def _diag(*entries):
    return [[Fraction(entries[r]) if r == c else 0 for c in range(len(entries))] for r in range(len(entries))]


def _table2_inputs():
    """The classification inputs of table 2 with the paper's verdicts."""
    heis3 = _catalog_table("heis(3)")[0]
    return {
        "R3xI": (_semidirect({}, 3, _diag(1, 1, 1)), ("real_hyperbolic", 4, None)),
        "R3x(1+J2)": (_semidirect({}, 3, [[1, 0, 0], [0, 1, 1], [0, 0, 1]]), ("real_hyperbolic", 4, None)),
        "R3xJ3": (_semidirect({}, 3, _jordan(1, 3)), ("real_hyperbolic", 4, None)),
        "heisx(1,1,2)": (_semidirect(heis3, 3, _diag(1, 1, 2)), ("complex_hyperbolic_plane", 2, "SU21")),
        "heisx(J2+2)": (_semidirect(heis3, 3, [[1, 1, 0], [0, 1, 0], [0, 0, 2]]),
                        ("complex_hyperbolic_plane", 2, "S_prime")),
        "R3x(1,1,3/2)": (_semidirect({}, 3, _diag(1, 1, Fraction(3, 2))), ("none", None, None)),
    }


ALGEBRA_CATALOG = ("b(2,R)", "b(3,R)", "b(4,R)", "b(5,R)", "b(2,C)", "b(3,C)", "heis(3)", "heis(5)",
                   "l_4_3", "l_6_6", "l_6_7", "l_6_11", "l_6_12", "l_6_13",
                   "s_prime", "s_second", "h2c_solvable", "aff")
PAPER_VERDICTS = {"h2c_solvable": ("complex_hyperbolic_plane", 2, "SU21"),
                  "s_prime": ("complex_hyperbolic_plane", 2, "S_prime")}
PAPER_VERDICTS.update({"b(%d,R)" % n: ("real_hyperbolic", n, None) for n in range(2, 6)})


def _parse_wire(d):
    """A law in the JSON wire format as (table, dim)."""
    table = {}
    for e in d["brackets"]:
        table.setdefault((e["i"] - 1, e["j"] - 1), {})[e["k"] - 1] = Fraction(e["c"])
    return table, d["dim"]


class Algebra:
    """Small dense exact routines on catalog and table-2 laws, each call on a
    fresh seeded unimodular integer basis change."""

    SHEARS = 4

    def __init__(self, seed):
        self.seed = seed
        self.bases = {name: _catalog_table(name) for name in ALGEBRA_CATALOG}
        self.verdicts = dict(PAPER_VERDICTS)
        for name, (base, verdict) in _table2_inputs().items():
            self.bases[name] = base
            self.verdicts[name] = verdict
        self.expected = {"h2c": (orc.h2c_table(), 4)}
        self._base_out = {}
        self._inv = {}
        self.plan = self._plan()

    def _plan(self):
        solvable = [n for n in self.bases if not n.startswith(("heis", "l_"))]
        plan = []
        for name in self.bases:
            plan += [("check_jacobi", (name,)), ("derivations", (name,)), ("center", (name,))]
        plan += [("classify", (name,)) for name in solvable + ["heis(3)", "l_4_3"]]
        plan += [("semicontinuity", pair) for pair in
                 (("l_6_7", "l_6_6"), ("l_6_6", "l_6_7"), ("s_prime", "h2c_solvable"),
                  ("R3xJ3", "b(4,R)"), ("l_6_13", "l_6_7"))]
        plan += [("spectral", pair) for pair in
                 (("s_prime", "h2c_solvable"), ("R3xI", "R3xJ3"), ("b(4,R)", "R3x(1,1,3/2)"),
                  ("heisx(1,1,2)", "heisx(J2+2)"), ("l_6_7", "l_6_6"))]
        plan += [("h2c_certificate", (name,)) for name in
                 ("s_prime", "h2c_solvable", "b(2,C)", "heisx(1,1,2)", "heisx(J2+2)", "s_second")]
        plan += [("lauret_certificate", (name,)) for name in
                 ("b(2,R)", "b(3,R)", "b(4,R)", "b(5,R)", "R3xI", "R3x(1+J2)", "R3xJ3", "R3x(1,1,3/2)")]
        plan += [("cornulier", (name,)) for name in ("s_prime", "heis(3)", "l_6_6", "l_6_13")]
        plan += [("contraction", (name,)) for name in ("s_prime", "R3xJ3")]
        plan += [("graded", (name,)) for name in ("l_6_6", "l_6_13", "l_6_11", "l_6_12", "heis(5)", "l_4_3")]
        return plan

    # -- references --------------------------------------------------------

    def base_output(self, kind, names):
        """The program's answer on the untransported laws (basis invariance)."""
        key = (kind, names)
        if key not in self._base_out:
            laws = [_law(*self.bases[n]) for n in names]
            self._base_out[key] = self._run(kind, laws, names, None)
        return self._base_out[key]

    def invariants(self, key, table=None, n=None):
        """orc.invariants of a named law, or of a given table (memoized)."""
        if table is not None:
            key = (n, tuple(sorted((ij, k, Fraction(c)) for ij, row in table.items() for k, c in row.items())))
        if key not in self._inv:
            self._inv[key] = orc.invariants(table, n) if table is not None else orc.invariants(
                *self.expected.get(key) or self.bases[key])
        return self._inv[key]

    def semicontinuity_rows(self, names):
        """(name, source, target) rows from oracle invariants of the two laws."""
        if names not in self._base_out:
            (ts, ns), (tt, nt) = self.bases[names[0]], self.bases[names[1]]
            bs, bt = self.invariants(names[0])[0], self.invariants(names[1])[0]
            rows = [("b_%d" % q, bs[q], bt[q]) for q in range(ns + 1)]
            rows.append(("dim_H1_adjoint", orc.h_dim(ts, ns, 1, True), orc.h_dim(tt, nt, 1, True)))
            rows.append(("dim_center", orc.center_dim(ts, ns), orc.center_dim(tt, nt)))
            self._base_out[names] = rows
        return self._base_out[names]

    def _run(self, kind, laws, names, q_mats):
        law = laws[0]
        if kind == "check_jacobi":
            return lie_sbe.check_jacobi(law)
        if kind == "derivations":
            return lie_sbe.derivations(law)
        if kind == "center":
            return lie_sbe.center(law)
        if kind == "classify":
            return lie_sbe.classify_hyperbolic(law)
        if kind == "semicontinuity":
            return lie_sbe.semicontinuity_obstruction(laws[0], laws[1])
        if kind == "spectral":
            return lie_sbe.spectral_obstruction(laws[0], laws[1])
        if kind == "h2c_certificate":
            return lie_sbe.h2c_certificate(law)
        if kind == "lauret_certificate":
            return lie_sbe.lauret_certificate(law)
        if kind == "cornulier":
            n = law.dim
            # s_prime: the line of A; a nilpotent law is its own Cartan subalgebra
            cartan = [[0, 0, 0, 1]] if names[0] == "s_prime" else [orc.unit(n, i) for i in range(n)]
            if q_mats is not None:
                q_inv = q_mats[0][1]
                cartan = [[sum(q_inv[r][m] * v[m] for m in range(n)) for r in range(n)] for v in cartan]
            return lie_sbe.cornulier_reduction(law, cartan)
        if kind == "contraction":
            w = (0, -1, -1, 0) if names[0] == "s_prime" else (-1, -2, -3, 0)
            p = q_mats[0][0] if q_mats is not None else None
            return lie_sbe.contraction_limit(lie_sbe.apply_family(law, lie_sbe.ScalingFamily(w=w, p=p)))
        if kind == "graded":
            return lie_sbe.graded_nilpotent(law)
        raise ValueError(kind)

    # -- operations --------------------------------------------------------

    def op(self, kind, names, rng):
        moved = [_transported(self.bases[n], rng, self.SHEARS) for n in names]
        laws = [_law(t, self.bases[n][1]) for (t, _, _), n in zip(moved, names)]
        q_mats = [(q, q_inv) for _, q, q_inv in moved]
        table, n = moved[0][0], laws[0].dim
        name = names[0]

        def check(out):
            if kind == "check_jacobi":
                return _expect(out.ok and orc.jacobi_ok(table, n), "Jacobi")
            if kind == "derivations":
                if out.der_dim != orc.der_dim(table, n) or out.inner_dim != n - orc.center_dim(table, n):
                    return "dim Der %d, inner %d" % (out.der_dim, out.inner_dim)
                return _expect(orc.derivations_ok(table, n, out.der_basis),
                               "a returned matrix is not a derivation")
            if kind == "center":
                if out.dim != orc.center_dim(table, n):
                    return "center dim %d" % out.dim
                return _expect(all(not any(orc.bracket(table, list(z), orc.unit(n, i)))
                                   for z in out.rows for i in range(n)), "center vector not central")
            if kind == "classify":
                want = self.verdicts.get(name)
                if want is None:
                    base = self.base_output(kind, names)
                    want = (base.target, base.n, base.commable_to)
                return _expect((out.target, out.n, out.commable_to) == want,
                               "verdict %s" % ((out.target, out.n, out.commable_to),))
            if kind == "semicontinuity":
                got = [(r.name, r.source, r.target) for r in out.rows]
                if got != self.semicontinuity_rows(names) or any(r.violated != (r.target < r.source) for r in out.rows):
                    return "rows %s" % got
                return _expect(out.obstructed == any(r.violated for r in out.rows), "obstructed flag")
            if kind == "spectral":
                return _expect(out.status == self.base_output(kind, names).status, "status %s" % out.status)
            if kind in ("h2c_certificate", "lauret_certificate"):
                base = self.base_output(kind, names)
                if out.applies != base.applies:
                    return "applies %s" % out.applies
                if not out.applies:
                    return None
                target = orc.h2c_table() if kind == "h2c_certificate" else orc.real_hyperbolic_table(n)
                limit = orc.contraction(table, n, out.family.w, out.family.p)
                return _expect(limit is not None and orc.same_table(limit, target)
                               and orc.same_table(out.limit.table, target), "certificate limit")
            if kind == "cornulier":
                base = self.base_output(kind, names)
                if (out.r_dim, out.w_dim) != (base.r_dim, base.w_dim):
                    return "r_dim %d w_dim %d" % (out.r_dim, out.w_dim)
                want = {"s_prime": "h2c"}.get(name, "l_6_7" if name.startswith("l_6") else name)
                got_inf = self.invariants(None, dict(out.g_inf.table), out.g_inf.dim)
                got_1 = self.invariants(None, dict(out.g1.table), out.g1.dim)
                return _expect(got_inf == self.invariants(want) and got_1 == self.invariants(
                    None, dict(base.g1.table), base.g1.dim) and orc.jacobi_ok(dict(out.g_inf.table), n),
                    "reduction invariants")
            if kind == "contraction":
                target = orc.h2c_table() if name == "s_prime" else orc.real_hyperbolic_table(4)
                w = (0, -1, -1, 0) if name == "s_prime" else (-1, -2, -3, 0)
                own = orc.contraction(table, n, w, q_mats[0][0])
                return _expect(own is not None and orc.same_table(own, target)
                               and orc.same_table(out.table, target), "contraction limit")
            if kind == "graded":
                gr = dict(out.gr.table)
                w = out.weights
                if any(w[k] != w[i] + w[j] for (i, j), row in gr.items() for k in row):
                    return "graded law is not graded by its weights"
                want = self.invariants("l_6_7") if name in ("l_6_6", "l_6_13") else self.invariants(
                    None, dict(self.base_output(kind, names).gr.table), n)
                return _expect(orc.jacobi_ok(gr, n) and self.invariants(None, gr, n) == want,
                               "graded law invariants")
            raise ValueError(kind)

        return Op(kind, "%s %s" % (kind, " -> ".join(names)),
                  lambda: self._run(kind, laws, names, q_mats), check)

    def round(self, r):
        rng = _rng(self.seed, "algebra", r)
        return [self.op(kind, names, rng) for kind, names in self.plan]

    def warmup(self):
        rng = _rng(self.seed, "warmup")
        seen = set()
        ops = []
        for kind, names in self.plan:
            if kind not in seen:
                seen.add(kind)
                ops.append(self.op(kind, names, rng))
        return ops

    def check_round(self, results):
        return None


# -------------------------------------------------------------------- pinch --

NORMAL_OK = {
    "I2": [[1, 0], [0, 1]],
    "rot2": [[1, -2], [2, 1]],
    "rot2+rot3": [[1, -2, 0, 0], [2, 1, 0, 0], [0, 0, 1, -3], [0, 0, 3, 1]],
}
JORDAN = {
    "J2": [[1, 1], [0, 1]],
    "J3": [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
    "2J2+2": [[2, 2, 0], [0, 2, 0], [0, 0, 2]],
}
FLOAT_PATH = {"[[1,-1],[2,1]]": [[1, -1], [2, 1]]}
# Real part 1 throughout, so both should give -1; the exact certificate
# needs a strict gap and numpy.roots misplaces the repeated root.
UNEVEN_FAULT = Fault("heintze._min_real_part_exact needs a strictly larger real part for the other "
                     "roots; the numpy.roots fallback is 1e-8 off and curvature._layout_numeric "
                     "rejects it as uneven real parts",
                     "PreconditionError: uneven real parts in the spectrum")
FAILING = {
    "I2+rot2": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, -2], [0, 0, 2, 1]],
    "rot2+rot2": [[1, -2, 0, 0], [2, 1, 0, 0], [0, 0, 1, -2], [0, 0, 2, 1]],
}
EPS = (1.0, 0.1, 0.01)


class Pinch:
    # The tightest eps gets twice the samples.  Those calls form their own
    # class at the top of each round, so a run's p90 falls inside a class of
    # like calls and its p50 inside the 2000-sample class, not on a boundary
    # where machine noise would reorder two classes.
    SAMPLES = {1.0: 2000, 0.1: 2000, 0.01: 4000}

    def __init__(self, seed):
        self.seed = seed
        self.alphas = {**NORMAL_OK, **JORDAN, **FLOAT_PATH, **FAILING}
        self._frames = {}

    def frame(self, label, eps):
        if (label, eps) not in self._frames:
            self._frames[(label, eps)] = lie_sbe.frame_matrices(self.alphas[label], eps)
        return self._frames[(label, eps)]

    def op(self, label, eps, pansu, seed, samples):
        alpha = self.alphas[label]
        if pansu:
            call = lambda: lie_sbe.pansu_consistency(alpha, eps, samples=samples, seed=seed)
        else:
            call = lambda: lie_sbe.pinching_estimate(alpha, eps, samples=samples, seed=seed)

        def check(out):
            rep = out.curvature if pansu else out
            m = self.frame(label, eps).m
            if rep.samples != samples or not rep.bianchi_max < 1e-10:
                return "bianchi %g" % rep.bianchi_max
            ratio = rep.sec_min / rep.sec_max if rep.sec_max < 0 else float("inf")
            if not rep.sec_min <= rep.sec_max or not (rep.ratio == ratio or abs(rep.ratio - ratio) <= 1e-12):
                return "range [%g, %g], ratio %g" % (rep.sec_min, rep.sec_max, rep.ratio)
            for value, (u, v) in ((rep.sec_min, rep.min_pair), (rep.sec_max, rep.max_pair)):
                if abs(orc.koszul_sectional(m, u, v) - value) > 1e-9:
                    return "reported curvature disagrees with the Koszul formula"
            if np.allclose(m @ m.T, m.T @ m, atol=1e-12) and max(abs(rep.sec_min + 1), abs(rep.sec_max + 1)) > 1e-9:
                return "normal alpha with real parts 1 must give -1"
            if pansu and not (out.holds and abs(out.trace - m.shape[0]) < 1e-9):
                return "pansu bound"
            return None

        fault = UNEVEN_FAULT if label in FAILING else None
        return Op("pansu" if pansu else "pinching", "%s eps=%g" % (label, eps), call, check, fault)

    def round(self, r):
        rng = _rng(self.seed, "pinch", r)
        ops = []
        for a, label in enumerate(self.alphas):
            for e, eps in enumerate(EPS):
                ops.append(self.op(label, eps, (a + e) % 2 == 1, rng.randrange(2**31), self.SAMPLES[eps]))
        return ops

    def warmup(self):
        return [self.op("J2", 0.1, pansu, 0, 50) for pansu in (False, True)]

    def check_round(self, results):
        """Jordan ratios must tighten as eps falls."""
        ratios = {}
        for op, out, err in results:
            if err is None and op.label.split()[0] in JORDAN:
                rep = out.curvature if op.kind == "pansu" else out
                ratios.setdefault(op.label.split()[0], {})[float(op.label.split("=")[1])] = rep.ratio
        for label, by_eps in ratios.items():
            seq = [by_eps[e] for e in EPS if e in by_eps]
            if any(b >= a for a, b in zip(seq, seq[1:])):
                return "%s ratios do not tighten: %s" % (label, seq)
        return None


# ---------------------------------------------------------------------- cli --

README_COMMANDS = (
    ["check", "catalog:b(3,R)"],
    ["cohomology", "catalog:l_6_7", "--degree", "2", "--module", "adjoint"],
    ["contract", "catalog:s_prime", "--family", '{"w": [0, -1, -1, 0]}'],
    ["obstruct", "--source", "catalog:l_6_7", "--target", "catalog:l_6_6", "--spectral"],
    ["certify", "catalog:h2c_solvable", "--h2c"],
    ["reduce", "catalog:s_prime", "--cartan", "[[0, 0, 0, 1]]"],
    ["classify", "catalog:h2c_solvable"],
    ["table2", "--text"],
    ["pinch", "--alpha", "[[1,1],[0,1]]", "--eps", "0.1", "--samples", "2000", "--pansu"],
    ["buildings", "--p", "5", "--q", "2"],
    ["buildings", "--search", "20", "6", "4"],
    ["catalog", "list"],
    ["catalog", "dump", "heis(3)"],
)
CATALOG_CAUSE = ("cli._catalog_lookup tries the built-in catalog before LIE_SBE_CATALOG, "
                 "though the README says external files win")
DUMP_FAULT = Fault(CATALOG_CAUSE, "dump aff gave the built-in aff")
LIST_FAULT = Fault(CATALOG_CAUSE, "duplicate names ['aff']")
VERDICT_COMMANDS = ("check", "contract", "obstruct", "certify", "classify", "pinch")
EXTERNAL = {"aff": ({(0, 1): {2: 1}}, 3), "hyp3": ({(0, 2): {0: -1}, (1, 2): {1: -1}}, 3)}


def _wire(table, n):
    return {"dim": n, "basis": ["E%d" % (i + 1) for i in range(n)],
            "brackets": [{"i": i + 1, "j": j + 1, "k": k + 1, "c": str(c)}
                         for (i, j), row in sorted(table.items()) for k, c in sorted(row.items())]}


def _cli_check(argv, env_catalog):
    """Check of one command's (exit code, stdout, stderr) against documented values."""
    cmd = argv[0]
    s_prime = _catalog_table("s_prime")

    def check(out):
        code, stdout, stderr = out
        if code not in ((0, 1) if cmd in VERDICT_COMMANDS else (0,)):
            return "exit %d: %s" % (code, stderr.strip()[-200:])
        if cmd == "table2":
            rows = [line for line in stdout.splitlines() if "cdim=" in line]
            return _expect(len(rows) == 14 and "unresolved by this tool" in stdout, "table2 text")
        d = json.loads(stdout)
        if cmd == "check":
            fp = d["fingerprint"]
            return _expect(d["jacobi_ok"] and fp["dim"] == 3 and fp["betti"] == orc.borel_betti(3)
                           and fp["outer_dim"] == orc.h1_adjoint("b(3,R)") and fp["center_dim"] == 0
                           and fp["solvable"] and not fp["nilpotent"], "check payload")
        if cmd == "cohomology":
            return _expect(d["dim"] == 18, "H^2_adj(l_6_7) = %s" % d["dim"])
        if cmd == "contract":
            want = orc.contraction(*s_prime, (0, -1, -1, 0))
            return _expect(not d["diverges"] and orc.same_table(_parse_wire(d["limit"])[0], want)
                           and orc.same_table(want, orc.h2c_table()), "contract limit")
        if cmd == "obstruct":
            row = next(r for r in d["semicontinuity"]["rows"] if r["name"] == "dim_H1_adjoint")
            return _expect(d["obstructed"] and row["violated"] and (row["source"], row["target"]) == (9, 8),
                           "obstruct payload")
        if cmd == "certify":
            fam = d["family"]
            p = [[Fraction(x) for x in row] for row in fam["P"]] if fam.get("P") else None
            limit = orc.contraction(orc.h2c_table(), 4, [int(e) for e in fam["w"]], p)
            return _expect(d["applies"] and d["target"] == "h2c_solvable" and limit is not None
                           and orc.same_table(limit, orc.h2c_table())
                           and orc.same_table(_parse_wire(d["limit"])[0], orc.h2c_table()), "certify payload")
        if cmd == "reduce":
            return _expect(orc.same_table(_parse_wire(d["g_inf"])[0], orc.h2c_table()), "reduce g_inf")
        if cmd == "classify":
            return _expect((d["target"], d["n"], d["commable_to"]) == PAPER_VERDICTS["h2c_solvable"],
                           "classify payload")
        if cmd == "pinch":
            return _expect(d["pansu"]["holds"] and d["bianchi_max"] < 1e-10 and d["sec_min"] <= d["sec_max"] < 0
                           and d["ratio"] >= 1 and abs(d["pansu"]["trace"] - 2) < 1e-12, "pinch payload")
        if cmd == "buildings" and "--search" in argv:
            return _expect(d["hits"] and all(abs(h["cdim"] - h["cdim2"]) <= 1e-9 for h in d["hits"]),
                           "search hits")
        if cmd == "buildings":
            return _expect(d["value"] == 1.0 and d["exact_one"], "cdim of (5,2)")
        if argv[:2] == ["catalog", "list"]:
            names = d["names"]
            extra = sorted(EXTERNAL) if env_catalog else []
            if "heis(3)" not in names or not all(e in names for e in extra):
                return "names %s" % names
            return _expect(len(names) == len(set(names)), "duplicate names %s" % sorted(
                {n for n in names if names.count(n) > 1}))
        if argv[:2] == ["catalog", "dump"]:        # heis(3), and aff.json holds heis(3)
            table, dim = _parse_wire(d)
            if argv[2] == "aff" and (dim == 2 and orc.same_table(table, _catalog_table("aff")[0])):
                return "dump aff gave the built-in aff"
            return _expect(dim == 3 and orc.same_table(table, {(0, 1): {2: 1}}),
                           "dump %s has dim %d" % (argv[2], dim))
        raise ValueError(argv)

    return check


class Cli:
    """The README commands as separate `python -m lie_sbe.cli` processes;
    the traced run calls lie_sbe.cli.run in-process on the same argv."""

    def __init__(self, seed, src, workdir, in_process=False):
        if in_process:
            import lie_sbe.cli  # noqa: F401  (only the traced run calls it in-process)
        self.seed = seed
        self.src = src
        self.in_process = in_process
        self.catalog_dir = os.path.join(workdir, "catalog")
        os.makedirs(self.catalog_dir, exist_ok=True)
        for name, law in EXTERNAL.items():
            with open(os.path.join(self.catalog_dir, name + ".json"), "w", encoding="utf-8") as fh:
                json.dump(_wire(*law), fh)
        self.commands = [(argv, False, None) for argv in README_COMMANDS] + [
            (["catalog", "dump", "aff"], True, DUMP_FAULT),
            (["catalog", "list"], True, LIST_FAULT),
        ]

    def _env(self, env_catalog):
        env = {k: v for k, v in os.environ.items() if k != "LIE_SBE_CATALOG"}
        env["PYTHONPATH"] = self.src
        if env_catalog:
            env["LIE_SBE_CATALOG"] = self.catalog_dir
        return env

    def _call(self, argv, env_catalog):
        if not self.in_process:
            env = self._env(env_catalog)
            return lambda: _completed(subprocess.run(
                [sys.executable, "-m", "lie_sbe.cli", *argv], env=env,
                capture_output=True, text=True, timeout=120))

        def call():
            out, err = io.StringIO(), io.StringIO()
            saved = os.environ.pop("LIE_SBE_CATALOG", None)
            if env_catalog:
                os.environ["LIE_SBE_CATALOG"] = self.catalog_dir
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = lie_sbe.cli.run(list(argv))
                    except SystemExit as e:
                        code = e.code
            finally:
                os.environ.pop("LIE_SBE_CATALOG", None)
                if saved is not None:
                    os.environ["LIE_SBE_CATALOG"] = saved
            return code, out.getvalue(), err.getvalue()
        return call

    def op(self, argv, env_catalog, fault):
        label = " ".join(argv) + (" [LIE_SBE_CATALOG]" if env_catalog else "")
        return Op("cli", label, self._call(argv, env_catalog), _cli_check(argv, env_catalog), fault)

    def round(self, r):
        order = list(self.commands)
        _rng(self.seed, "cli", r).shuffle(order)
        return [self.op(*c) for c in order]

    def warmup(self):
        return [self.op(["catalog", "list"], False, None)]

    def check_round(self, results):
        return None


def _completed(proc):
    return proc.returncode, proc.stdout, proc.stderr


def make(name, seed, src, workdir, in_process=False):
    if name == "cli":
        return Cli(seed, src, workdir, in_process)
    return {"cohomology": Cohomology, "algebra": Algebra, "pinch": Pinch}[name](seed)
