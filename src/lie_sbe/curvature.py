"""Sectional curvature sampling for rank-one extensions of abelian algebras.

The metric Lie algebra is R^n x| R A with [A, x] = alpha x, the canonical
basis declared orthonormal.  For the curvature formulas to pinch well the
derivation is first rewritten, inside each conjugacy class, as the
epsilon-frame M_eps: Jordan-type blocks whose off-diagonal entries carry a
factor eps.  Shrinking eps squeezes the sampled sectional curvature range
toward a ratio of 1 whenever the real parts of the spectrum agree.

Everything here is floating point; the exact layer only certifies the
layout (real parts all equal after normalization) when the input matrix is
rational.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import polynomials as poly
from .errors import InputError, PreconditionError
from .laws import LieLaw
from .linalg import char_poly, identity, mat_mul, mat_sub, mat_add, mat_scale, matrix, rank


# ------------------------------------------------------------------ layout --

@dataclass(frozen=True)
class FrameLayout:
    size: int
    real_blocks: tuple        # Jordan sizes at eigenvalue 1, descending
    complex_blocks: tuple     # (tau, complex size d) pairs, tau > 0
    exact: bool               # layout certified by exact arithmetic


def _sizes_from_kernel_dims(dims, step=1):
    """Block sizes from the kernel filtration dims d_1 <= d_2 <= ...

    step 1 for real blocks; step 2 when kernels grow two at a time (conjugate
    pairs), in which case sizes count one block per pair.
    """
    ge = []
    prev = 0
    for d in dims:
        ge.append((d - prev) // step)
        prev = d
    sizes = []
    for k in range(len(ge)):
        nxt = ge[k + 1] if k + 1 < len(ge) else 0
        sizes.extend([k + 1] * (ge[k] - nxt))
    return tuple(sorted(sizes, reverse=True))


def _kernel_dims(power_of, total):
    """dim ker B, dim ker B^2, ... until the dimension stabilizes at total."""
    dims = []
    b = power_of
    acc = b
    n = len(power_of)
    while True:
        d = n - rank(acc)
        dims.append(d)
        if d >= total or (len(dims) > 1 and dims[-1] == dims[-2]) or len(dims) > n:
            break
        acc = mat_mul(acc, b)
    while len(dims) > 1 and dims[-1] == dims[-2]:
        dims.pop()
    return dims


@lru_cache(maxsize=256)
def _layout_exact(an: tuple) -> FrameLayout:
    """Layout of a normalized rational alpha, given as a tuple of Fraction
    rows; it does not depend on eps, so each alpha is laid out once."""
    n = len(an)
    q = poly.compose_shift(char_poly(an), 1)  # roots shifted by the real part 1
    if not poly.all_roots_imaginary(q):
        raise PreconditionError("uneven real parts in the spectrum")
    a = 0
    while a < len(q) and q[a] == 0:
        a += 1
    r = list(q[a::2])                         # q(x) = x^a r(x^2)
    real_blocks = ()
    if a:
        m1 = mat_sub(an, identity(n))
        real_blocks = _sizes_from_kernel_dims(_kernel_dims(m1, a))
    complex_blocks = []
    zroots = poly.rational_roots(r)
    if sum(m for _, m in zroots) == poly.degree(r):
        for z, mult in zroots:
            t2 = -z
            b = mat_add(mat_sub(mat_mul(an, an), mat_scale(2, an)),
                        mat_scale(1 + t2, identity(n)))
            dims = _kernel_dims(b, 2 * mult)
            tau = math.sqrt(float(t2))
            for d in _sizes_from_kernel_dims(dims, step=2):
                complex_blocks.append((tau, d))
        return FrameLayout(n, real_blocks, tuple(complex_blocks), True)
    # real parts are certified, but an irrational tau^2 forces numeric sizes
    af = np.array([[float(x) for x in row] for row in an])
    return _layout_numeric(af, n, real_blocks, certified=True)


def _numeric_kernel_dims(b, total):
    dims = []
    acc = b.copy()
    n = b.shape[0]
    while True:
        d = n - np.linalg.matrix_rank(acc, tol=1e-7)
        dims.append(int(d))
        if d >= total or (len(dims) > 1 and dims[-1] == dims[-2]) or len(dims) > n:
            break
        acc = acc @ b
    return dims


def _layout_numeric(af, n, real_blocks=None, certified=False) -> FrameLayout:
    eigs = np.linalg.eigvals(af)
    if any(abs(z.real - 1.0) > 1e-9 for z in eigs):
        raise PreconditionError("uneven real parts in the spectrum")
    if real_blocks is None:
        a = sum(1 for z in eigs if abs(z.imag) <= 1e-9)
        real_blocks = ()
        if a:
            m1 = af - np.eye(n)
            real_blocks = _sizes_from_kernel_dims(_numeric_kernel_dims(m1, a))
    taus = sorted(z.imag for z in eigs if z.imag > 1e-9)
    clusters = []
    for t in taus:
        if clusters and abs(clusters[-1][-1] - t) <= 1e-7:
            clusters[-1].append(t)
        else:
            clusters.append([t])
    complex_blocks = []
    for group in clusters:
        tau = float(sum(group) / len(group))  # a Python float, not a numpy scalar
        b = af @ af - 2.0 * af + (1.0 + tau * tau) * np.eye(n)
        dims = _numeric_kernel_dims(b, 2 * len(group))
        for d in _sizes_from_kernel_dims(dims, step=2):
            complex_blocks.append((tau, d))
    return FrameLayout(n, tuple(real_blocks), tuple(complex_blocks), certified)


# ------------------------------------------------------------------- frame --

@dataclass(frozen=True)
class Frame:
    n: int                 # dimension of the abelian part
    eps: float
    m: np.ndarray          # the eps-frame for the derivation
    d: np.ndarray          # symmetric part
    s: np.ndarray          # skew part
    nmat: np.ndarray       # d @ d + d @ s - s @ d
    layout: FrameLayout
    trace: float


def alpha_from_law(law: LieLaw):
    """Split off the last basis vector as the acting element; the rest must
    commute.  Returns the action matrix on the abelian part."""
    n = law.dim
    if n < 2:
        raise PreconditionError("need dimension at least 2 to split off an action")
    last = n - 1
    alpha = [[Fraction(0)] * (n - 1) for _ in range(n - 1)]
    for (i, j), t in law.table.items():
        if j != last:
            raise PreconditionError(
                "nonabelian nilpotent part: bracket [%d,%d] is nonzero" % (i + 1, j + 1)
            )
        for k, c in t.items():
            if k == last:
                raise PreconditionError(
                    "the last coordinate does not act on a complement: "
                    "[%d,%d] has a component along itself" % (i + 1, j + 1)
                )
            alpha[k][i] = -c
    return alpha


def frame_matrices(alpha, eps: float) -> Frame:
    """The eps-frame of alpha scaled so that every real part is 1.

    If the real parts of the spectrum are all equal, each one is the mean
    m = tr(alpha)/n; the layout of alpha/m then checks that they are.  m is
    exact for rational input and a float for float input.
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise PreconditionError("eps must be positive and finite, got %r" % (eps,))
    try:
        a = matrix(alpha)
    except TypeError:
        a = np.array(alpha, dtype=float)
    n = len(a)
    if n == 0 or any(len(row) != n for row in a):
        raise InputError("alpha must be a nonempty square matrix")
    if isinstance(a, np.ndarray) and not np.isfinite(a).all():
        raise InputError("alpha must have finite entries")
    mean = sum(a[i][i] for i in range(n)) / n
    if mean <= 0:
        raise PreconditionError("the mean real part of the spectrum is %s, need it positive" % mean)
    if isinstance(a, np.ndarray):
        layout = _layout_numeric(a / mean, n)
    else:
        layout = _layout_exact(tuple(tuple(x / mean for x in row) for row in a))
    blocks = []
    for tau, d in sorted((b for b in layout.complex_blocks if b[1] >= 2),
                         key=lambda b: (-b[1], b[0])):
        blk = np.zeros((2 * d, 2 * d))
        for i in range(d):
            blk[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[1.0, tau], [-tau, 1.0]]
            if i + 1 < d:
                blk[2 * i, 2 * i + 2] = eps
                blk[2 * i + 1, 2 * i + 3] = eps
        blocks.append(blk)
    for d in sorted((d for d in layout.real_blocks if d >= 2), reverse=True):
        blk = np.eye(d)
        for i in range(d - 1):
            blk[i, i + 1] = eps
        blocks.append(blk)
    for tau, d in sorted((b for b in layout.complex_blocks if b[1] == 1),
                         key=lambda b: b[0]):
        blocks.append(np.array([[1.0, tau], [-tau, 1.0]]))
    for _ in (d for d in layout.real_blocks if d == 1):
        blocks.append(np.eye(1))
    m = np.zeros((n, n))
    off = 0
    for blk in blocks:
        k = blk.shape[0]
        m[off:off + k, off:off + k] = blk
        off += k
    if off != n:
        raise PreconditionError("layout does not fill the space")
    d_sym = (m + m.T) / 2.0
    s_skew = (m - m.T) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        nmat = d_sym @ d_sym + d_sym @ s_skew - s_skew @ d_sym
    if not np.isfinite(nmat).all():
        raise PreconditionError("the curvature frame overflows at eps %r" % (eps,))
    return Frame(n=n, eps=float(eps), m=m, d=d_sym, s=s_skew, nmat=nmat,
                 layout=layout, trace=float(np.trace(m)))


# --------------------------------------------------------------- curvature --

def _apply(m, x):
    """m @ x for a stack of vectors x, as a product and a sum over the last axis."""
    return np.add.reduce(m * x[..., None, :], axis=-1)


def _dot(a, b):
    return np.add.reduce(a * b, axis=-1, keepdims=True)


def curvature_tensor(frame: Frame, x, y, z):
    """R(x, y)z in the orthonormal frame; the last coordinate is the acting
    direction, the others span the abelian part.

    x, y and z may be stacks of vectors along leading axes, which broadcast
    against each other.  Every contraction is an elementwise product summed
    over the last axis, so each vector of a stack gets the same bits as a
    call on that vector alone.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    d, nmat = frame.d, frame.nmat
    xn, xt = x[..., :-1], x[..., -1:]
    yn, yt = y[..., :-1], y[..., -1:]
    zn, zt = z[..., :-1], z[..., -1:]
    dx, dy = _apply(d, xn), _apply(d, yn)
    w = xt * _apply(nmat, yn) - yt * _apply(nmat, xn)
    head = -_dot(dy, zn) * dx + _dot(dx, zn) * dy + zt * w
    return np.concatenate([head, -_dot(zn, w)], axis=-1)


def _sectionals(frame: Frame, u, v):
    """Sectional curvature of span(u[i], v[i]) for each row i of two
    (k, n + 1) stacks, from one curvature_tensor call.

    Each row gets the bits of a call on that row alone; the dot products
    and the square stay per row, since a numpy scalar squares through pow
    and an array through a product, which differ in the last bit.
    """
    r = curvature_tensor(frame, u, v, v)
    den = np.array([(a @ a) * (b @ b) - (a @ b) ** 2 for a, b in zip(u, v)])
    if (den <= 1e-14).any():
        raise PreconditionError("the two vectors do not span a plane")
    return np.array([x @ a for x, a in zip(r, u)]) / den


def sectional(frame: Frame, u, v) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return _sectionals(frame, u[None], v[None])[0]


def bianchi_residual(frame: Frame, x, y, z) -> float:
    """Largest |R(x,y)z + R(y,z)x + R(z,x)y| entry, over stacks of triples too."""
    total = (curvature_tensor(frame, x, y, z)
             + curvature_tensor(frame, y, z, x)
             + curvature_tensor(frame, z, x, y))
    return float(np.max(np.abs(total)))


# ---------------------------------------------------------------- sampling --

# The planes are drawn in one (samples, 2, n + 1) block; a larger count would
# ask numpy for gigabytes before the first plane is scored.
MAX_SAMPLES = 10 ** 6


@dataclass(frozen=True)
class CurvatureReport:
    eps: float
    samples: int
    seed: int
    sec_min: float
    sec_max: float
    ratio: float           # sec_min / sec_max, at least 1 for negative ranges
    bianchi_max: float
    min_pair: tuple
    max_pair: tuple
    frame: Frame


def _rowdot(a, b):
    return np.einsum("ij,ij->i", a, b)


def _draw_planes(rng, samples, n):
    """samples x 2 x n standard normal draws, row i spanning plane i.

    One draw consumes the stream as samples sequential u-then-v pairs would.
    A row with |u| or |v - (v.u) u / |u|^2| below 1e-8 spans no plane and is
    redrawn, so every row returned spans one.
    """
    g = rng.standard_normal((samples, 2, n))
    u, v, bad = g[:, 0], g[:, 1], None
    while True:
        nu = np.linalg.norm(u, axis=1)
        uhat = u / np.maximum(nu, 1e-8)[:, None]
        vperp = v - _rowdot(v, uhat)[:, None] * uhat
        spans_none = (nu < 1e-8) | (np.linalg.norm(vperp, axis=1) < 1e-8)
        bad = np.flatnonzero(spans_none) if bad is None else bad[spans_none]
        if not len(bad):
            return g
        g[bad] = rng.standard_normal((len(bad), 2, n))
        u, v = g[bad, 0], g[bad, 1]


def _orthonormal(u, v):
    """Gram-Schmidt on one drawn pair."""
    u = u / np.linalg.norm(u)
    v = v - (v @ u) * u
    return u, v / np.linalg.norm(v)


def _plane_curvatures(frame: Frame, g):
    """Sectional curvature of span(g[i, 0], g[i, 1]) for every row i.

    <R(u,v)v,u> expanded from curvature_tensor, with un, ut the abelian part
    and acting coordinate of u:
      (un.D vn)^2 - (un.D un)(vn.D vn) - vt^2 un.N un - ut^2 vn.N vn
        + ut vt (un.N vn + vn.N un),
    divided by the Gram determinant |u|^2 |v|^2 - (u.v)^2.  Another basis
    of the same plane scales both by the square of its change-of-basis
    determinant, so the pair need not be orthonormal.
    """
    u, v = g[:, 0], g[:, 1]
    un, ut = u[:, :-1], u[:, -1]
    vn, vt = v[:, :-1], v[:, -1]
    d, nmat = frame.d, frame.nmat
    du, dv = un @ d, vn @ d
    nu = _rowdot(un @ nmat.T, un)
    nv = _rowdot(vn @ nmat.T, vn)
    nuv = _rowdot(un @ (nmat + nmat.T), vn)
    num = (_rowdot(du, vn) ** 2 - _rowdot(du, un) * _rowdot(dv, vn)
           - vt * vt * nu - ut * ut * nv + ut * vt * nuv)
    return num / (_rowdot(u, u) * _rowdot(v, v) - _rowdot(u, v) ** 2)


def _critical_offsets(a, b):
    """Real t with K'(t) = 0 for K(t) = (a0 + a1 t + a2 t^2) / (b0 + b1 t + b2 t^2).

    a'b - ab' has no t^3 term, so the critical points solve the quadratic
    (a1 b0 - a0 b1) + 2 (a2 b0 - a0 b2) t + (a2 b1 - a1 b2) t^2 = 0.
    """
    (a0, a1, a2), (b0, b1, b2) = a, b
    c0, c1, c2 = a1 * b0 - a0 * b1, 2.0 * (a2 * b0 - a0 * b2), a2 * b1 - a1 * b2
    if c2 == 0.0:
        return [-c0 / c1] if c1 != 0.0 else []
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    h = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    return [h / c2, c0 / h] if h != 0.0 else [0.0]


def _refine(frame, us, vs, minimize, sweeps=3, radius=0.25):
    """Coordinate sweeps on the pairs (us[j], vs[j]) of two (k, n + 1)
    stacks, in place, toward the smallest (minimize[j]) or largest sectional
    curvature; returns the k curvatures reached.

    Sweep k moves each coordinate of u, then of v, by some t in [-r, r] with
    r = radius / 4^k.  With the other vector q fixed, <R(p,q)q,p> = p.J p
    for the Jacobi operator J[i, j] = <R(e_i,q)q,e_j>, and the Gram
    determinant is quadratic in p too, so moving p_i by t gives a ratio of
    two quadratics in t: the line search tries t = -r, r and the critical
    points inside (-r, r).  The best t is taken only if the sectional
    curvature at the moved pair strictly improves on the best value so far.
    The pairs move independently, but one curvature_tensor call builds all
    their Jacobi operators and one _sectionals call checks all their steps.
    """
    n1 = frame.n + 1
    eye = np.eye(n1)
    sign = [1.0 if m else -1.0 for m in minimize]
    best = [s * x for s, x in zip(sign, _sectionals(frame, us, vs))]
    for sweep in range(sweeps):
        r = radius / (4.0 ** sweep)
        for ps, qs in ((us, vs), (vs, us)):
            jac = curvature_tensor(frame, eye, qs[:, None], qs[:, None])
            jac = (jac + jac.swapaxes(1, 2)) / 2.0
            qqs = [float(q @ q) for q in qs]
            for i in range(n1):
                moved = ps.copy()
                stepped = []
                for j, (p, q, jc, qq) in enumerate(zip(ps, qs, jac, qqs)):
                    jp = jc @ p
                    pq = float(p @ q)
                    a = (float(p @ jp), 2.0 * float(jp[i]), float(jc[i, i]))
                    b = (float(p @ p) * qq - pq * pq,
                         2.0 * (float(p[i]) * qq - pq * float(q[i])),
                         qq - float(q[i]) ** 2)
                    t_best, k_best = 0.0, math.inf
                    for t in [-r, r] + [t for t in _critical_offsets(a, b) if -r < t < r]:
                        den = b[0] + t * (b[1] + t * b[2])
                        if den <= 1e-12:
                            continue
                        k = sign[j] * (a[0] + t * (a[1] + t * a[2])) / den
                        if k < k_best:
                            t_best, k_best = t, k
                    if k_best < math.inf:
                        moved[j, i] += t_best
                        stepped.append(j)
                if not stepped:
                    continue
                val = (_sectionals(frame, moved, qs) if ps is us
                       else _sectionals(frame, qs, moved))
                for j in stepped:
                    if sign[j] * val[j] < best[j]:
                        best[j] = sign[j] * val[j]
                        ps[j, i] = moved[j, i]
    return [s * b for s, b in zip(sign, best)]


def pinching_estimate(alpha, eps, samples=2000, seed=0, refine_sweeps=3) -> CurvatureReport:
    if samples < 1:
        raise PreconditionError("samples must be at least 1, got %d" % samples)
    if samples > MAX_SAMPLES:
        raise PreconditionError("samples must be at most %d, got %d" % (MAX_SAMPLES, samples))
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise PreconditionError("seed must be a non-negative integer, got %r" % (seed,))
    frame = frame_matrices(alpha, eps)
    rng = np.random.default_rng(seed)
    n1 = frame.n + 1
    g = _draw_planes(rng, samples, n1)
    # an overflow shows as a non-finite extreme or residual, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        k = _plane_curvatures(frame, g)
        ends = (int(np.argmin(k)), int(np.argmax(k)))
        us, vs = (np.array(x) for x in zip(*(_orthonormal(*g[i]) for i in ends)))
        sec_min, sec_max = _refine(frame, us, vs, (True, False), refine_sweeps)
        # one block consumes the stream as 200 sequential x, y, z draws would
        xyz = rng.standard_normal((200, 3, n1))
        bianchi = bianchi_residual(frame, xyz[:, 0], xyz[:, 1], xyz[:, 2])
    if not all(map(math.isfinite, (sec_min, sec_max, bianchi))):
        raise PreconditionError("the sampled curvature overflows at eps %r" % (eps,))
    ratio = sec_min / sec_max if sec_max < 0 else math.inf
    return CurvatureReport(
        eps=frame.eps,
        samples=samples,
        seed=seed,
        sec_min=sec_min,
        sec_max=sec_max,
        ratio=ratio,
        bianchi_max=bianchi,
        min_pair=(tuple(map(float, us[0])), tuple(map(float, vs[0]))),
        max_pair=(tuple(map(float, us[1])), tuple(map(float, vs[1]))),
        frame=frame,
    )


@dataclass(frozen=True)
class PansuReport:
    b_est: float
    trace: float
    bound: float
    holds: bool
    curvature: CurvatureReport


def pansu_consistency(alpha, eps, samples=2000, seed=0) -> PansuReport:
    """Sampled check that the conformal dimension bound is not violated:
    the trace of the normalized derivation should stay below
    topdim * sqrt(pinching ratio), up to sampling slack."""
    report = pinching_estimate(alpha, eps, samples=samples, seed=seed)
    frame = report.frame
    b_est = math.sqrt(report.ratio)
    bound = frame.n * b_est * (1.0 + 1e-6) + 1e-9
    return PansuReport(
        b_est=b_est,
        trace=frame.trace,
        bound=bound,
        holds=frame.trace <= bound,
        curvature=report,
    )
