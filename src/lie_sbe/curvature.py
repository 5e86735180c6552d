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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import polynomials as poly
from .errors import PreconditionError
from .heintze import normalize_derivation
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


def _layout_exact(an) -> FrameLayout:
    n = len(an)
    cp = char_poly(an)
    q = poly.compose_shift(cp, 1)             # roots shifted by the real part 1
    a = 0
    while a < len(q) and q[a] == 0:
        a += 1
    s = q[a:]
    if any(s[k] != 0 for k in range(1, len(s), 2)):
        raise PreconditionError("uneven real parts in the spectrum")
    r = list(s[0::2])
    if poly.degree(r) > 0:
        if not poly.all_roots_real(r):
            raise PreconditionError("uneven real parts in the spectrum")
        if poly.count_real_roots(r, None, Fraction(0)) != poly.count_real_roots(r):
            raise PreconditionError("uneven real parts in the spectrum")
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
        tau = sum(group) / len(group)
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
    if not eps > 0:
        raise PreconditionError("eps must be positive, got %r" % (eps,))
    try:
        an_exact = matrix(alpha)
        nd = normalize_derivation(an_exact)
        exact_path = nd.exact
    except TypeError:
        af = np.array(alpha, dtype=float)
        eigs = np.linalg.eigvals(af)
        m0 = min(z.real for z in eigs)
        if m0 <= 1e-9:
            raise PreconditionError("spectrum is not in the open right half-plane")
        nd = None
        an_norm = af / m0
        exact_path = False
    if nd is not None:
        if exact_path:
            layout = _layout_exact([list(r) for r in nd.matrix])
        else:
            an_norm = np.array([[float(x) for x in row] for row in nd.matrix])
            layout = _layout_numeric(an_norm, len(nd.matrix))
    else:
        layout = _layout_numeric(an_norm, an_norm.shape[0])
    n = layout.size
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
        raise PreconditionError("layout does not fill the space")  # pragma: no cover
    d_sym = (m + m.T) / 2.0
    s_skew = (m - m.T) / 2.0
    nmat = d_sym @ d_sym + d_sym @ s_skew - s_skew @ d_sym
    return Frame(n=n, eps=float(eps), m=m, d=d_sym, s=s_skew, nmat=nmat,
                 layout=layout, trace=float(np.trace(m)))


# --------------------------------------------------------------- curvature --

def curvature_tensor(frame: Frame, x, y, z):
    """R(x, y)z in the orthonormal frame; the last coordinate is the acting
    direction, the others span the abelian part."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    d, nmat = frame.d, frame.nmat
    xn, xt = x[:-1], x[-1]
    yn, yt = y[:-1], y[-1]
    zn, zt = z[:-1], z[-1]
    w = xt * (nmat @ yn) - yt * (nmat @ xn)
    out = np.empty(frame.n + 1)
    out[:-1] = -(d @ yn @ zn) * (d @ xn) + (d @ xn @ zn) * (d @ yn) + zt * w
    out[-1] = -(zn @ w)
    return out


def sectional(frame: Frame, u, v) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    den = (u @ u) * (v @ v) - (u @ v) ** 2
    if den <= 1e-14:
        raise PreconditionError("the two vectors do not span a plane")
    return float(curvature_tensor(frame, u, v, v) @ u) / den


def bianchi_residual(frame: Frame, x, y, z) -> float:
    total = (curvature_tensor(frame, x, y, z)
             + curvature_tensor(frame, y, z, x)
             + curvature_tensor(frame, z, x, y))
    return float(np.max(np.abs(total)))


# ---------------------------------------------------------------- sampling --

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


def _orthonormal_pair(rng, n):
    while True:
        u = rng.standard_normal(n)
        nu = np.linalg.norm(u)
        if nu < 1e-8:
            continue
        u = u / nu
        v = rng.standard_normal(n)
        v = v - (v @ u) * u
        nv = np.linalg.norm(v)
        if nv < 1e-8:
            continue
        return u, v / nv


def _golden(f, lo, hi, iters=24):
    """Argmin of f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _refine(frame, u, v, minimize, sweeps=3, radius=0.25):
    n1 = frame.n + 1
    sign = 1.0 if minimize else -1.0
    best = sign * sectional(frame, u, v)
    for sweep in range(sweeps):
        r = radius / (4.0 ** sweep)
        for idx in range(2 * n1):
            def value(t, idx=idx):
                uu = u.copy()
                vv = v.copy()
                if idx < n1:
                    uu[idx] += t
                else:
                    vv[idx - n1] += t
                den = (uu @ uu) * (vv @ vv) - (uu @ vv) ** 2
                if den <= 1e-12:
                    return math.inf
                return sign * float(
                    curvature_tensor(frame, uu, vv, vv) @ uu
                ) / den
            t = _golden(value, -r, r)
            val = value(t)
            if val < best:
                best = val
                if idx < n1:
                    u[idx] += t
                else:
                    v[idx - n1] += t
    return sign * best, u, v


def pinching_estimate(alpha, eps, samples=2000, seed=0, refine_sweeps=3) -> CurvatureReport:
    if samples < 1:
        raise PreconditionError("samples must be at least 1, got %d" % samples)
    frame = frame_matrices(alpha, eps)
    rng = np.random.default_rng(seed)
    n1 = frame.n + 1
    sec_min = math.inf
    sec_max = -math.inf
    pair_min = pair_max = None
    for _ in range(samples):
        u, v = _orthonormal_pair(rng, n1)
        s = sectional(frame, u, v)
        if s < sec_min:
            sec_min, pair_min = s, (u.copy(), v.copy())
        if s > sec_max:
            sec_max, pair_max = s, (u.copy(), v.copy())
    if refine_sweeps > 0:
        sec_min, mu, mv = _refine(frame, pair_min[0], pair_min[1], True, refine_sweeps)
        pair_min = (mu, mv)
        sec_max, xu, xv = _refine(frame, pair_max[0], pair_max[1], False, refine_sweeps)
        pair_max = (xu, xv)
    bianchi = 0.0
    for _ in range(200):
        x = rng.standard_normal(n1)
        y = rng.standard_normal(n1)
        z = rng.standard_normal(n1)
        bianchi = max(bianchi, bianchi_residual(frame, x, y, z))
    ratio = sec_min / sec_max if sec_max < 0 else math.inf
    return CurvatureReport(
        eps=frame.eps,
        samples=samples,
        seed=seed,
        sec_min=sec_min,
        sec_max=sec_max,
        ratio=ratio,
        bianchi_max=bianchi,
        min_pair=(tuple(map(float, pair_min[0])), tuple(map(float, pair_min[1]))),
        max_pair=(tuple(map(float, pair_max[0])), tuple(map(float, pair_max[1]))),
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
