"""L1 time-stepping solver for d_t^alpha u + (-Laplace + 1) u = f(x) mu(t).

Each step solves (beta W + M) u^n = W rhs^n with beta = tau^-alpha/Gamma(2-alpha),
where M is the symmetric mass-weighted operator matrix and W the trapezoid mass.
The step matrix is the same at every step and both M and W are tensor products
of their 1D factors, so the scheme diagonalises in the W-orthonormal eigenbasis
P of W^-1 M (fast diagonalisation; Lynch, Rice & Thomas, Numer. Math. 6, 1964),
whose 1D factor is the closed-form DCT-I basis :attr:`SpaceGrid.axis_modes`.  In
that basis every mode j follows the scalar L1 recursion :func:`_step_l1`, so
u^n = P (R[n] * P^T W f), where the response table R[n, j] is the recursion
run with a unit source, and the homogeneous solve runs it from a unit
initial value.  A mode enters the recursion only through its eigenvalue, so
for the response table it runs once per distinct eigenvalue (845 of the
1681 modes of the 41^2 grid, since lambda_ik = lambda_ki and some sums
kappa_i + kappa_k coincide) and is gathered to every mode.

The time-weighted table X = W_t^1/2 R has low numerical rank r (8 of 41 rows
on preset 5.3a), and every solve goes through its factor X = a sb,
:attr:`ProblemSpec.time_factor`: one QR and one small SVD of an O(n_t^2 D)
table over the D distinct eigenvalues, built on first use and held read-only
(``experiments`` keeps one spec per problem).  The spec states the mask-free
half of the observation map A: f -> u(f)|_omega once:
:meth:`ProblemSpec.to_modal` (f_hat = P^T W f), :meth:`ProblemSpec.to_nodal`
(P), :meth:`ProblemSpec.observe` (v with W_t^1/2 u(f) = a v) and its exact
transpose :meth:`ProblemSpec.transpose`.  A solve costs r + 1 batched n x n
transforms along each axis (:func:`_along_axes`, n nodes per axis) and one
product with the n_t x r matrix a, and :func:`solve_adjoint` is the exact
transpose of :func:`solve_forward`.  :class:`NormalOperator` is one
observation's misfit, derived in its docstring: Phi and A^T (A f - u_obs)
through the mask's modal Gram matrix G = P^T W_omega P and only the leading
q rows of sb above float64 rounding (4 of 8 on 5.3a).

The solves and the thresholding step run their products in :func:`_blocks` of
at most 2^18 multiply-adds and their sums as :func:`dot_plan`'s BLAS dots of at
most 10,000 terms, sizes OpenBLAS runs on one thread, so their bits do not depend
on the thread count.  Both give plans, (op, a, b, out) steps on fixed arrays
(:func:`run_plan`), which :class:`NormalOperator` builds once per observation.

The sparse LU of beta W + M (:attr:`ProblemSpec.step_solver`, factored by the
module-level ``splu``) is reference code only: no solve here uses it, and the
tests step nodal values with it to check the modal solves.  It alone
assembles the finite-difference stencil of M and imports scipy, when first
accessed, so importing this module and running the modal solves load no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .discretization import (
    Field,
    ObservationMask,
    SpaceGrid,
    SpaceTimeField,
    TimeGrid,
)
from .fraccalc import FractionalOrder, l1_scale, l1_weights

__all__ = [
    "ProblemSpec",
    "NormalOperator",
    "solve_forward",
    "solve_homogeneous",
    "solve_adjoint",
]

# singular values of W_t^1/2 R at or below this fraction of the largest are
# dropped from the time factor; they are below the rounding of the table
_RANK_RTOL = 1e-15
# e . e / Phi above which NormalOperator.phi re-anchors: its misfit's rounding stays near 64 eps Phi
_ANCHOR_SLACK = 64.0


@dataclass(eq=False)
class ProblemSpec:
    """Fractional order, time grid, space grid (with the operator's modes) and sampled mu;
    two equal specs built by hand build the time factor twice (``experiments`` keeps one per problem)."""

    alpha: FractionalOrder
    tgrid: TimeGrid
    grid: SpaceGrid
    mu: NDArray[np.float64]

    def __post_init__(self) -> None:
        self.mu = np.asarray(self.mu, dtype=float)
        if self.mu.shape != (self.tgrid.n_steps + 1,):
            raise ValueError("mu must be sampled on the time grid nodes")
        if not np.all(np.isfinite(self.mu)):
            raise ValueError("mu samples must be finite")

    @cached_property
    def step_solver(self):
        """LU factorization of beta W + M, the nodal step the tests check the modal solves with.

        M = K + W; K is the mass-weighted Neumann stencil k1 = (1/h)[-1, 2, -1],
        halved at the ends, in 1D and kron(k1, W1) + kron(W1, k1) in 2D.
        """
        from scipy import sparse

        n, h = self.grid.n_per_axis, self.grid.h
        main = np.full(n, 2.0 / h)
        main[0] = main[-1] = 1.0 / h
        off = np.full(n - 1, -1.0 / h)
        stiffness = sparse.diags([off, main, off], [-1, 0, 1], format="csr")
        if self.grid.dim == 2:
            w1 = sparse.diags(self.grid.axis_weights)
            stiffness = sparse.kron(stiffness, w1) + sparse.kron(w1, stiffness)
        mass = sparse.diags(self.grid.quad_weights)
        beta = l1_scale(self.alpha, self.tgrid.tau)
        system = (beta * mass + (stiffness + mass)).tocsc()
        lu = splu(system)
        # c0 = 1 makes the system matrix positive definite; a vanishing pivot
        # would mean the assembly is broken, so fail loudly.
        if not np.all(np.isfinite(lu.U.diagonal())) or np.any(lu.U.diagonal() == 0.0):
            raise ArithmeticError("singular implicit system; operator assembly is broken")
        return lu

    @cached_property
    def time_factor(self) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """(a, sb) with W_t^1/2 R = a @ sb to rounding, W_t the trapezoid weights.

        R[n, j] is the L1 scheme's value of mode j at time node n for a unit
        source (:func:`_step_l1`); R[0] = 0 is the initial value u^0 = 0.
        ``a`` has shape (n_steps + 1, r): row 0 is exactly zero and rows
        n >= 1 hold the r leading left singular vectors of those rows of
        X = W_t^1/2 R (singular value above 1e-15 of the largest).
        ``sb = a^T X`` has shape (r, n_nodes).  Both are computed from the
        distinct eigenvalues only, on first use, and are read-only.
        """
        lam, inverse, counts = np.unique(self.grid.eigenvalues, return_inverse=True, return_counts=True)
        w_t = self.tgrid.quad_weights
        x = np.sqrt(w_t[1:, None]) * _step_l1(self.alpha, self.tgrid, lam, self.mu, 0.0)[1:]
        # X = x[:, inverse] has Gram matrix X X^T = (x sqrt(counts)) (x sqrt(counts))^T,
        # and (x sqrt(counts))^T = Q T, so X shares its left singular vectors with T^T
        tri = np.linalg.qr((np.sqrt(counts) * x).T, mode="r")
        u, s, _ = np.linalg.svd(tri.T, full_matrices=False)
        a = u[:, s > _RANK_RTOL * s[0]]
        # unlike [:, inverse], take returns sb C-contiguous, which the transforms run faster on
        factor = np.vstack([np.zeros((1, a.shape[1])), a]), np.take(a.T @ x, inverse, axis=1)
        for part in factor:
            part.flags.writeable = False  # every user of the spec shares it
        return factor

    @cached_property
    def normal_rank(self) -> int:
        """q: the leading rows of sb through the last with max|sb_l|^2 > eps max|sb_0|^2.

        Every row past them is below that bound, so it drops out of A^T A
        (:class:`NormalOperator`); q = 0 when sb has no rows (mu = 0 makes r = 0).
        """
        peak = np.max(np.abs(self.time_factor[1]), axis=1, initial=0.0) ** 2
        above = np.flatnonzero(peak > np.finfo(float).eps * peak[:1])
        return int(np.max(above, initial=-1)) + 1

    def to_modal(self, f: Field) -> NDArray[np.float64]:
        """f_hat = P^T W f, the modal coefficients of f since P^T W P = I."""
        if f.grid != self.grid:
            raise ValueError("field grid does not match the problem grid")
        return _along_axes(self.grid, self.grid.axis_analysis, f.values)

    def to_nodal(self, coeffs: NDArray[np.float64]) -> NDArray[np.float64]:
        """P coeffs: nodal values of modal coefficients; leading axes are batched."""
        return _along_axes(self.grid, self.grid.axis_synthesis, coeffs)

    def observe(self, f_hat: NDArray[np.float64]) -> NDArray[np.float64]:
        """v with W_t^1/2 u(f) = a v for f_hat = P^T W f; shape (r, n_nodes)."""
        return self.to_nodal(self.time_factor[1] * f_hat)

    def transpose(self, w: NDArray[np.float64], first: int = 0) -> NDArray[np.float64]:
        """sum_l sb_l * P^T w_l over the rows l = first, first + 1, ... of ``w``;
        from ``first = 0`` over all r rows, the exact transpose of :meth:`observe`."""
        w_hat = _along_axes(self.grid, self.grid.axis_modes, w)
        return np.einsum("ij,ij->j", self.time_factor[1][first : first + len(w)], w_hat)


def splu(matrix):
    """SuperLU factor of the sparse ``matrix``; imports scipy only when called.

    :attr:`ProblemSpec.step_solver` calls it through this module's global
    name, so wrapping ``forward.splu`` sees every factorization.
    """
    from scipy.sparse import linalg

    return linalg.splu(matrix)


def _step_l1(
    alpha: FractionalOrder,
    tgrid: TimeGrid,
    lam: NDArray[np.float64],
    source: NDArray[np.float64],
    initial: float,
) -> NDArray[np.float64]:
    """Run the implicit L1 scheme on modes of W^-1 M with eigenvalues ``lam`` at once.

    The mode with eigenvalue lambda divides each step by beta + lambda.
    Every mode starts from ``initial`` and is driven by the temporal samples
    ``source``, shape (n_steps + 1,), of which only n >= 1 enter the scheme.
    Returns the history of shape (n_steps + 1, lam.size).
    """
    n_steps = tgrid.n_steps
    beta = l1_scale(alpha, tgrid.tau)
    b = l1_weights(alpha, n_steps)

    u = np.empty((n_steps + 1, lam.size))
    u[0] = initial
    diffs = np.empty((n_steps, lam.size))  # diffs[k] = u^{k+1} - u^k
    for n in range(1, n_steps + 1):
        if n > 1:
            # sum_{k=1}^{n-1} b_k (u^{n-k} - u^{n-k-1}) = sum_j b_{n-1-j} diffs[j]
            hist = b[1:n][::-1] @ diffs[: n - 1]
        else:
            hist = 0.0
        rhs = beta * (u[n - 1] - hist) + source[n]
        u[n] = rhs / (beta + lam)
        diffs[n - 1] = u[n] - u[n - 1]
    return u


# OpenBLAS runs a dgemm of m k n <= 2^18 products (65536 times its default
# GEMM_MULTITHREAD_THRESHOLD of 4) and a ddot of at most 10,000 terms on one thread.
# Past that it splits the work across threads, and on some shapes the split changes
# the rounding: a 101 x 101 product differs in the last bits between 1 and 2 threads.
_ONE_THREAD_MKN = 2**18
_ONE_THREAD_TERMS = 10_000


def run_plan(plan: list) -> None:
    """Run each step (op, a, b, out) of ``plan`` as ``op(a, b, out)``, in order."""
    for op, a, b, out in plan:
        op(a, b, out)  # out positionally: half the call overhead of out=


def _blocks(left: NDArray[np.float64], right: NDArray[np.float64], out: NDArray[np.float64]) -> list:
    """The plan of ``left @ right`` into ``out``: products of w = 2^18 // (m k) columns of ``right``,
    ``left`` m x k (a vector one row), w in [1, n]; a transform up to 64 nodes per axis is one product."""
    m, k = ((1,) + left.shape)[-2:]
    n = right.shape[-1]
    w = max(1, min(n, _ONE_THREAD_MKN // max(1, m * k)))
    if w == n:  # a whole operand, not a slice: 1 us less on a 1D step, 20 us on a run
        return [(np.matmul, left, right, out)]
    return [(np.matmul, left, right[..., j : j + w], out[..., j : j + w]) for j in range(0, n, w)]


def _matmul(left: NDArray[np.float64], right: NDArray[np.float64]) -> NDArray[np.float64]:
    """``left @ right`` by :func:`_blocks`: every product of the solves, the transforms and ``project``
    (one operand batched at most; np.broadcast_shapes costs as much as a 1D transform)."""
    out = np.empty((left.shape[:-2] or right.shape[:-2]) + left.shape[-2:-1] + right.shape[-1:])
    run_plan(_blocks(left, right, out))
    return out


def dot_plan(x: NDArray[np.float64], y: NDArray[np.float64]) -> tuple[list, NDArray[np.float64]]:
    """(plan, sums): the steps that write x_i . y into ``sums`` for each array x_i of the C-contiguous
    stack ``x`` (or ``x`` itself), reading x and y when they run.  Each sum is cut into the fewest
    equal rows of at most 10,000 terms, one BLAS dot each (a (7, 1681) stack: one per grid row; a
    101^2 grid: one per grid line), and a dot with ones adds up each sum's rows."""
    n, k = y.size, len(x) if x.ndim > y.ndim else 1  # y may be empty: no time rows (mu = 0)
    cut = 1 if n <= _ONE_THREAD_TERMS else next(p for p in range(-(-n // _ONE_THREAD_TERMS), n + 1) if n % p == 0)
    rows = np.empty((k, cut))
    plan = [(np.matmul, x.reshape(k, cut, 1, n // cut), y.reshape(cut, n // cut, 1), rows.reshape(k, cut, 1, 1))]
    sums = rows.reshape(-1) if cut == 1 else np.empty(len(rows))
    return plan + [(np.matmul, rows.reshape(-1, 1, cut), np.ones((cut, 1)), sums.reshape(-1, 1, 1))] * (cut > 1), sums


def dots(x: NDArray[np.float64], y: NDArray[np.float64]) -> NDArray[np.float64]:
    """[x_i . y for x_i in x], by :func:`dot_plan`."""
    plan, sums = dot_plan(x, y)
    run_plan(plan)
    return sums


def _along_axes(grid: SpaceGrid, right: NDArray[np.float64], values: NDArray[np.float64]) -> NDArray[np.float64]:
    """Apply the n x n matrix ``right.T`` along every spatial axis of ``values[..., :]`` (node-major).

    ``right`` is one of the grid's C-contiguous right factors (:attr:`SpaceGrid.axis_synthesis`,
    :attr:`SpaceGrid.axis_analysis`, :attr:`SpaceGrid.axis_modes`), since numpy's batched
    matmul is slower on a transposed view; on the left, as on a 2D grid's first axis, it is as fast.
    """
    if grid.dim == 1:
        return _matmul(values, right)
    shape = values.shape[:-1] + (grid.n_per_axis,) * 2
    return _matmul(right.T, _matmul(values.reshape(shape), right)).reshape(values.shape)


def solve_forward(spec: ProblemSpec, f: Field) -> SpaceTimeField:
    """Solve d_t^alpha u + A u = f mu(t) with u(.,0) = 0, Neumann boundary.

    u^n = P (R[n] * P^T W f) with W_t^1/2 R = a sb (:attr:`ProblemSpec.time_factor`),
    so u = W_t^-1/2 a v with v = :meth:`ProblemSpec.observe` of f_hat = P^T W f:
    r + 1 batched transforms along each axis and one (n_steps + 1 x r)
    (r x n_nodes) product.  Row 0 of ``a`` is zero, so u^0 is +0.0 exactly.
    """
    f_hat = spec.to_modal(f)  # checks the grid before the time factor is built
    a = spec.time_factor[0] / np.sqrt(spec.tgrid.quad_weights[:, None])
    return SpaceTimeField(spec.grid, spec.tgrid, _matmul(a, spec.observe(f_hat)))


def solve_homogeneous(spec: ProblemSpec, a: Field) -> SpaceTimeField:
    """Solve d_t^alpha v + A v = 0 with v(.,0) = a, Neumann boundary.

    v^n = P (H[n] * P^T W a), where H is the L1 recursion from the initial
    value 1 without a source.
    """
    decay = _step_l1(spec.alpha, spec.tgrid, spec.grid.eigenvalues, np.zeros_like(spec.mu), 1.0)
    return SpaceTimeField(spec.grid, spec.tgrid, spec.to_nodal(decay * spec.to_modal(a)))


def solve_adjoint(
    spec: ProblemSpec, residual: SpaceTimeField, mask: ObservationMask
) -> Field:
    """A^T r = int_0^T mu z dt, for the adjoint state z driven by chi_omega * r.

    A: f -> u(f)|_omega is :func:`solve_forward` observed on omega; the transpose
    is taken in the mass-weighted L2(Omega) product and the trapezoid-in-time
    pairing of :func:`discretization.masked_inner_product`, and is derived in
    :class:`NormalOperator`: A^T r = P g_hat with g_hat the
    :meth:`ProblemSpec.transpose` of W_omega d, d = (W_t^1/2 a)^T r.  ``residual`` is
    sampled on the full space-time grid; values outside omega are ignored,
    and the t = 0 sample meets the zero row 0 of ``a`` and never enters.
    Costs one (r x n_steps + 1) (n_steps + 1 x n_nodes) product, r batched
    transforms along each axis and one of g_hat.
    """
    if residual.grid != spec.grid or residual.tgrid != spec.tgrid:
        raise ValueError("residual grids do not match the problem spec")
    if mask.grid != spec.grid:
        raise ValueError("mask grid does not match the problem grid")
    weighted_a = np.sqrt(spec.tgrid.quad_weights[:, None]) * spec.time_factor[0]
    d = _matmul(weighted_a.T, residual.values)
    return Field(spec.grid, spec.to_nodal(spec.transpose(mask.quad_weights * d)))


def _gram_plan(mask: ObservationMask, e: NDArray[np.float64], g: NDArray[np.float64]) -> list:
    """The plan (:func:`run_plan`) that writes G e_l into g_l for every row e_l of the C array ``e``,
    G = P^T W_omega P (:attr:`ObservationMask.gram`): per term, :func:`_blocks`' products by its
    last factor on the right and, in 2D, its first on the left; then the sums."""
    s, terms = mask.gram
    shape = e.shape[:-1] + (mask.grid.n_per_axis,) * mask.grid.dim
    x, out, mid = e.reshape(shape), g.reshape(shape), np.empty(shape)
    plan, outs = [], [out] + [np.empty(shape) for _ in terms[1:]]
    for (*firsts, last), out_k in zip(terms, outs):
        plan += _blocks(x, last, mid if firsts else out_k)
        plan += [step for first in firsts for step in _blocks(first.T, mid, out_k)]
    plan += [(np.add, out, out_k, out) for out_k in outs[1:]] + [(np.add, out, x, out)] * int(s)
    return plan if len(terms) else [(np.multiply, x, s, out)]


class NormalOperator:
    """Phi(f) = ||A f - u_obs||^2 + rho ||f||^2 and A^T (A f - u_obs) for one observation, in modal form.

    Sources are handled as f_hat = P^T W f (:meth:`ProblemSpec.to_modal`),
    in which ||f|| is the Euclidean norm, and with W_t^1/2 R = a sb
    (:attr:`ProblemSpec.time_factor`) the weighted history is
    W_t^1/2 u(f) = a v with v_l = P (sb_l * f_hat), l < r
    (:meth:`ProblemSpec.observe`).

    Transpose: for r on the space-time grid, the pairing of
    :func:`discretization.masked_inner_product` is
    sum_n w_n <u^n, r^n>_omega = sum_l <P (sb_l * f_hat), d_l>_omega with
    d = (W_t^1/2 a)^T r, and <P c, d_l>_omega = c . P^T (W_omega d_l), so it
    equals f_hat . g_hat with g_hat = sum_l sb_l * P^T (W_omega d_l), the
    :meth:`ProblemSpec.transpose` of W_omega d.  Since <f, P g_hat> = f_hat . g_hat
    in the mass-weighted product, A^T r = P g_hat (:func:`solve_adjoint`), and
    <A f, r> = <f, A^T r> holds to rounding.

    Misfit: since a has orthonormal columns, the space-time misfit against
    y = W_t^1/2 u_obs is sum_l ||v_l - c_l||^2_omega + ||y - a c||^2_omega
    with c = a^T y, and A^T (A f - u_obs) is the transpose of d = v - c.
    With d_l = P e_l on omega, e_l = sb_l * f_hat - c_hat_l, these are
    sum_l e_l . G e_l and sum_l sb_l * G e_l, G = P^T W_omega P the mask's
    modal Gram matrix (:attr:`ObservationMask.gram`), for any c_hat = P^T W c'
    with c' = c on the nodes of nonzero omega weight, which alone enter G.  Off
    them the anchor at f sets c' = P (sb * f_hat), which keeps e small there near f.

    Rank cut: row l enters A^T A f as sb_l * G (sb_l * f_hat), quadratic in
    sb_l, and the rows of sb decay geometrically.  Past the leading q rows
    (:attr:`ProblemSpec.normal_rank`) every row has max|sb_l|^2 <= eps max|sb_0|^2, eps the
    float64 machine epsilon, so its term is below the rounding of row 0's
    and is dropped.  What the tail rows l >= q add to the misfit and to
    A^T (A f - u_obs) is then independent of f, apart from the cross term
    linear in sb_l:
    sum_{l>=q} ||v_l - c_l||^2 = sum_{l>=q} ||c_l||^2 - 2 f_hat . t and
    sum_{l>=q} sb_l * P^T W_omega (v_l - c_l) = -t, with
    t = sum_{l>=q} sb_l * P^T (W_omega c_l) the transpose over the tail.  With
    e the leading q rows, g = G e and const = ||y - a c||^2_omega + sum_{l>=q} ||c_l||^2_omega,
    Phi = sum e * g - 2 f_hat . t + const + rho f_hat . f_hat and
    A^T (A f - u_obs) = sum_l sb_l * g_l - t, which match :func:`solve_forward`,
    :func:`solve_adjoint` and :func:`discretization.masked_inner_product` to rounding.

    Anchor: sum e * g carries rounding of order eps e . e, and e . e grows off
    omega as f leaves the anchor, so :meth:`phi` anchors at f on its first call
    and re-anchors at f when e . e > 64 Phi (anchored, e . e <= 2^dim Phi),
    never re-checking a fresh anchor.

    The constructor reads u_obs on omega's columns, the masked nodes (:attr:`ObservationMask.nodes`; c is
    zero off them), from a full-grid field or as an (n_t + 1) x |nodes| array (``experiments`` draws a
    run's noise so), and builds c, t, const and the arrays and plans of :meth:`phi`: one product with G
    per row (:func:`_gram_plan`, 2 R n^3 multiply-adds on a 2D grid, n^2 in 1D) and :func:`dot_plan`'s
    sums.  A masked node of zero weight drops out of const, t and G through its weight.  :meth:`phi`
    evaluates at ``f_hat``, into which ``inversion.iterate`` writes each iterate.  A NaN or inf of u_obs
    on a masked node reaches const through its weight, positive or zero (0 * inf is NaN), and is rejected.
    """

    def __init__(self, spec: ProblemSpec, mask: ObservationMask, u_obs: SpaceTimeField | NDArray, f: Field) -> None:
        if mask.grid != spec.grid:
            raise ValueError("mask grid does not match the problem grid")
        cols, weights = mask.nodes, mask.quad_weights
        if isinstance(u_obs, SpaceTimeField):
            if u_obs.grid != spec.grid or u_obs.tgrid != spec.tgrid:
                raise ValueError("observation grids do not match the problem spec")
            u_obs = np.take(u_obs.values, cols, axis=1)  # C-contiguous, unlike [:, cols]
        u_obs, shape = np.ascontiguousarray(u_obs, dtype=float), (spec.tgrid.n_steps + 1, cols.size)
        if u_obs.shape != shape:  # C order above: either input gives the same bits
            raise ValueError(f"u_obs on omega's columns must have shape {shape}, got {u_obs.shape}")
        self.spec, self._omega = spec, weights != 0.0
        (a, sb), w_t = spec.time_factor, spec.tgrid.quad_weights
        sqrt_w_t = np.sqrt(w_t)[:, None]
        c = np.zeros((a.shape[1], spec.grid.n_nodes))
        c[:, cols] = c_cols = _matmul((sqrt_w_t * a).T, u_obs)
        # ||y - a c||^2_omega = sum_n w_n ||u_n - (W_t^-1/2 a c)_n||^2_omega on omega's columns
        res = _matmul(a / sqrt_w_t, c_cols)
        np.subtract(u_obs, res, out=res)
        res *= res
        q = spec.normal_rank
        self._c, tail = c[:q], c[q:]
        tail_misfit = float(np.einsum("j,j->", np.sum(tail * tail, axis=0), weights))
        self._const = float(np.einsum("j,j->", w_t @ res, weights[cols])) + tail_misfit
        del u_obs, res  # this call's copies are freed before the step's arrays and plans are built
        if not math.isfinite(self._const):
            raise ValueError(f"u_obs must be finite on omega; its misfit constant is {self._const}")
        self._sb, self._c_hat = sb[:q], None
        ft, self._ge = np.empty((2, spec.grid.n_nodes)), np.empty((2,) + self._c.shape)
        ft[0], ft[1] = spec.to_modal(f), spec.transpose(weights * tail, q)
        self.f_hat, self._t = ft
        self._data_term = np.empty_like(self._t)
        (ge_plan, self._ge_sums), (ft_plan, self._ft_sums) = dot_plan(self._ge, self._ge[1]), dot_plan(ft, ft[0])
        self._plan = _gram_plan(mask, self._ge[1], self._ge[0]) + ge_plan + ft_plan

    def phi(self, rho: float) -> tuple[NDArray[np.float64], float, float]:
        """(A^T (A f - u_obs) in modal form, f_hat . f_hat, Phi(f)) at ``f_hat``; the next call reuses the array."""
        fresh = self._c_hat is None
        if fresh:  # the anchor at f: P^T W c', c' = c_q where omega's weight is nonzero, P (sb_q * f_hat) elsewhere
            nodal = self.spec.to_nodal(self._sb * self.f_hat)
            np.copyto(nodal, self._c, where=self._omega)
            self._c_hat = _along_axes(self.spec.grid, self.spec.grid.axis_analysis, nodal)
        np.multiply(self._sb, self.f_hat, self._ge[1])
        self._ge[1] -= self._c_hat
        run_plan(self._plan)
        (eg, ee), (ff, f_t) = self._ge_sums.tolist(), self._ft_sums.tolist()
        phi = eg - 2.0 * f_t + self._const + rho * ff
        if not fresh and ee > _ANCHOR_SLACK * phi:
            self._c_hat = None
            return self.phi(rho)
        np.einsum("ij,ij->j", self._sb, self._ge[0], out=self._data_term)
        self._data_term -= self._t
        return self._data_term, ff, phi
