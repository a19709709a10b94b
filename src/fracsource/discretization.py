"""Grids with the modal data of -Laplace + 1, fields, observation masks and seeded draws.

The spatial operator is the second-order finite-difference scheme on [0,1]^d
with a mirror-ghost Neumann closure, weighted by the trapezoid mass so that it
is self-adjoint with respect to :func:`inner_product`: the exact pairing the
adjoint based gradient relies on.  Its closed-form eigenbasis and eigenvalues,
all that the solves use, depend on the grid alone, so :class:`SpaceGrid` holds them.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "is_a",
    "TimeGrid",
    "SpaceGrid",
    "Field",
    "SpaceTimeField",
    "ObservationMask",
    "inner_product",
    "norm_l2",
    "masked_inner_product",
    "splitmix64",
    "splitmix64_uniform",
]

Box = Sequence[Sequence[float]]  # one (lo, hi) pair per axis
_BOX_TOL = 1e-12
_MASK64 = (1 << 64) - 1


def splitmix64(seed: int, n: int) -> NDArray[np.uint64]:
    """First ``n`` outputs of the SplitMix64 generator (public domain; Steele, Lea & Flood 2014).

    Output k >= 1 mixes the state seed + k * 0x9E3779B97F4A7C15 mod 2^64:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB; return z ^ (z >> 31).
    The state has this closed form, so all draws are computed at once.
    """
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed & _MASK64)
    # in place, so the n draws take one temporary of their size at a time
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mult)
    z ^= z >> np.uint64(31)
    return z


def splitmix64_uniform(seed: int, n: int) -> NDArray[np.float64]:
    """The first ``n`` :func:`splitmix64` draws as uniforms in [-1, 1).

    Each draw keeps its top 53 bits, divided by 2^53 and mapped by 2u - 1.
    The observation noise and the norm estimate's start vector both come
    from here, so no reconstruction step needs ``numpy.random``.
    """
    bits = splitmix64(seed, n)
    bits >>= np.uint64(11)
    uniform = bits.astype(float)
    uniform *= 2.0**-52  # 2 (b / 2^53), exact since both factors are powers of two
    uniform -= 1.0
    return uniform


def is_a(kind: type, value) -> bool:
    """``value`` is a finite ``kind`` (``numbers.Integral``, ``numbers.Real``), not a bool.

    Tested by comparison, so an integer too large for a float counts as finite.
    """
    return isinstance(value, kind) and not isinstance(value, bool) and -np.inf < value < np.inf


def _read_only(values: NDArray[np.float64]) -> NDArray[np.float64]:
    values.flags.writeable = False
    return values


def _trapezoid(n: int, h: float) -> NDArray[np.float64]:
    """Trapezoid weights of ``n`` equispaced nodes at spacing ``h``."""
    w = np.full(n, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of n_steps steps on [0, T]."""

    T: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (is_a(numbers.Real, self.T) and self.T > 0.0):
            raise ValueError(f"TimeGrid requires a finite T > 0, got {self.T!r}")
        if not (is_a(numbers.Integral, self.n_steps) and self.n_steps >= 1):
            raise ValueError(f"TimeGrid requires an integer n_steps >= 1, got {self.n_steps!r}")

    @property
    def tau(self) -> float:
        return self.T / self.n_steps

    @property
    def nodes(self) -> NDArray[np.float64]:
        return np.linspace(0.0, self.T, self.n_steps + 1)

    @cached_property
    def quad_weights(self) -> NDArray[np.float64]:
        """Trapezoid weights on the time nodes (read-only)."""
        return _read_only(_trapezoid(self.n_steps + 1, self.tau))


@dataclass(frozen=True)
class SpaceGrid:
    """Tensor-product node grid on [0, 1]^dim with n_per_axis nodes per axis.

    It holds the modal data of the discrete -Laplace + 1 with Neumann closure,
    W^-1 M with W the trapezoid mass and M = K + W the symmetric mass-weighted
    finite-difference matrix, which only the nodal reference LU assembles
    (:attr:`fracsource.forward.ProblemSpec.step_solver`).  K and W are tensor
    products of their 1D factors k1 and W1, so the W-orthonormal eigenbasis of
    W^-1 M is the tensor product of the columns of :attr:`axis_modes`.
    """

    dim: int
    n_per_axis: int

    def __post_init__(self) -> None:
        if not (is_a(numbers.Integral, self.dim) and is_a(numbers.Integral, self.n_per_axis)):
            raise ValueError("dim and n_per_axis must be integers")
        if self.dim not in (1, 2):
            raise ValueError("only dim 1 and 2 are supported")
        if self.n_per_axis < 3:
            raise ValueError("need at least 3 nodes per axis")

    @property
    def h(self) -> float:
        return 1.0 / (self.n_per_axis - 1)

    @property
    def n_nodes(self) -> int:
        return self.n_per_axis**self.dim

    @property
    def axis_nodes(self) -> NDArray[np.float64]:
        return np.linspace(0.0, 1.0, self.n_per_axis)

    @property
    def coords(self) -> NDArray[np.float64]:
        """Node coordinates, shape (n_nodes, dim): the product of the axis nodes, axis 0 slowest."""
        axes = np.meshgrid(*[self.axis_nodes] * self.dim, indexing="ij")
        return np.stack(axes, axis=-1).reshape(self.n_nodes, self.dim)

    @property
    def axis_weights(self) -> NDArray[np.float64]:
        """Trapezoid weights along one axis."""
        return _trapezoid(self.n_per_axis, self.h)

    @cached_property
    def quad_weights(self) -> NDArray[np.float64]:
        """Flattened tensor-product trapezoid weights (read-only)."""
        return _read_only(reduce(np.multiply.outer, [self.axis_weights] * self.dim).ravel())

    @cached_property
    def axis_eigenvalues(self) -> NDArray[np.float64]:
        """kappa_k = (2/h^2)(1 - cos(k pi / (n-1))) of k1 v = kappa W1 v (read-only)."""
        n = self.n_per_axis
        k = np.arange(n)
        return _read_only((2.0 / self.h * np.sin(0.5 * np.pi * k / (n - 1))) ** 2)

    @cached_property
    def axis_modes(self) -> NDArray[np.float64]:
        """The W1-orthonormal eigenvectors of k1 v = kappa W1 v as columns (read-only).

        They are the DCT-I vectors c_k cos(pi i k / (n-1)): the trapezoid norm of
        the cosine is 1 at k = 0, n-1 and 1/2 otherwise, so c_k = 1 there and
        sqrt 2 otherwise (Strang, SIAM Review 41, 1999).
        """
        n = self.n_per_axis
        k = np.arange(n)
        scale = np.where((k == 0) | (k == n - 1), 1.0, np.sqrt(2.0))
        return _read_only(scale * np.cos(np.pi / (n - 1) * (np.outer(k, k) % (2 * (n - 1)))))

    # The transforms multiply by these on the right, where numpy's batched
    # matmul takes a slower path for a transposed view than for a C-contiguous
    # matrix (37 against 22 us on a (7, 41, 41) batch); P1 itself is the
    # right factor of P^T along an axis.

    @cached_property
    def axis_synthesis(self) -> NDArray[np.float64]:
        """P1^T as a C-contiguous array (read-only): ``c @ axis_synthesis`` applies P1 along an axis."""
        return _read_only(np.ascontiguousarray(self.axis_modes.T))

    @cached_property
    def axis_analysis(self) -> NDArray[np.float64]:
        """W1 P1 (read-only, C-contiguous): ``v @ axis_analysis`` applies P1^T W1 along an axis."""
        return _read_only(self.axis_weights[:, None] * self.axis_modes)

    @property
    def eigenvalues(self) -> NDArray[np.float64]:
        """1 + kappa_i (+ kappa_k): the eigenvalues of W^-1 M in node order, axis 0 slowest."""
        return reduce(np.add.outer, [self.axis_eigenvalues] * self.dim, 1.0).ravel()


@dataclass
class Field:
    """Scalar samples on the nodes of a :class:`SpaceGrid`."""

    grid: SpaceGrid
    values: NDArray[np.float64]

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"expected {self.grid.n_nodes} nodal values, got shape {self.values.shape}"
            )

    @classmethod
    def from_function(cls, grid: SpaceGrid, fn) -> "Field":
        return cls(grid, np.asarray(fn(*grid.coords.T), dtype=float))

    @classmethod
    def constant(cls, grid: SpaceGrid, value: float) -> "Field":
        return cls(grid, np.full(grid.n_nodes, float(value)))


@dataclass
class SpaceTimeField:
    """Samples on SpaceGrid x TimeGrid; values[n] is the field at time node n."""

    grid: SpaceGrid
    tgrid: TimeGrid
    values: NDArray[np.float64]

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.tgrid.n_steps + 1, self.grid.n_nodes)
        if self.values.shape != expected:
            raise ValueError(f"expected shape {expected}, got {self.values.shape}")

    @classmethod
    def zeros(cls, grid: SpaceGrid, tgrid: TimeGrid) -> "SpaceTimeField":
        return cls(grid, tgrid, np.zeros((tgrid.n_steps + 1, grid.n_nodes)))


@dataclass(frozen=True)
class ObservationMask:
    """0/1 indicator of the observation subdomain omega on the grid nodes.

    Quadrature over omega aggregates the grid cells whose corners are all
    masked (trapezoid rule per cell), so box-boundary nodes carry half weight
    and the discrete measure of omega is exact; isolated masked nodes carry no
    quadrature weight.  The mask keeps a read-only copy of the indicator, so
    its weights are computed once.
    """

    grid: SpaceGrid
    indicator: NDArray[np.float64]

    def __post_init__(self) -> None:
        indicator = np.array(self.indicator, dtype=float)
        if indicator.shape != (self.grid.n_nodes,):
            raise ValueError("indicator must have one entry per node")
        if not np.all((indicator == 0.0) | (indicator == 1.0)):
            raise ValueError("indicator entries must be exactly 0 or 1")
        object.__setattr__(self, "indicator", _read_only(indicator))

    @cached_property
    def quad_weights(self) -> NDArray[np.float64]:
        """Trapezoid weights of the cells contained in omega (read-only)."""
        dim = self.grid.dim
        ind = self.indicator.reshape((self.grid.n_per_axis,) * dim)
        # each corner of a grid cell: the lower (:-1) or upper (1:) end per axis
        corners = list(product((slice(None, -1), slice(1, None)), repeat=dim))
        cells = np.prod([ind[corner] for corner in corners], axis=0)
        w = np.zeros_like(ind)
        for corner in corners:
            w[corner] += (0.5 * self.grid.h) ** dim * cells
        return _read_only(w.ravel())

    @cached_property
    def weighted_nodes(self) -> NDArray[np.intp]:
        """Flat indices of the nodes of nonzero omega weight, ascending (read-only)."""
        return _read_only(np.flatnonzero(self.quad_weights))

    @cached_property
    def gram(self) -> tuple[float, NDArray[np.float64]]:
        """(s, terms) with P^T W_omega P = s I + sum_k kron(*terms[k]) (read-only).

        P^T W P = I, so G = s I + P^T (W_omega - s W) P, with the n x n^(dim-1)
        unfolding of W_omega - s W = sum_k x_k y_k^T by its SVD over the R
        singular values above ``matrix_rank``'s tolerance; s in {0, 1} gives
        the smaller R (0 on a tie), and terms[k] stacks P1^T diag(x_k) P1 and
        P1^T diag(y_k) P1 per axis (in 1D y_k = 1).  Every published 2D mask
        has R = 1 (s = 1: its complement is one box of cells).
        """
        grid, n = self.grid, self.grid.n_per_axis
        choices = []
        for s in (0.0, 1.0):
            unfolded = (self.quad_weights - s * grid.quad_weights).reshape(n, -1)
            u, sigma, vt = np.linalg.svd(unfolded, full_matrices=False)
            keep = sigma > sigma.max(initial=0.0) * n * np.finfo(float).eps
            sign = np.copysign(1.0, vt[keep].sum(axis=1))[:, None]  # in 1D, y_k = +1
            choices.append((s, u[:, keep].T * sigma[keep, None] * sign, vt[keep] * sign))
        s, xs, ys = min(choices, key=lambda choice: len(choice[1]))
        # einsum: OpenBLAS would split a product past 2^18 multiply-adds by thread count
        synthesis, modes = grid.axis_synthesis, grid.axis_modes
        terms = [
            [np.einsum("ai,ib->ab", synthesis * d, modes) for d in (x, y)[: grid.dim]]
            for x, y in zip(xs, ys)
        ]
        return s, _read_only(np.reshape(terms, (len(terms), grid.dim, n, n)))

    @staticmethod
    def check_boxes(boxes, dim: int) -> None:
        """Raise ``ValueError`` unless ``boxes`` is a list or tuple of boxes, each a list or tuple of
        ``dim`` intervals [lo, hi], each a list or tuple of two finite real numbers (:func:`is_a`: no
        bool, NaN, inf or str) with 0 <= lo <= hi <= 1.  An empty list passes."""
        seq = (list, tuple)
        if not isinstance(boxes, seq) or not all(
            isinstance(box, seq) and len(box) == dim
            and all(isinstance(iv, seq) and len(iv) == 2 and all(is_a(numbers.Real, b) for b in iv) for iv in box)
            for box in boxes
        ):
            raise ValueError(
                f"omega must be a list of {dim}-D boxes, one [lo, hi] number pair per axis of the {dim}D grid"
            )
        if not all(0.0 <= lo <= hi <= 1.0 for box in boxes for lo, hi in box):
            raise ValueError("omega boxes must lie within [0,1]^dim, each interval [lo, hi] with lo <= hi")

    @classmethod
    def from_boxes(cls, grid: SpaceGrid, boxes: Sequence[Box]) -> "ObservationMask":
        """Nodes whose coordinates lie in any of the closed boxes.

        A node within 1e-12 of a box face counts as inside, so a face that
        falls on a grid line keeps its nodes despite the rounding of
        ``linspace`` coordinates (x = 0.30000000000000004 on 11 nodes).
        Raises ``ValueError`` when the boxes fail :meth:`check_boxes` on the
        grid's dimension, when no node is inside, or when the nodes inside are
        all isolated, so that no grid cell lies in omega and the quadrature
        over omega, hence the observation map, is zero.
        """
        cls.check_boxes(boxes, grid.dim)
        x = grid.axis_nodes
        ind = np.zeros(grid.n_nodes, dtype=bool)
        for box in boxes:
            axes = [(x >= lo - _BOX_TOL) & (x <= hi + _BOX_TOL) for lo, hi in box]
            ind |= reduce(np.logical_and.outer, axes).ravel()
        if not ind.any():
            raise ValueError("observation subdomain contains no grid node")
        mask = cls(grid, ind.astype(float))
        if mask.quad_weights.sum() == 0.0:
            raise ValueError(
                f"observation subdomain contains no grid cell at spacing h = {grid.h:g}; "
                "its isolated nodes carry zero quadrature weight"
            )
        return mask

    @property
    def n_active(self) -> int:
        return int(self.indicator.sum())


def inner_product(a: Field, b: Field) -> float:
    """Trapezoid quadrature of the L2(Omega) inner product."""
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    return float(np.sum(a.grid.quad_weights * a.values * b.values))


def norm_l2(a: Field) -> float:
    return float(np.sqrt(max(inner_product(a, a), 0.0)))


def masked_inner_product(
    a: SpaceTimeField, b: SpaceTimeField, mask: ObservationMask
) -> float:
    """Space-time trapezoid quadrature of the L2(omega x (0,T)) inner product."""
    if a.grid != b.grid or a.tgrid != b.tgrid:
        raise ValueError("space-time fields live on different grids")
    if mask.grid != a.grid:
        raise ValueError("mask grid does not match the fields")
    wx = mask.quad_weights
    wt = a.tgrid.quad_weights
    return float(np.einsum("t,tx,x->", wt, a.values * b.values, wx))
