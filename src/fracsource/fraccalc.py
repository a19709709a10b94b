"""Scalar fractional-calculus kernels.

Mittag-Leffler evaluation on the real line for alpha in (0, 1] (the power
series for z >= 0, one contour integral for z < 0), the product-trapezoid
convolution of a kernel with a piecewise-linear function and the
Riemann-Liouville integral built on it, the L1 discretization of the Caputo
derivative, and the L1 weight sequence and scale shared with the
time-stepping solvers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .discretization import is_a

__all__ = [
    "FractionalOrder",
    "mittag_leffler",
    "linear_convolution",
    "rl_integral",
    "caputo_l1",
    "l1_weights",
    "l1_scale",
]

# output rows per block of linear_convolution's Toeplitz products
_CONV_ROWS = 256


@dataclass(frozen=True)
class FractionalOrder:
    """Time-fractional order alpha, restricted to (0, 1)."""

    alpha: float

    def __post_init__(self) -> None:
        if not (is_a(numbers.Real, self.alpha) and 0.0 < self.alpha < 1.0):
            raise ValueError(
                f"fractional order alpha must be a finite number in (0, 1), got {self.alpha!r}"
            )


def l1_weights(alpha: FractionalOrder, n_steps: int) -> NDArray[np.float64]:
    """Weights b_k = (k+1)^(1-alpha) - k^(1-alpha) of the L1 Caputo discretization.

    b_0 = 1 and the sequence is positive and strictly decreasing; partial sums
    telescope to n^(1-alpha), which makes the L1 operator annihilate constants
    exactly.  The step size enters only through :func:`l1_scale`.
    """
    if not (is_a(numbers.Integral, n_steps) and n_steps >= 1):
        raise ValueError("n_steps must be an integer >= 1")
    a = alpha.alpha
    k = np.arange(n_steps, dtype=float)
    return (k + 1.0) ** (1.0 - a) - k ** (1.0 - a)


def l1_scale(alpha: FractionalOrder, tau: float) -> float:
    """Prefactor tau^(-alpha) / Gamma(2 - alpha) of the L1 operator."""
    a = alpha.alpha
    return tau ** (-a) / math.gamma(2.0 - a)


def _rgamma(x: float) -> float:
    """1/Gamma(x) for x > -170, 0 at the poles x = 0, -1, -2, ...

    Gamma overflows past x = 171.6, where its reciprocal, still a float to
    about x = 178, comes from lgamma.
    """
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    if x <= 171.0:
        return 1.0 / math.gamma(x)
    return math.exp(-math.lgamma(x))


def _ml_taylor(alpha: float, beta: float, z: float) -> float:
    # Compensated (Kahan) summation of sum_k z^k / Gamma(alpha k + beta).
    s = 0.0
    c = 0.0
    zk = 1.0
    for k in range(5000):
        if math.isfinite(zk):
            t = zk * _rgamma(alpha * k + beta)
        else:
            # z^k overflowed while the terms still count (from k = 309 at
            # z = 10, where the terms of alpha = 0.45 peak near k = 370)
            try:
                t = math.exp(k * math.log(z) - math.lgamma(alpha * k + beta))
            except OverflowError:
                return math.inf
        y = t - c
        u = s + y
        c = (u - s) - y
        s = u
        if not math.isfinite(s):
            return math.inf
        zk *= z
        if k > 3 and abs(t) < 1e-17 * max(1.0, abs(s)):
            break
    return s


# E_{a,b}(z) = (1/2 pi i) int_C e^s s^(a-b) / (s^a - z) ds, the Bromwich integral
# of its Laplace transform, by the midpoint rule in theta on the parabola
# s(theta) = N (0.1309 - 0.1194 theta^2 + 0.25 i theta), theta in (-pi, pi)
# (Weideman & Trefethen, Math. Comp. 76, 2007).  C is conjugate symmetric, so
# the N/2 nodes with theta > 0 carry the sum as h/pi = 2/N times the imaginary
# part; _ML_WEIGHTS holds e^s s'(theta) 2/N.  N = 32 loses ~1e-10 at beta ~ 4
# and N = 48 loses digits to the growth of e^(Re s) on C.
_ML_NODES = 40
_ML_THETA = (np.arange(_ML_NODES // 2) + 0.5) * (2.0 * math.pi / _ML_NODES)
_ML_S = _ML_NODES * (0.1309 - 0.1194 * _ML_THETA**2 + 0.25j * _ML_THETA)
_ML_WEIGHTS = 2.0 * np.exp(_ML_S) * (0.25j - 0.2388 * _ML_THETA)


def mittag_leffler(alpha: float, beta: float, z: float) -> float:
    """Evaluate the two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    Real arguments only.  Negative z, the regime of the model's kernels, is
    the Bromwich integral on a fixed parabolic contour, accurate to ~1e-13
    absolute (measured <= 6.4e-14 for alpha in [0.2, 1), beta in [0.2, 4],
    z in [-60, 0)); z >= 0 is the power series, which returns 1/Gamma(beta)
    exactly at z = 0 and ``inf`` where the value exceeds the largest float.

    Parameters
    ----------
    alpha, beta : float
        Parameters of E_{alpha,beta}; ``alpha`` must lie in (0, 1], the range
        of the model's orders plus the exponential case alpha = 1.
    z : float
        Real argument.

    Returns
    -------
    float
        E_{alpha,beta}(z) = sum_k z^k / Gamma(alpha k + beta).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if z >= 0.0:
        return _ml_taylor(alpha, beta, z)
    # for z < 0 every singularity lies left of C: s^alpha = z has no principal
    # root when alpha < 1, and the pole s = z of alpha = 1 is on (-inf, 0)
    return float(np.sum(_ML_WEIGHTS * _ML_S ** (alpha - beta) / (_ML_S**alpha - z)).imag)


def _check_uniform(t: NDArray[np.float64]) -> float:
    if t.ndim != 1 or t.size < 2:
        raise ValueError("time grid must be a 1-D array with at least two nodes")
    steps = np.diff(t)
    tau = steps[0]
    if tau <= 0.0 or not np.allclose(steps, tau, rtol=1e-12, atol=1e-14):
        raise ValueError("time grid must be uniform and increasing")
    return float(tau)


def linear_convolution(
    m0: NDArray[np.float64],
    m1: NDArray[np.float64],
    g: NDArray[np.float64],
    tau: float,
    *,
    stride: int = 1,
) -> NDArray[np.float64]:
    """Product-trapezoid convolution int_0^{t_n} K(u) g(t_n - u) du at t_n = n tau.

    ``g`` is interpolated piecewise linearly between its samples g[j] = g(t_j)
    and integrated exactly against the kernel, which enters only through its
    moment tables m0[k] = int_0^{t_k} K(u) du and m1[k] = int_0^{t_k} u K(u) du;
    a weakly singular K is therefore handled exactly.  Axis 0 of ``g`` is time
    and trailing axes are batched.  Only the rows n = 0, stride, 2 stride, ...
    are computed and returned, so with the default stride 1 the result has the
    shape of ``g``.
    """
    m0 = np.asarray(m0, dtype=float)
    m1 = np.asarray(m1, dtype=float)
    g = np.asarray(g, dtype=float)
    n_nodes = g.shape[0]
    if m0.shape != (n_nodes,) or m1.shape != (n_nodes,):
        raise ValueError("kernel moments and g must be sampled on the same time nodes")
    if not (is_a(numbers.Integral, stride) and stride >= 1):
        raise ValueError(f"stride must be an integer >= 1, got {stride!r}")
    # on cell k, u in [t_{k-1}, t_k], g(t_n - u) = g_j + (g_{j+1} - g_j)(t_k - u)/tau
    # with j = n - k; p_k and q_k integrate K and K(u)(t_k - u)/tau over the cell
    p = np.diff(m0, prepend=m0[0])
    q = np.arange(n_nodes) * p - np.diff(m1, prepend=m1[0]) / tau
    flat = g.reshape(n_nodes, -1)
    dg = np.diff(flat, axis=0)
    kept = np.arange(0, n_nodes, stride)
    out = np.zeros((kept.size, flat.shape[1]))
    # rows in blocks keep the lower-triangular Toeplitz factors small on long
    # grids; row 0 is the empty integral
    for lo in range(1, kept.size, _CONV_ROWS):
        rows = kept[lo : lo + _CONV_ROWS]
        lag = np.maximum(rows[:, None] - np.arange(n_nodes - 1), 0)
        out[lo : lo + rows.size] = p[lag] @ flat[:-1] + q[lag] @ dg
    return out.reshape(kept.shape + g.shape[1:])


def rl_integral(alpha: float, g: NDArray[np.float64], t: NDArray[np.float64]) -> NDArray[np.float64]:
    """Riemann-Liouville integral (J_{0+}^alpha g)(t_n) on a uniform grid.

    :func:`linear_convolution` with the kernel u^(alpha-1) / Gamma(alpha),
    whose moments are powers of the nodes; O(tau^2) accurate for smooth g.
    """
    if alpha <= 0.0:
        raise ValueError(f"integral order must be positive, got {alpha}")
    g = np.asarray(g, dtype=float)
    t = np.asarray(t, dtype=float)
    tau = _check_uniform(t)
    if g.shape != t.shape:
        raise ValueError("g must be a scalar function sampled on the time grid")
    m0 = t**alpha * _rgamma(alpha + 1.0)
    m1 = t ** (alpha + 1.0) * (_rgamma(alpha) / (alpha + 1.0))
    return linear_convolution(m0, m1, g, tau)


def caputo_l1(
    alpha: FractionalOrder, u: NDArray[np.float64], t: NDArray[np.float64]
) -> NDArray[np.float64]:
    """L1 approximation of the Caputo derivative of ``u`` on a uniform grid.

    Node n >= 1 carries (tau^-alpha / Gamma(2-alpha)) *
    sum_{k=0}^{n-1} b_k (u^{n-k} - u^{n-k-1}); node 0 is 0 (the Caputo
    derivative of a C^1 function vanishes at t = 0+).  Truncation order
    2 - alpha for u in C^2.
    """
    u = np.asarray(u, dtype=float)
    t = np.asarray(t, dtype=float)
    tau = _check_uniform(t)
    n_nodes = t.size
    if u.shape != (n_nodes,):
        raise ValueError("u must be a scalar function sampled on the time grid")
    b = l1_weights(alpha, n_nodes - 1)
    scale = l1_scale(alpha, tau)
    du = np.diff(u)
    out = np.zeros_like(u)
    for n in range(1, n_nodes):
        out[n] = scale * np.dot(b[:n][::-1], du[:n])
    return out
