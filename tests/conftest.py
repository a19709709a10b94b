import math
import os
from pathlib import Path

import numpy as np
import pytest

import fracsource
from fracsource import (
    Field,
    FractionalOrder,
    ObservationMask,
    ProblemSpec,
    SpaceGrid,
    TimeGrid,
)
from fracsource.forward import NormalOperator, _gram_plan, run_plan
from fracsource.oracle import PolynomialMu

MU_STD = PolynomialMu((1.0, 0.0, 10.0 * math.pi))


@pytest.fixture(scope="session")
def grid41():
    return SpaceGrid(1, 41)


@pytest.fixture(scope="session")
def grid21():
    return SpaceGrid(1, 21)


@pytest.fixture
def mu_std():
    return MU_STD


def fd_stiffness(grid: SpaceGrid) -> np.ndarray:
    """Dense K of the finite-difference scheme, M = K + W, stated apart from the package.

    k1 = (1/h)[-1, 2, -1] with its end entries halved (mass-weighted
    mirror-ghost Neumann closure); K = k1 in 1D and
    kron(k1, W1) + kron(W1, k1) in 2D, W1 the 1D trapezoid weights.
    """
    n, h = grid.n_per_axis, grid.h
    k1 = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h
    k1[0, 0] = k1[-1, -1] = 1.0 / h
    if grid.dim == 1:
        return k1
    w1 = np.diag(grid.axis_weights)
    return np.kron(k1, w1) + np.kron(w1, k1)


def make_spec(alpha: float, grid: SpaceGrid, n_steps: int = 40, T: float = 1.0) -> ProblemSpec:
    tgrid = TimeGrid(T, n_steps)
    return ProblemSpec(FractionalOrder(alpha), tgrid, grid, MU_STD.sample(tgrid))


def gram_product(mask: ObservationMask, e: np.ndarray) -> np.ndarray:
    """G e_l for every row e_l of ``e``: the mask's Gram plan, run as a thresholding step runs it."""
    g = np.empty_like(e)
    run_plan(_gram_plan(mask, e, g))
    return g


def dense_normal(spec: ProblemSpec, mask: ObservationMask) -> np.ndarray:
    """H = A^T A in the modal coordinates f_hat = P^T W f, built densely:
    sum_l diag(sb_l) G diag(sb_l) over all r rows sb_l of ``spec.time_factor[1]``,
    with G = P^T W_omega P from the mask's Gram plan on the identity."""
    g = gram_product(mask, np.eye(spec.grid.n_nodes))
    sb = spec.time_factor[1]
    return g * (sb.T @ sb)  # entry (i, j) is G_ij sum_l sb_li sb_lj


def spectral_replay(spec: ProblemSpec, mask: ObservationMask, u_obs, cfg) -> dict:
    """``iterate``'s stopping and bail-out rules replayed in the eigenbasis of H = :func:`dense_normal`.

    The step is affine, f_{k+1} = T f_k + b / (M + rho) with T = (M I - H) / (M + rho) and
    b = A^T u_obs, so f_k - f* = T^k (f_0 - f*) and the steps are d_k = T^(k-1) d_1: in H's
    eigenbasis (H = V diag(lam) V^T) every mode scales by tau = (M - lam) / (M + rho) per step,
    and Phi(f) = sum (lam + rho) g^2 - 2 b g + ||u_obs||^2_omega in the coordinates g of f.
    Returns K and status as ``iterate`` would report them, the norms ``steps`` of d_1, d_2, ...,
    and per check k the stopping ratio ||d_k|| / (eps ||f_{k-1}||) (``stop``, below 1 stops) and
    Phi(f_{k-1}) / (1e12 (Phi(f_0) + 1)) (``blowup``, above 1 bails out).
    """
    lam, v = np.linalg.eigh(dense_normal(spec, mask))
    data_term, _, phi_zero = NormalOperator(spec, mask, u_obs, Field.constant(spec.grid, 0.0)).phi(cfg.rho)
    b = v.T @ -data_term  # A^T (A 0 - u_obs) = -b
    m, rho = cfg.m, cfg.rho
    tau, g = (m - lam) / (m + rho), v.T @ spec.to_modal(cfg.f0)
    d, out = (b - (lam + rho) * g) / (m + rho), {"steps": [], "stop": [], "blowup": []}

    def phi(g):
        return float(np.sum(((lam + rho) * g - 2.0 * b) * g)) + phi_zero

    limit = 1e12 * (phi(g) + 1.0)
    for k in range(1, cfg.max_iter + 1):
        out["blowup"].append(phi(g) / limit)
        if not math.isfinite(out["blowup"][-1]) or out["blowup"][-1] > 1.0:
            return {**out, "K": k, "status": "diverged"}
        out["steps"].append(float(np.linalg.norm(d)))
        out["stop"].append(out["steps"][-1] / (cfg.eps * max(float(np.linalg.norm(g)), 1e-14)))
        g, d = g + d, tau * d
        if out["stop"][-1] < 1.0:
            return {**out, "K": k, "status": "converged"}
    return {**out, "K": cfg.max_iter, "status": "max_iter"}


def edge_mask(grid: SpaceGrid) -> ObservationMask:
    return ObservationMask.from_boxes(grid, [[[0.0, 0.05]], [[0.95, 1.0]]])


def cos_field(grid: SpaceGrid, k: int = 1) -> Field:
    return Field.from_function(grid, lambda x: np.cos(k * np.pi * x))


def subprocess_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH.

    A child Python finds the package under test with it, also when pytest
    put ``src`` on its own ``sys.path`` only (``pythonpath`` in pyproject.toml).
    """
    env = dict(os.environ)
    src = str(Path(fracsource.__file__).parent.parent)
    rest = [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
    env["PYTHONPATH"] = os.pathsep.join([src, *rest])
    return env
