"""Self-contained diagnostic suite behind the ``verify`` CLI command.

Each check returns a :class:`CheckResult`; the suite covers Mittag-Leffler
accuracy against independent identities, the analytic power-function formulas
and their convergence orders, forward-solver agreement with the eigen oracle,
the Duhamel identity, and the adjoint pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import (
    Field,
    ObservationMask,
    SpaceGrid,
    SpaceTimeField,
    TimeGrid,
    inner_product,
    masked_inner_product,
)
from .experiments import MU as DEFAULT_MU
from .fraccalc import FractionalOrder, caputo_l1, mittag_leffler, rl_integral
from .forward import ProblemSpec, solve_adjoint, solve_forward
from .oracle import duhamel_check, eigen_forward, modes_up_to

__all__ = ["CheckResult", "run_all_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    bound: float
    passed: bool

    @classmethod
    def upper(cls, name: str, value: float, bound: float) -> "CheckResult":
        return cls(name, value, bound, bool(value <= bound))

    @classmethod
    def lower(cls, name: str, value: float, bound: float) -> "CheckResult":
        return cls(name, value, bound, bool(value >= bound))


def check_mittag_leffler() -> list[CheckResult]:
    """ML function against the exponential and erfc closed forms."""
    out = []
    zs = np.linspace(-10.0, 1.0, 89)
    err = max(abs(mittag_leffler(1.0, 1.0, z) - math.exp(z)) for z in zs)
    out.append(CheckResult.upper("mittag_leffler: E_{1,1}(z) = exp(z) on [-10,1]", err, 1e-12))
    xs = np.linspace(0.1, 10.0, 67)
    err = max(
        abs(mittag_leffler(0.5, 1.0, -x) - math.exp(x * x) * math.erfc(x)) for x in xs
    )
    out.append(
        CheckResult.upper("mittag_leffler: E_{1/2,1}(-x) = e^{x^2} erfc(x) on [0.1,10]", err, 1e-11)
    )
    vals = [mittag_leffler(0.5, 1.0, -x) for x in np.linspace(0.0, 100.0, 200)]
    monotone = all(a > b > 0.0 for a, b in zip(vals, vals[1:]))
    out.append(CheckResult("mittag_leffler: positive strictly decreasing on [0,100]", float(monotone), 1.0, monotone))
    return out


def _order(errors: list[float]) -> float:
    return min(math.log2(a / b) for a, b in zip(errors, errors[1:]))


def check_fractional_operators() -> list[CheckResult]:
    """Power-function formulas and temporal convergence orders at alpha = 0.5."""
    alpha = FractionalOrder(0.5)
    out = []
    t = np.linspace(0.0, 1.0, 81)
    cap = caputo_l1(alpha, t.copy(), t)
    exact = t[1:] ** 0.5 / math.gamma(1.5)
    out.append(
        CheckResult.upper(
            "caputo_l1: d^0.5 t = t^0.5/Gamma(1.5) (exact for linear data)",
            float(np.max(np.abs(cap[1:] - exact))),
            1e-12,
        )
    )
    errs_c, errs_j = [], []
    for n in (40, 80, 160):
        tt = np.linspace(0.0, 1.0, n + 1)
        cap = caputo_l1(alpha, tt**2, tt)
        exact = 2.0 * tt ** 1.5 / math.gamma(2.5)
        errs_c.append(float(abs(cap[-1] - exact[-1])))
        jj = rl_integral(0.5, tt**2, tt)
        exact_j = math.gamma(3.0) / math.gamma(3.5) * tt ** 2.5
        errs_j.append(float(abs(jj[-1] - exact_j[-1])))
    out.append(CheckResult.lower("caputo_l1: order on t^2 over N=40/80/160", _order(errs_c), 1.3))
    out.append(CheckResult.lower("rl_integral: order on t^2 over N=40/80/160", _order(errs_j), 1.3))
    return out


def check_forward_oracle() -> list[CheckResult]:
    """Forward L1 solver against the eigen-expansion oracle (f = cos(pi x))."""
    out = []
    grid = SpaceGrid(1, 41)
    full = ObservationMask(grid, np.ones(grid.n_nodes))
    f = Field.from_function(grid, lambda x: np.cos(np.pi * x))
    for a in (0.3, 0.5, 0.8):
        alpha = FractionalOrder(a)
        tgrid = TimeGrid(1.0, 40)
        spec = ProblemSpec(alpha, tgrid, grid, DEFAULT_MU.sample(tgrid))
        u = solve_forward(spec, f)
        ue = eigen_forward(alpha, modes_up_to(1, 2), f, DEFAULT_MU.sample(tgrid), tgrid)
        diff = SpaceTimeField(grid, tgrid, u.values - ue.values)
        rel = math.sqrt(
            masked_inner_product(diff, diff, full) / masked_inner_product(ue, ue, full)
        )
        out.append(CheckResult.upper(f"solve_forward vs eigen oracle (alpha={a}, 41x41)", rel, 1e-2))
    return out


def check_duhamel() -> list[CheckResult]:
    grid = SpaceGrid(1, 41)
    f = Field.from_function(grid, lambda x: np.cos(np.pi * x))
    val = duhamel_check(FractionalOrder(0.5), f, DEFAULT_MU, TimeGrid(1.0, 40), grid)
    return [CheckResult.upper("duhamel identity discrepancy (alpha=0.5, 41x41)", val, 1e-2)]


def check_adjoint_pairing() -> list[CheckResult]:
    """<u(g), chi r>_Q = <g, int mu z dt>_Omega for random fields."""
    grid = SpaceGrid(1, 21)
    tgrid = TimeGrid(1.0, 20)
    mask = ObservationMask.from_boxes(grid, [[[0.0, 0.05]], [[0.95, 1.0]]])
    spec = ProblemSpec(FractionalOrder(0.5), tgrid, grid, DEFAULT_MU.sample(tgrid))
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(10):
        f = Field(grid, rng.standard_normal(grid.n_nodes))
        g = Field(grid, rng.standard_normal(grid.n_nodes))
        uf = solve_forward(spec, f)
        ug = solve_forward(spec, g)
        r = SpaceTimeField(grid, tgrid, uf.values)
        lhs = masked_inner_product(ug, r, mask)
        rhs = inner_product(g, solve_adjoint(spec, r, mask))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    return [CheckResult.upper("adjoint pairing discrepancy (10 random pairs, 21x21)", worst, 1e-2)]


def run_all_checks() -> list[CheckResult]:
    return (
        check_mittag_leffler()
        + check_fractional_operators()
        + check_forward_oracle()
        + check_duhamel()
        + check_adjoint_pairing()
    )
