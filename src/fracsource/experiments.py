"""Experiment harness: presets, seeded noise synthesis, runners and CSV output.

The presets reproduce the published 1D/2D test cases; all of them share
T = 1, mu(t) = 1 + 10 pi t^2, rho = 1e-5 and the constant initial guess
f_0 = 2 on a 41-nodes-per-axis, 40-step space-time mesh.

A sweep reruns one forward problem over noise seeds, delta and omega, so a
process builds its seed-free data once, in two bounded ``functools.lru_cache``s
keyed by config values, and shares it read-only:

- :data:`_problem`, keyed by (dim, n_per_axis, n_steps, T, alpha, f_true): the
  one :class:`ProblemSpec` of those values with its time factor, the f_true
  samples, u(f_true) and the profile rows' prefixes, about 0.9 MB at
  41^2 x 40 (0.55 MB of it u); at most 4 entries.  A sweep over f_true on one
  discretization thus builds one time factor (3-5 ms, 0.12 MB) per f_true;
- :func:`_mask`, keyed by (grid, omega), omega a preset name or its boxes as
  nested tuples: the frozen :class:`ObservationMask` with its Gram factors,
  27 KB at 41^2; at most 32.

A run draws its noise on the masked nodes' columns of the shared u only (:func:`_noisy_columns`), so it
writes the bits of :func:`synthesize_observation` without the caches and builds no (n_t + 1) x N array.
"""

from __future__ import annotations

import ast
import csv
import json
import logging
import math
import numbers
import operator
import os
import sys
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache
from itertools import count, islice, product, repeat

import numpy as np

from .discretization import (
    Field,
    ObservationMask,
    SpaceGrid,
    SpaceTimeField,
    TimeGrid,
    is_a,
    splitmix64,
    splitmix64_uniform,
)
from .forward import ProblemSpec, solve_forward
from .fraccalc import FractionalOrder
from .inversion import ReconstructionConfig, ReconstructionResult, iterate
from .oracle import PolynomialMu

__all__ = [
    "splitmix64",
    "ExperimentConfig",
    "F_TRUE_PRESETS",
    "OMEGA_PRESETS",
    "EXPERIMENT_PRESETS",
    "TABLE_ROWS",
    "config_from_preset",
    "build_forward_problem",
    "build_problem",
    "synthesize_observation",
    "run_experiment",
    "run_table",
    "write_forward_csv",
]

logger = logging.getLogger(__name__)

MU = PolynomialMu((1.0, 0.0, 10.0 * math.pi))

# f_true presets: name -> (dim, expression), sampled by _sample_f_true
F_TRUE_PRESETS: dict[str, tuple[int, str]] = {
    "sin_plus_linear": (1, "sin(pi * x1) + x1 - 3.0"),
    "sin_minus_3_2": (1, "sin(pi * x1) - 1.5"),
    "half_sine_quadratic": (1, "-sin(pi * x1 / 2.0) - x1**2 + 3.0"),
    "plane_2d": (2, "x1 + x2 + 1.0"),
    "cosine_bump_2d": (2, "cos(pi * x1) * cos(pi * x2) + 2.0"),
    "exp_ridge_2d": (2, "exp((x1 + x2) / 2.0) + 1.0"),
}


def _frame_boxes(a: float, b: float) -> list:
    """Omega \\ [a,b]^2 as a union of four closed edge bands."""
    return [
        [[0.0, a], [0.0, 1.0]],
        [[b, 1.0], [0.0, 1.0]],
        [[0.0, 1.0], [0.0, a]],
        [[0.0, 1.0], [b, 1.0]],
    ]


# omega presets as unions of closed boxes; nodes on the box boundary belong to
# omega and the cell quadrature then reproduces |omega| exactly.
OMEGA_PRESETS: dict[str, dict] = {
    "edges_0.05": {"boxes": [[[0.0, 0.05]], [[0.95, 1.0]]], "label": "(0,0.05)u(0.95,1)"},
    "edges_0.2": {"boxes": [[[0.0, 0.2]], [[0.8, 1.0]]], "label": "(0,0.2)u(0.8,1)"},
    "edges_0.1": {"boxes": [[[0.0, 0.1]], [[0.9, 1.0]]], "label": "(0,0.1)u(0.9,1)"},
    "edges_0.025": {"boxes": [[[0.0, 0.025]], [[0.975, 1.0]]], "label": "(0,0.025)u(0.975,1)"},
    "frame_0.1_0.9": {"boxes": _frame_boxes(0.1, 0.9), "label": "O\\[0.1,0.9]^2"},
    "frame_0.1_0.8": {"boxes": _frame_boxes(0.1, 0.8), "label": "O\\[0.1,0.8]^2"},
    "frame_0.05_0.95": {"boxes": _frame_boxes(0.05, 0.95), "label": "O\\[0.05,0.95]^2"},
    "three_edges": {
        "boxes": [
            [[0.9, 1.0], [0.0, 1.0]],
            [[0.0, 1.0], [0.0, 0.1]],
            [[0.0, 1.0], [0.9, 1.0]],
        ],
        "label": "O\\[0,0.9]x[0.1,0.9]",
    },
}


_EXPR_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_EXPR_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
    ast.UAdd: operator.pos,
    ast.USub: operator.neg,
}


def _quote(text: str) -> str:
    """``text`` quoted for a one-line error, cut to 60 characters."""
    return repr(text if len(text) <= 60 else text[:57] + "...")


def _eval_expr(node: ast.AST, names: dict):
    """The value of an f_true syntax tree: numbers, ``names``, sin/cos/exp
    of one argument, + - * / ** and unary +-; any other node raises.

    Nothing is compiled.  Literals are float64, so a power overflows to inf
    instead of growing an integer.
    """
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return np.float64(node.value)
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPS:
        return _EXPR_OPS[type(node.op)](_eval_expr(node.left, names), _eval_expr(node.right, names))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_OPS:
        return _EXPR_OPS[type(node.op)](_eval_expr(node.operand, names))
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _EXPR_FUNCS
        and len(node.args) == 1
        and not node.keywords
    ):
        return _EXPR_FUNCS[node.func.id](_eval_expr(node.args[0], names))
    raise ValueError(f"f_true expression may not contain {_quote(ast.unparse(node))}")


def _sample_f_true(f_true: str, grid: SpaceGrid) -> np.ndarray:
    """A preset name or expression over sin, cos, exp, pi and x1[, x2],
    sampled at the nodes of ``grid``; the array is read-only."""
    expr = f_true
    if f_true in F_TRUE_PRESETS:
        preset_dim, expr = F_TRUE_PRESETS[f_true]
        if preset_dim != grid.dim:
            raise ValueError(f"f_true preset {f_true!r} is {preset_dim}-D, but dim is {grid.dim}")
    coords = grid.coords.T
    names = {"pi": np.float64(np.pi), **{f"x{i + 1}": x for i, x in enumerate(coords)}}
    quoted = _quote(expr)
    try:
        with np.errstate(all="ignore"):
            # the trailing zero term broadcasts constant expressions to arrays
            values = _eval_expr(ast.parse(expr, "<f_true>", "eval").body, names) + 0.0 * coords[0]
    except (SyntaxError, RecursionError, MemoryError, ArithmeticError) as exc:
        reason = exc.msg if isinstance(exc, SyntaxError) else type(exc).__name__
        raise ValueError(f"f_true expression {quoted} cannot be evaluated: {reason}") from None
    if not np.all(np.isfinite(values)):
        raise ValueError(f"f_true {quoted} is not finite at every grid node")
    values.flags.writeable = False
    return values


class _Problem:
    """The seed-free data of one problem: the spec and the read-only f_true
    samples, then u(f_true) and the profile rows' prefixes on first use."""

    def __init__(
        self, dim: int, n_per_axis: int, n_steps: int, T: float, alpha: float, f_true: str
    ) -> None:
        alpha, tgrid = FractionalOrder(alpha), TimeGrid(T, n_steps)
        self.spec = ProblemSpec(alpha, tgrid, SpaceGrid(dim, n_per_axis), MU.sample(tgrid))
        self.f_true = _sample_f_true(f_true, self.spec.grid)

    @cached_property
    def u(self) -> SpaceTimeField:
        """u(f_true), read-only, solved through the module's global ``solve_forward``."""
        u = solve_forward(self.spec, Field(self.spec.grid, self.f_true))
        u.values.flags.writeable = False
        return u

    @cached_property
    def profile_cells(self) -> tuple[str, ...]:
        """The ``x1[,x2],f_true,`` prefix of each profile row, in node order (:func:`_prefixes`)."""
        f_cells = zip(_reprs(self.f_true))
        return tuple(_prefixes(map(operator.add, _node_reprs(self.spec.grid), f_cells)))


# An entry holds the spec with its grid's modes and time factor (0.15-0.22 MB
# at 41^2 x 40), u(f_true), 8 (n_t + 1) N bytes (0.55 MB at 41^2 x 40, 5.4 MB
# at 41^2 x 400), and the profile prefixes (0.14-0.16 MB at 41^2).  The four
# presets, or both published tables and one sweep, are 4 problems, so 4
# entries hold them and pin at most 22 MB of u at 41^2 x 400.  ``typed`` keeps
# a value of another type, such as dim=True, from finding a checked problem.
_problem = lru_cache(maxsize=4, typed=True)(_Problem)


def _problem_of(cfg: ExperimentConfig) -> _Problem:
    """The process's one problem of ``cfg`` (:data:`_problem`), shared by every run of it."""
    key = (cfg.dim, cfg.n_per_axis, cfg.n_steps, cfg.T, cfg.alpha, cfg.f_true)
    try:
        return _problem(*key)
    except TypeError:  # an unhashable value, which building the problem rejects
        return _Problem(*key)


def _omega_boxes_and_label(omega) -> tuple[list, str]:
    if isinstance(omega, str):
        if omega not in OMEGA_PRESETS:
            raise ValueError(f"unknown omega preset {omega!r}")
        preset = OMEGA_PRESETS[omega]
        return preset["boxes"], preset["label"]
    label = "u".join(
        "x".join(f"[{lo:g},{hi:g}]" for lo, hi in box) for box in omega
    )
    return list(omega), label


@dataclass(frozen=True)
class ExperimentConfig:
    """One reconstruction run; fields mirror the published experiment settings.

    ``f_true`` is a preset name or an expression over sin, cos, exp, pi and
    x1[, x2]; ``omega`` is a preset name or a list of closed coordinate boxes
    inside [0,1]^dim.  The types that consume the fields check them, so a config that cannot
    run fails when it is made: its problem (:func:`_problem_of`) checks alpha, the grids and
    f_true, building no time factor and no u, :meth:`ReconstructionConfig.check_scalars` rho, M,
    eps and max_iter, and :meth:`ObservationMask.check_boxes` omega's boxes (a preset's name and
    dimension); the mask, built at the first run, checks that omega holds a grid cell.
    """

    dim: int
    alpha: float
    f_true: str
    omega: object
    delta: float
    m: float
    eps: float
    seed: int = 0
    n_per_axis: int = 41
    n_steps: int = 40
    T: float = 1.0
    rho: float = 1e-5
    f0: float = 2.0
    max_iter: int = 1000
    outdir: str = "results"
    label: str = ""

    def __post_init__(self) -> None:
        for name in ("f_true", "outdir", "label"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        # the label prefixes file names inside outdir, so it may not name a path
        if self.label in (".", "..") or any(
            sep and sep in self.label for sep in ("/", os.sep, os.altsep)
        ):
            raise ValueError(f"label must be a plain file-name stem, got {self.label!r}")
        if not (is_a(numbers.Real, self.delta) and self.delta >= 0.0):
            raise ValueError(f"noise level delta must be a finite number >= 0, got {self.delta!r}")
        if not (is_a(numbers.Real, self.f0) and abs(self.f0) <= sys.float_info.max):
            raise ValueError(f"f0 must be a finite number, got {self.f0!r}")
        if not is_a(numbers.Integral, self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        _problem_of(self)  # checks alpha, the grids and f_true
        ReconstructionConfig.check_scalars(self.rho, self.m, self.eps, self.max_iter)
        # every preset passes check_boxes in its own dim (tested), so its first box shows the dim
        boxes = _omega_boxes_and_label(self.omega)[0][:1] if isinstance(self.omega, str) else self.omega
        ObservationMask.check_boxes(boxes, self.dim)


# Published experiment settings: example id -> configuration.
EXPERIMENT_PRESETS: dict[str, ExperimentConfig] = {
    "5.1a": ExperimentConfig(
        dim=1, alpha=0.3, f_true="sin_plus_linear", omega="edges_0.05",
        delta=0.02, m=2.0, eps=1e-3, label="5.1a",
    ),
    "5.1b": ExperimentConfig(
        dim=1, alpha=0.5, f_true="sin_minus_3_2", omega="edges_0.05",
        delta=0.02, m=1.0, eps=1e-3, label="5.1b",
    ),
    "5.3a": ExperimentConfig(
        dim=2, alpha=0.3, f_true="plane_2d", omega="frame_0.1_0.9",
        delta=0.01, m=2.0, eps=0.01 / 3.0, label="5.3a",
    ),
    "5.3b": ExperimentConfig(
        dim=2, alpha=0.5, f_true="cosine_bump_2d", omega="frame_0.1_0.9",
        delta=0.01, m=2.0, eps=0.01 / 3.0, label="5.3b",
    ),
}

# Table rows: (delta, omega preset, reference err %, reference K).
TABLE_ROWS: dict[int, list[tuple[float, str, float, int]]] = {
    1: [
        (0.005, "edges_0.05", 2.87, 51),
        (0.01, "edges_0.05", 3.61, 51),
        (0.02, "edges_0.05", 5.38, 51),
        (0.04, "edges_0.05", 9.35, 50),
        (0.02, "edges_0.2", 4.11, 20),
        (0.02, "edges_0.1", 4.05, 31),
        (0.02, "edges_0.025", 9.89, 79),
    ],
    2: [
        (0.005, "frame_0.1_0.9", 3.25, 35),
        (0.01, "frame_0.1_0.9", 4.69, 26),
        (0.02, "frame_0.1_0.9", 7.11, 17),
        (0.04, "frame_0.1_0.9", 10.31, 8),
        (0.01, "frame_0.1_0.8", 3.63, 21),
        (0.01, "frame_0.05_0.95", 6.70, 42),
        (0.01, "three_edges", 5.46, 22),
    ],
}


def table_base_config(table_id: int, smoke: bool = False) -> ExperimentConfig:
    """Shared settings of a table: alpha = 0.8 with the table's f_true and eps rule."""
    if table_id == 1:
        base = ExperimentConfig(
            dim=1, alpha=0.8, f_true="half_sine_quadratic", omega="edges_0.05",
            delta=0.02, m=1.0, eps=1e-3, label="table1",
        )
    elif table_id == 2:
        base = ExperimentConfig(
            dim=2, alpha=0.8, f_true="exp_ridge_2d", omega="frame_0.1_0.9",
            delta=0.01, m=2.0, eps=0.01 / 5.0, label="table2",
        )
    else:
        raise ValueError("table id must be 1 or 2")
    if smoke:
        base = replace(base, n_per_axis=21)
    return base


def config_from_preset(name: str, **overrides) -> ExperimentConfig:
    if not isinstance(name, str):
        raise ValueError(f"preset must be a string, got {name!r}")
    if name not in EXPERIMENT_PRESETS:
        raise ValueError(
            f"unknown preset {name!r}; available: {sorted(EXPERIMENT_PRESETS)}"
        )
    return replace(EXPERIMENT_PRESETS[name], **overrides)


def config_from_file(path: str, **overrides) -> ExperimentConfig:
    """Load a flat JSON config; explicit keyword overrides win."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file must hold a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - {"preset"} - {field.name for field in fields(ExperimentConfig)})
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    if "preset" in data:
        preset = data.pop("preset")
        data.update(overrides)
        return config_from_preset(preset, **data)
    data.update(overrides)
    return ExperimentConfig(**data)


# An entry holds the indicator and the quadrature weights, 2 x 8 N bytes:
# 27 KB at 41^2 and 105 KB at 81^2.  The four presets and the two published
# tables use 8 distinct (grid, omega) pairs at paper size and 7 more on the
# smoke grid, so 32 entries hold them all, under 1 MB at paper size.
@lru_cache(maxsize=32)
def _mask(grid: SpaceGrid, omega) -> ObservationMask:
    """The shared frozen mask of ``omega`` (as :func:`build_mask` keys it) on the first equal
    ``grid`` passed, a spec's, so its Gram matrix reuses that grid's 1D modes."""
    return ObservationMask.from_boxes(grid, _omega_boxes_and_label(omega)[0])


def build_mask(cfg: ExperimentConfig, grid: SpaceGrid) -> ObservationMask:
    """The observation mask of ``cfg.omega`` on ``grid``, shared and frozen (:func:`_mask`)."""
    omega = cfg.omega  # a preset name, or the boxes as nested tuples, keys the mask
    if not isinstance(omega, str):
        omega = tuple(tuple(map(tuple, box)) for box in omega)
    return _mask(grid, omega)


def build_forward_problem(cfg: ExperimentConfig) -> tuple[ProblemSpec, Field]:
    """Problem spec and true source field for a config, without omega.

    The spec is the process's one spec of its problem (:func:`_problem_of`), so its
    time factor is built once; the field is fresh over the shared read-only samples.
    """
    problem = _problem_of(cfg)
    return problem.spec, Field(problem.spec.grid, problem.f_true)


def build_problem(cfg: ExperimentConfig) -> tuple[ProblemSpec, Field, ObservationMask]:
    """Problem spec, true source field and observation mask for a config.

    Both are shared: the spec by every config of its problem (:func:`build_forward_problem`),
    the mask, frozen with its arrays read-only, by those of its grid and omega (:func:`build_mask`).
    """
    spec, f_true = build_forward_problem(cfg)
    return spec, f_true, build_mask(cfg, spec.grid)


def synthesize_observation(
    spec: ProblemSpec,
    f_true: Field,
    mask: ObservationMask,
    delta: float,
    seed: int,
) -> SpaceTimeField:
    """Noisy observation u_obs = (1 + delta rand(-1,1)) u(f_true) on omega, 0 outside.

    Draws come from :func:`splitmix64_uniform`, each the top 53 bits of a
    :func:`splitmix64` output over 2^53 mapped to [-1, 1); the order is
    masked nodes by ascending flat index, and for each node all time nodes
    0..n_steps, so a fixed seed reproduces the observation bitwise.
    """
    u = solve_forward(spec, f_true)
    obs = np.zeros_like(u.values)
    obs[:, mask.nodes] = _noisy_columns(u.values, mask, delta, seed)
    return SpaceTimeField(u.grid, u.tgrid, obs)


def _noisy_columns(u: np.ndarray, mask: ObservationMask, delta: float, seed: int, draws=None) -> np.ndarray:
    """The noise rule of :func:`synthesize_observation`: (1 + delta r) u, in that order, on the columns
    of the masked nodes (:attr:`ObservationMask.nodes`) as a C-contiguous (n_t + 1) x |nodes| array.

    Column j holds node j's draws in the documented order.  ``draws``, when given, starts with the
    draws of ``seed`` and the mask reads its prefix; otherwise the call draws them.
    """
    n = mask.nodes.size * u.shape[0]
    r = (splitmix64_uniform(seed, n) if draws is None else draws[:n]).reshape(mask.nodes.size, -1).T
    obs = np.multiply(r, delta, order="C")  # C order, as NormalOperator's products take a full grid's columns
    del r  # frees the call's own draws
    obs += 1.0
    obs *= np.take(u, mask.nodes, axis=1)  # (1 + delta r) u: the product commutes bitwise
    return obs


def run_reconstruction(cfg: ExperimentConfig) -> tuple[ReconstructionResult, Field, Field]:
    """Full pipeline without file output; returns (result, f_true, f0 field)."""
    return _reconstruct(cfg, build_problem(cfg)[2])


def _reconstruct(
    cfg: ExperimentConfig, mask: ObservationMask, draws=None
) -> tuple[ReconstructionResult, Field, Field]:
    """Synthesis and iteration on ``cfg``'s problem and ``mask``; see :func:`run_reconstruction`.

    The noise is drawn on the masked nodes' columns (:attr:`ObservationMask.nodes`) of the process's
    one u(f_true) (:attr:`_Problem.u`), the bits :func:`synthesize_observation` gives there;
    ``draws``, when given, starts with at least the run's draws of ``cfg.seed``.
    """
    problem = _problem_of(cfg)
    spec, f_true = problem.spec, Field(problem.spec.grid, problem.f_true)
    u_obs = _noisy_columns(problem.u.values, mask, cfg.delta, cfg.seed, draws)
    f0 = Field.constant(spec.grid, cfg.f0)
    rcfg = ReconstructionConfig(rho=cfg.rho, m=cfg.m, eps=cfg.eps, f0=f0, max_iter=cfg.max_iter)
    result = iterate(spec, u_obs, mask, rcfg, f_true=f_true)
    return result, f_true, f0


def _write_csv(path: str, header: list[str], rows, labelled: bool = False) -> None:
    """The one CSV writer: a header row, then ``rows``, with CRLF line ends.

    Number rows hold only cells that need no quoting and arrive joined, one
    str per row (:func:`_prefixes`), so they are joined by line ends and
    streamed to the file 8192 rows at a time.  ``labelled`` rows may hold an
    omega label with commas, which :mod:`csv` quotes.  Both paths give the
    bytes ``csv.writer`` gives.
    """
    with open(path, "w", newline="") as fh:
        if labelled:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        else:
            fh.write(",".join(header))
            rows = iter(rows)
            while chunk := list(islice(rows, 8192)):
                fh.write("\r\n")
                fh.write("\r\n".join(chunk))
            fh.write("\r\n")


def _fmt(x: float) -> str:
    return repr(float(x))


def _reprs(values) -> list[str]:
    """``_fmt`` of every value, formatted a column at a time."""
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def _node_reprs(grid: SpaceGrid, tgrid: TimeGrid | None = None):
    """The formatted [t,] x1[, x2] cells of each (time node,) space node, as row tuples.

    Each axis is formatted once and the rows are the product of the axes, the
    time nodes slowest, then the space nodes in the order of ``grid.coords``.
    """
    axes = ([tgrid.nodes] if tgrid is not None else []) + [grid.axis_nodes] * grid.dim
    return product(*map(_reprs, axes))


def _prefixes(cells):
    """Each row of ``cells`` joined, with the comma before one more cell."""
    return map(",".join, map(operator.add, cells, repeat(("",))))


def _axes(grid: SpaceGrid) -> list[str]:
    return [f"x{i + 1}" for i in range(grid.dim)]


def write_forward_csv(path: str, u: SpaceTimeField) -> None:
    """Dump ``u`` with one row per (time node, space node): t, x1[, x2], value."""
    _write_csv(
        path,
        ["t", *_axes(u.grid), "value"],
        map(operator.add, _prefixes(_node_reprs(u.grid, u.tgrid)), _reprs(u.values)),
    )


def _err_cell(result: ReconstructionResult) -> str:
    """Relative error in percent, or an empty cell for a diverged run."""
    if result.err is None or not result.converged or not math.isfinite(result.err):
        return ""
    return _fmt(100.0 * result.err)


def run_experiment(cfg: ExperimentConfig) -> ReconstructionResult:
    """Run one reconstruction and write profile, iteration-log and summary CSVs.

    Files land in ``cfg.outdir`` prefixed by the config label:
    ``<label>_profile.csv`` (coordinates, f_true, f_k), ``<label>_iterations.csv``
    (k, phi) and ``<label>_summary.csv`` with the fixed column order
    (delta, omega, err_percent, K).
    """
    spec, _, mask = build_problem(cfg)
    os.makedirs(cfg.outdir or ".", exist_ok=True)
    result, _, _ = _reconstruct(cfg, mask)
    tag = cfg.label or "run"
    _write_csv(
        os.path.join(cfg.outdir, f"{tag}_profile.csv"),
        [*_axes(spec.grid), "f_true", "f_k"],
        map(operator.add, _problem_of(cfg).profile_cells, _reprs(result.f_k.values)),
    )
    _write_csv(
        os.path.join(cfg.outdir, f"{tag}_iterations.csv"),
        ["k", "phi"],
        map("{},{}".format, count(), _reprs(result.phi_history)),
    )
    _write_csv(
        os.path.join(cfg.outdir, f"{tag}_summary.csv"),
        ["delta", "omega", "err_percent", "K"],
        [[_fmt(cfg.delta), _omega_boxes_and_label(cfg.omega)[1], _err_cell(result),
          result.iterations]],
        labelled=True,
    )
    return result


def run_table(table_id: int, seed: int = 0, outdir: str = "results", smoke: bool = False) -> str:
    """Run every row of a published table and write one summary CSV.

    Columns: delta, omega, err_percent, K, ref_err_percent, ref_K.  A row
    whose omega holds no grid cell at this resolution (``edges_0.025`` on the
    21-node smoke grid) is logged and written with empty err_percent and K.
    Returns the CSV path.
    """
    base = table_base_config(table_id, smoke=smoke)
    os.makedirs(outdir or ".", exist_ok=True)
    spec, _ = build_forward_problem(base)
    rows, runs = [], []
    for delta, omega, ref_err, ref_k in TABLE_ROWS[table_id]:
        eps = delta / 5.0 if table_id == 2 else base.eps
        cfg = replace(base, delta=delta, omega=omega, eps=eps, seed=seed)
        rows.append([_fmt(delta), _omega_boxes_and_label(omega)[1], "", "", _fmt(ref_err), ref_k])
        try:
            runs.append((rows[-1], cfg, build_mask(cfg, spec.grid)))
        except ValueError as exc:
            logger.warning("table %d row %s: not run: %s", table_id, rows[-1][1], exc)
    # the rows share the seed, so each row's draws are a prefix of one stream
    draws = splitmix64_uniform(seed, max((m.nodes.size for *_, m in runs), default=0) * (base.n_steps + 1))
    for row, cfg, mask in runs:
        result, _, _ = _reconstruct(cfg, mask, draws)
        row[2:4] = _err_cell(result), result.iterations
    name = f"table{table_id}_seed{seed}" + ("_smoke" if smoke else "") + ".csv"
    path = os.path.join(outdir, name)
    header = ["delta", "omega", "err_percent", "K", "ref_err_percent", "ref_K"]
    _write_csv(path, header, rows, labelled=True)
    return path
