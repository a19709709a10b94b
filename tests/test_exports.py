"""Every name a fracsource module exports must resolve, so a deletion cannot
leave a dangling entry in an ``__all__`` list, no module imports another
module's private names, and every attribute the benchmark's tracer wraps
exists."""

import ast
import importlib
import importlib.util
import pkgutil
import re
import subprocess
import sys
from functools import reduce
from pathlib import Path
from types import SimpleNamespace

import pytest

import fracsource

from conftest import subprocess_env

MODULES = ["fracsource"] + [
    f"fracsource.{info.name}" for info in pkgutil.iter_modules(fracsource.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ has duplicates"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"


SRC = Path(fracsource.__file__).parent


def readme_names() -> dict:
    """Backticked dotted names in README.md, keyed by name, with what each resolves to.

    Only names whose head is ``fracsource``, one of its modules or a name a
    module exports are taken (``forward.splu``, ``ProblemSpec.step_solver``);
    others, such as ``numpy.random``, are skipped.  An unresolved name maps to None.
    """
    heads = {"fracsource": fracsource}
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        heads[name.rpartition(".")[2]] = module
        heads.update({attr: getattr(module, attr) for attr in getattr(module, "__all__", [])})
    text = (SRC.parents[1] / "README.md").read_text()
    found = {}
    for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text):
        head, *rest = name.split(".")
        if head in heads:
            found[name] = reduce(lambda obj, attr: getattr(obj, attr, None), rest, heads[head])
    return found


def test_readme_names_resolve():
    # a deletion or rename must take README's references with it
    names = readme_names()
    assert names, "README.md names no fracsource attribute"
    stale = sorted(name for name, obj in names.items() if obj is None)
    assert not stale, f"README.md names attributes that do not exist: {stale}"


_ROLE_REFERENCE = re.compile(r":(?:attr|func|meth|class|data):`~?([A-Za-z_][\w.]*)`")


def _has_path(root, dotted: str) -> bool:
    """``dotted`` is a chain of attributes from ``root``; a dataclass field without a
    default, which is no class attribute, counts as one."""
    obj = root
    for part in dotted.split("."):
        if not hasattr(obj, part) and part not in getattr(obj, "__dataclass_fields__", {}):
            return False
        obj = getattr(obj, part, None)
    return True


def test_docstring_references_resolve():
    # a :attr:, :func:, :meth:, :class: or :data: reference resolves in its module, in a
    # class around it, or from the package, through a module (``forward.NormalOperator``)
    # or in full (``fracsource.forward.ProblemSpec``): a rename cannot leave a stale one
    package = SimpleNamespace(fracsource=fracsource)
    stale, count = [], 0
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        source = Path(module.__file__).read_text()
        classes = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]
        for lineno, line in enumerate(source.splitlines(), 1):
            for ref in _ROLE_REFERENCE.findall(line):
                around = [getattr(module, c.name, None) for c in classes if c.lineno <= lineno <= c.end_lineno]
                roots = [module, *filter(None, around), fracsource, package]
                count += 1
                if not any(_has_path(root, ref) for root in roots):
                    stale.append(f"{name}:{lineno}: {ref}")
    assert count > 50, count
    assert not stale, f"docstring references that resolve nowhere: {stale}"


def test_no_private_imports_across_modules():
    # a private name belongs to its module; a sibling that needs it should get
    # a public function instead
    private = [
        f"{path.name}: {node.module}.{alias.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"private names imported across modules: {private}"


def _walk_except(node: ast.AST, exempt, prefix: str = ""):
    """The nodes below ``node`` as ``ast.walk`` finds them, except the functions
    whose qualified name (``function`` or ``Class.method``) is in ``exempt``."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if name in exempt:
                continue
            name += "."
        yield child
        yield from _walk_except(child, exempt, name)


def _source_nodes(exempt: dict):
    """(file name, node) of every node in ``src``, but for the functions that
    ``exempt`` names by file."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _walk_except(tree, exempt.get(path.name, ())):
            yield path.name, node


def _names_dim(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "dim") or (
        isinstance(node, ast.Attribute) and node.attr == "dim"
    )


def _is_int_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int


def test_no_per_dimension_branches():
    # grid data are the tensor product of one axis, built by one rule for any
    # dim; only forward's hot axis transform and the reference LU's stencil
    # keep an explicit 1D/2D branch
    exempt = {"forward.py": {"_along_axes", "ProblemSpec.step_solver"}}
    branches = [
        f"{name}:{node.lineno}"
        for name, node in _source_nodes(exempt)
        if isinstance(node, ast.Compare)
        for op, left, right in zip(node.ops, [node.left, *node.comparators], node.comparators)
        if isinstance(op, (ast.Eq, ast.NotEq))
        and any(_names_dim(a) and _is_int_literal(b) for a, b in ((left, right), (right, left)))
    ]
    assert not branches, f"dim compared with an int literal: {branches}"


def test_bool_is_rejected_only_by_is_a():
    # "a number, not a bool" is stated once, by discretization.is_a; every
    # other numeric check calls it
    sites = [
        f"{name}:{node.lineno}"
        for name, node in _source_nodes({"discretization.py": {"is_a"}})
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and any(isinstance(arg, ast.Name) and arg.id == "bool" for arg in ast.walk(node))
    ]
    assert not sites, f"isinstance(..., bool) outside discretization.is_a: {sites}"


# Every BLAS product in src runs in forward's block rule (``_blocks``, whose
# products ``_matmul`` and the Gram plan run), in its dot rule (``dot_plan``)
# or in one of these functions, each beside its largest m k n at aim 1's
# scale-ups 81^2 x 80 and 41^2 x 400 (5.3a: r = 9, D = 845 distinct
# eigenvalues and 720 omega columns at 41^2 x 400), so a new unblocked
# product fails here, not only in the two-thread CLI test
_PRODUCT_RULES = {"forward.py": {"_blocks", "dot_plan"}}
_UNBLOCKED_PRODUCTS = {
    "forward.py": {
        "ProblemSpec.time_factor",  # a^T x, r x n_t x D: 9 x 400 x 845 = 3.0e6 (ROADMAP item 11)
        "_step_l1",  # the L1 history, 1 x (n_t - 1) x D: 399 x 845 = 3.4e5
        "NormalOperator.__init__",  # w_t @ res, 1 x (n_t + 1) x |omega|: 401 x 720 = 2.9e5
    },
    "inversion.py": {
        "estimate_m",  # q^T c, N x k x 1, k <= iters = 60: 6561 x 60 = 3.9e5 at 81^2
    },
    "fraccalc.py": {
        "linear_convolution",  # the oracle's Duhamel check and verify only: no reconstruction
        "caputo_l1",  # verify only: n_t-term dots of one time series
    },
}


def _is_product(node: ast.AST) -> bool:
    """An ``@``, or a numpy product named as ``np.<name>`` (called or not), or ``.dot``."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    return isinstance(node, ast.Attribute) and (
        node.attr == "dot"
        or (node.attr in {"matmul", "vdot", "vecdot", "inner"} and isinstance(node.value, ast.Name) and node.value.id == "np")
    )


def test_products_run_in_the_block_and_dot_rules():
    # OpenBLAS splits a product past 2^18 multiply-adds, or a dot past 10,000
    # terms, across threads, which can move the output bits
    exempt = {name: _PRODUCT_RULES.get(name, set()) | names for name, names in _UNBLOCKED_PRODUCTS.items()}
    sites = [f"{name}:{node.lineno}" for name, node in _source_nodes(exempt) if _is_product(node)]
    assert not sites, f"products outside forward's block and dot rules and the allowlist: {sites}"
    # the guard sees the products it exempts: each exempt function holds one
    stale = [f"{name}: {function}" for name, functions in exempt.items() for function in sorted(functions)
             if not any(map(_is_product, _function_nodes(name, function)))]
    assert not stale, f"exempt functions without a product: {stale}"


def _function_nodes(file_name: str, qualified: str):
    """The nodes inside the function ``qualified`` (``function`` or ``Class.method``) of ``file_name``."""
    node = ast.parse((SRC / file_name).read_text(), filename=file_name)
    for part in qualified.split("."):
        node = next(child for child in node.body if getattr(child, "name", None) == part)
    return ast.walk(node)


def _writes_output(node: ast.AST) -> bool:
    """``csv.writer``, or an ``open`` call with a mode that writes or that the
    source does not spell out as a literal."""
    if isinstance(node, ast.Attribute):
        return node.attr == "writer" and isinstance(node.value, ast.Name) and node.value.id == "csv"
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"):
        return False
    modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
    return any(
        not (isinstance(mode, ast.Constant) and isinstance(mode.value, str))
        or bool(set(mode.value) & set("wax+"))
        for mode in modes
    )


def test_every_output_file_is_written_by_write_csv():
    # experiments._write_csv is the one writer, so the CSV format, its CRLF
    # line ends and the choice of joined or quoted rows live in one place
    writer = {"experiments.py": {"_write_csv"}}
    elsewhere = [f"{name}:{node.lineno}" for name, node in _source_nodes(writer) if _writes_output(node)]
    assert not elsewhere, f"output written outside experiments._write_csv: {elsewhere}"
    # the guard sees the writer it exempts
    assert sum(_writes_output(node) for _, node in _source_nodes({})) == 2


def _functools_caches(tree: ast.AST):
    """(kind, node) of each name in ``tree`` for functools.cache or functools.lru_cache."""
    kinds = {"cache", "lru_cache"}
    local = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in kinds
    }
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "functools"
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in local:
            yield local[node.id], node
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in kinds
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            yield node.attr, node


def _has_literal_bound(call: ast.Call) -> bool:
    sizes = call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "maxsize"]
    return len(sizes) == 1 and _is_int_literal(sizes[0]) and sizes[0].value > 0


def test_process_caches_are_bounded():
    # a functools cache lives as long as the process, so each is an lru_cache
    # whose maxsize is a positive int literal: no cache, no maxsize=None and
    # no computed bound can let one grow peak RSS without bound
    found, unbounded = 0, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bounded = {
            id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call) and _has_literal_bound(node)
        }
        for kind, node in _functools_caches(tree):
            found += 1
            if kind != "lru_cache" or id(node) not in bounded:
                unbounded.append(f"{path.name}:{node.lineno}")
    assert not unbounded, f"functools caches without a literal positive maxsize: {unbounded}"
    # the guard sees the caches it checks: each problem's seed-free data
    # (spec, f_true, u(f_true), profile cells) and each omega's mask
    assert found == 2


def test_only_estimate_m_solves_in_inversion():
    # objective, gradient and iterate share one modal statement of Phi; only
    # estimate_m still runs the forward and adjoint solves, whose traced calls
    # the benchmark counts
    path = SRC / "inversion.py"
    solving = sorted(
        f"{node.name} -> {name.id}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name != "estimate_m"
        for name in ast.walk(node)
        if isinstance(name, ast.Name) and name.id in ("solve_forward", "solve_adjoint")
    )
    assert not solving, f"inversion functions other than estimate_m solve: {solving}"


def test_cli_import_leaves_scipy_special_unloaded(tmp_path):
    # nor do the commands load any scipy module: the solvers, the
    # reconstruction and the oracle suite need numpy and the stdlib only,
    # and fraccalc's 1/Gamma is math.gamma; scipy is the nodal reference
    # LU's, which no command builds
    env = subprocess_env()
    commands = [
        ["reconstruct", "--preset", "5.1a", "--outdir", str(tmp_path / "5.1a")],
        ["table", "--id", "2", "--smoke", "--outdir", str(tmp_path / "table")],
        ["verify"],
    ]
    code = f"""
import sys
import fracsource.cli

assert "scipy.special" not in sys.modules
for args in {commands!r}:
    fracsource.cli.main.main(args, standalone_mode=False)
print(" ".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-2].endswith(" checks passed"), proc.stdout
    assert lines[-1].split() == [], f"scipy modules loaded: {lines[-1]}"


def test_cli_import_leaves_verification_unloaded():
    # only the verify command needs the checks, and it imports them itself
    env = subprocess_env()
    code = "import sys, fracsource.cli; sys.exit('fracsource.verification' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_reconstruction_path_loads_no_scipy(tmp_path):
    # the modal solves, the norm estimate and the CSV output need numpy only;
    # scipy.sparse is for the nodal reference LU
    env = subprocess_env()
    code = f"""
import sys
import fracsource.cli
from fracsource.experiments import build_problem, config_from_preset, run_experiment
from fracsource.inversion import estimate_m

for preset in ("5.1a", "5.3a"):
    cfg = config_from_preset(preset, n_per_axis=21, outdir={str(tmp_path)!r}, label=preset)
    spec, _, mask = build_problem(cfg)
    estimate_m(spec, mask, iters=3)
    run_experiment(cfg)
print(" ".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [], f"scipy modules loaded: {proc.stdout}"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"{preset}_{kind}.csv"
        for preset in ("5.1a", "5.3a")
        for kind in ("iterations", "profile", "summary")
    ]


def test_oracle_path_loads_no_scipy():
    # the Mittag-Leffler kernels of the oracles are a contour sum in numpy
    env = subprocess_env()
    code = """
import math, sys
import numpy as np
from fracsource import Field, FractionalOrder, SpaceGrid, TimeGrid
from fracsource.oracle import PolynomialMu, duhamel_check, eigen_forward, modes_up_to

grid = SpaceGrid(1, 21)
tgrid = TimeGrid(1.0, 20)
alpha = FractionalOrder(0.5)
mu = PolynomialMu((1.0, 0.0, 10.0 * math.pi))
f = Field(grid, np.cos(math.pi * grid.coords[:, 0]))
eigen_forward(alpha, modes_up_to(1, 2), f, mu.sample(tgrid), tgrid)
duhamel_check(alpha, f, mu, tgrid, grid, refine=4)
print(" ".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [], f"scipy modules loaded: {proc.stdout}"


def test_reconstruction_path_leaves_numpy_random_unloaded(tmp_path):
    # the norm estimate starts from the package's SplitMix64 draws, as the
    # noise does, so a reconstruction never pays numpy.random's import
    env = subprocess_env()
    code = f"""
import sys
import fracsource.cli
from fracsource.experiments import build_problem, config_from_preset, run_experiment
from fracsource.inversion import estimate_m

cfg = config_from_preset("5.3a", n_per_axis=11, m=16.8, outdir={str(tmp_path)!r})
spec, _, mask = build_problem(cfg)
estimate_m(spec, mask, iters=60)
run_experiment(cfg)
sys.exit("numpy.random" in sys.modules)
"""
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _load_benchmark_tracer():
    """perfbench/spans.py, loaded from its file without changing it."""
    path = SRC.parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_benchmark_patch_points_resolve_and_trace(tmp_path):
    # the benchmark's tracer wraps these module attributes; a refactor that
    # renames one, or stops the traced solves from reaching the reference LU,
    # breaks `perfbench/run.py --trace 1`
    from fracsource import experiments, inversion

    tracer = _load_benchmark_tracer()()
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in tracer.patches()
        if not hasattr(module, attr)
    ]
    assert not missing, f"benchmark patch points missing: {missing}"
    cfg = experiments.config_from_preset(
        "5.3a", n_per_axis=11, n_steps=10, m=16.8, outdir=str(tmp_path)
    )
    with tracer.traced_op(0):
        spec, _, mask = experiments.build_problem(cfg)
        inversion.estimate_m(spec, mask, iters=5)
        experiments.run_experiment(cfg)
    metrics = tracer.op_metrics(0)
    assert metrics["forward.factor_calls"] >= 1
    assert metrics["inversion.estimate_m_calls"] == 1
