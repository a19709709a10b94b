"""Command-line interface: forward solves, reconstructions, tables, verification.

Every CSV is written by :mod:`fracsource.experiments` in ``repr`` format,
so identical configurations and seeds reproduce byte-identical files.
"""

from __future__ import annotations

import logging
import sys
from contextlib import contextmanager

import click

from .experiments import (
    EXPERIMENT_PRESETS,
    config_from_file,
    config_from_preset,
    build_forward_problem,
    run_experiment,
    run_table,
    write_forward_csv,
)
from .forward import solve_forward


def _collect_overrides(**kwargs) -> dict:
    return {k: v for k, v in kwargs.items() if v is not None}


@click.group()
@click.option("--verbose", is_flag=True, help="Log per-iteration progress.")
def main(verbose: bool) -> None:
    """Reconstruct source terms in time-fractional diffusion problems."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(name)s %(message)s",
    )


@contextmanager
def _usage_errors():
    """Report a ValueError from config validation or problem building, an
    OSError from writing the output, or a MemoryError from a problem too large
    for this machine, as a one-line error with exit status 1, not a traceback.
    Status 2 marks a reconstruction that did not converge (``status=max_iter`` or ``diverged``)
    and click's own parse errors, with usage text (``--preset bogus``, ``--m abc``, ``table --id 3``)."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc
    except MemoryError as exc:
        reason = str(exc) or "the problem is too large"
        raise click.ClickException(f"ran out of memory: {reason}") from exc


def _config(preset, config, overrides):
    if (preset is None) == (config is None):
        raise click.ClickException("provide exactly one of --preset and --config")
    if config is not None:
        return config_from_file(config, **overrides)
    return config_from_preset(preset, **overrides)


@main.command()
@click.option("--preset", type=click.Choice(sorted(EXPERIMENT_PRESETS)), default=None)
@click.option("--config", type=click.Path(exists=True), default=None, help="JSON config file.")
@click.option("--alpha", type=float, default=None)
@click.option("--n-per-axis", "n_per_axis", type=int, default=None)
@click.option("--n-steps", "n_steps", type=int, default=None)
@click.option("--out", type=click.Path(), default="u.csv", show_default=True)
def forward(preset, config, alpha, n_per_axis, n_steps, out):
    """Solve the forward problem for a preset's true source and dump u to CSV."""
    with _usage_errors():
        cfg = _config(preset, config, _collect_overrides(alpha=alpha, n_per_axis=n_per_axis, n_steps=n_steps))
        spec, f_true = build_forward_problem(cfg)
        write_forward_csv(out, solve_forward(spec, f_true))
    click.echo(f"wrote {out}")


@main.command()
@click.option("--preset", type=click.Choice(sorted(EXPERIMENT_PRESETS)), default=None)
@click.option("--config", type=click.Path(exists=True), default=None, help="JSON config file.")
@click.option("--seed", type=int, default=None)
@click.option("--delta", type=float, default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--m", type=float, default=None, help="Tuning constant M.")
@click.option("--eps", type=float, default=None)
@click.option("--rho", type=float, default=None)
@click.option("--max-iter", "max_iter", type=int, default=None)
@click.option("--outdir", type=click.Path(), default=None)
def reconstruct(preset, config, **kwargs):
    """Run one reconstruction experiment and write its CSV artifacts."""
    with _usage_errors():
        cfg = _config(preset, config, _collect_overrides(**kwargs))
        result = run_experiment(cfg)
    if result.err is None or not result.converged:
        err = "n/a"
    else:
        err = f"{100.0 * result.err:.2f}%"
    click.echo(f"K={result.iterations} err={err} status={result.status} -> {cfg.outdir}/")
    if not result.converged:
        sys.exit(2)


@main.command()
@click.option("--id", "table_id", type=click.Choice(["1", "2"]), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--outdir", type=click.Path(), default="results", show_default=True)
@click.option("--smoke", is_flag=True, help="Reduced 21-nodes-per-axis profile.")
def table(table_id, seed, outdir, smoke):
    """Run every row of a published table and write one summary CSV."""
    with _usage_errors():
        path = run_table(int(table_id), seed=seed, outdir=outdir, smoke=smoke)
    click.echo(f"wrote {path}")


@main.command()
def verify():
    """Run the oracle suite: special functions, convergence orders, adjoint pairing."""
    from .verification import run_all_checks  # only this command needs the checks

    results = run_all_checks()
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        click.echo(f"[{status}] {r.name}: {r.value:.3e} (bound {r.bound:.1e})")
        failed += not r.passed
    if failed:
        click.echo(f"{failed} check(s) failed")
        sys.exit(1)
    click.echo(f"all {len(results)} checks passed")


if __name__ == "__main__":
    main()
