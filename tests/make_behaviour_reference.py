"""Regenerate tests/data/behaviour_reference.json, the recorded behaviour bar.

A change that keeps the program's behaviour keeps, on every case below and
every noise seed in SEEDS, the iteration count K and the stop status
exactly, and on a converged run the reconstruction f_K to 1e-12 relative
(tests/test_behaviour.py).  On a diverged run f_K is rounding amplified by
the top-mode factor^K at the bail-out, so only K and the status are kept.

The cases are the presets 5.1a, 5.1b, 5.3a and 5.3b at their pinned M,
5.3a at the stable M = 16.8 on the 41^2 x 40 and the 21^2 x 400 mesh, and
all 14 rows of tables 1 and 2 as ``run_table`` builds them.  f_K is stored
for the first seed at which a case converged.  The file names the commit
whose src/ produced it.

Run from the repository root, on a checkout whose src/ is committed:
    PYTHONPATH=src python tests/make_behaviour_reference.py
"""

import json
import pathlib
import subprocess
from dataclasses import replace

from fracsource import experiments
from fracsource.experiments import (
    TABLE_ROWS,
    build_problem,
    config_from_preset,
    table_base_config,
)

REFERENCE = pathlib.Path(__file__).parent / "data" / "behaviour_reference.json"
SEEDS = (0, 1, 2)
M_STABLE = 16.8


def cases() -> list:
    """(name, config at seed 0) of every recorded case."""
    out = [(name, config_from_preset(name)) for name in ("5.1a", "5.1b", "5.3a", "5.3b")]
    out.append(("5.3a m=16.8", config_from_preset("5.3a", m=M_STABLE)))
    out.append((
        "5.3a m=16.8 21^2x400",
        config_from_preset("5.3a", m=M_STABLE, n_per_axis=21, n_steps=400),
    ))
    for table_id, rows in TABLE_ROWS.items():
        base = table_base_config(table_id)
        for delta, omega, _, _ in rows:
            # run_table's eps rule: table 2 scales eps with the noise level
            eps = delta / 5.0 if table_id == 2 else base.eps
            cfg = replace(base, delta=delta, omega=omega, eps=eps)
            out.append((f"table{table_id} delta={delta!r} {omega}", cfg))
    return out


def record(seeds=SEEDS) -> dict:
    """name -> {"K", "status"} per seed, plus "f_seed" and "f" once converged.

    Each case runs on the mask ``build_problem`` builds, through the
    ``_reconstruct`` that ``run_experiment`` and ``run_table`` call.
    """
    recorded = {}
    for name, base in cases():
        mask = build_problem(base)[2]
        entry = {"K": [], "status": []}
        for seed in seeds:
            result, _, _ = experiments._reconstruct(replace(base, seed=seed), mask)
            entry["K"].append(result.iterations)
            entry["status"].append(result.status)
            if result.converged and "f" not in entry:
                entry["f_seed"] = seed
                entry["f"] = result.f_k.values.tolist()
        recorded[name] = entry
    return recorded


def main() -> None:
    root = pathlib.Path(__file__).resolve().parent.parent
    git = ["git", "-C", str(root)]
    if subprocess.run([*git, "status", "--porcelain", "--", "src"],
                      capture_output=True, text=True, check=True).stdout:
        raise SystemExit("src/ has uncommitted changes; record from a committed tree")
    commit = subprocess.run([*git, "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=True).stdout.strip()
    recorded = record()
    lines = [f' {json.dumps(name)}: {json.dumps(entry)}' for name, entry in recorded.items()]
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(
        f'{{"commit": {json.dumps(commit)}, "seeds": {json.dumps(list(SEEDS))}, "cases": {{\n'
        + ",\n".join(lines)
        + "\n}}\n"
    )
    for name, entry in recorded.items():
        print(f"{name}: K={entry['K']} status={entry['status']}")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
