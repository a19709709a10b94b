"""Record the reference outputs every benchmark op is checked against.

    python3 perfbench/record_reference.py [workload ...]

Runs each workload's op once for every noise seed of its pool, in one
process, and writes ``perfbench/reference/``. The committed references were
recorded from the seed code; re-record only when a change is meant to alter
the program's results, and say so where the change is described.
"""

from __future__ import annotations

import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from run import git_commit  # noqa: E402


def main(names: list[str]) -> None:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        outdir = tempfile.mkdtemp(prefix=f"record-{name}-", dir=work)
        try:
            setup = wl.setup(outdir)
            outputs = []
            for seed in workloads.pool_seeds(name, wl.pool_size):
                outputs.append(wl.run(seed, outdir))
                print(f"{name}: seed {seed} done", flush=True)
            wl.save_reference(outputs, setup)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
    provenance = workloads.REFERENCE_DIR / "provenance.json"
    info = json.loads(provenance.read_text()) if provenance.exists() else {}
    for name in names or list(workloads.WORKLOADS):
        info[name] = {"commit": git_commit(), "python": platform.python_version(),
                      "numpy": numpy.__version__, "scipy": scipy.__version__}
    provenance.write_text(json.dumps(info, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
