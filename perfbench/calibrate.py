"""A fixed calibration kernel: how fast the host runs at this moment.

On a shared host the same op can take 1.8 times as long from one minute to
the next, in phases of 10 to 60 s, with CPU time moving with wall time. The
worker times this kernel before every op and after the last one, for about a
tenth of the previous op's time, and the gated op times are each op's wall
time divided by the mean of the two kernel times around it. The kernel does
a fixed amount of the kinds of work a reconstruction does (a sparse LU
factorisation, triangular solves, a weighted sum over past steps,
interpreted Python) and calls nothing in fracsource, so a change to the
program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

N_SIDE = 41  # the paper-size grid of recon2d
N_STEPS = 40
PYTHON_LOOP = 20000
REPEATS = 3  # one pass: about 0.05 s on the 2-core host of README.md


class Calibration:
    def __init__(self) -> None:
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(N_SIDE, N_SIDE))
        eye = sp.identity(N_SIDE)
        n = N_SIDE * N_SIDE
        self.matrix = (sp.kron(lap, eye) + sp.kron(eye, lap) + 0.5 * sp.identity(n)).tocsc()
        self.rhs = np.random.default_rng(0).standard_normal((N_STEPS, n))
        self.weights = 1.0 / np.arange(1, N_STEPS + 1) ** 0.5

    def measure(self, at_least_s: float) -> float:
        """Mean wall time of kernel passes run until ``at_least_s`` have passed (one at least)."""
        passes = [self.run()]
        while sum(passes) < at_least_s:
            passes.append(self.run())
        return sum(passes) / len(passes)

    def run(self) -> float:
        """Wall time of one pass of the kernel."""
        t0 = time.perf_counter()
        past = np.empty_like(self.rhs)
        for _ in range(REPEATS):
            lu = splu(self.matrix)
            for step in range(N_STEPS):
                memory = self.weights[:step][::-1] @ past[:step] if step else 0.0
                past[step] = lu.solve(self.rhs[step] - memory)
            total = 0
            for i in range(PYTHON_LOOP):
                total += i * i % 7
        return time.perf_counter() - t0
