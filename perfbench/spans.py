"""Spans and counts recorded around calls into fracsource's layers.

Tracing wraps public module attributes for the traced set-up and ops only,
so the program itself is unchanged and an untraced op runs no benchmark code
inside fracsource. Spans are kept in memory and summarised per op at the end.

A span is ``[name, start, end, parent index, op id]``. A layer's self time is
its span's duration minus the time its child spans cover; calls are nested on
one thread, so that is the sum of the direct children's durations.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from fracsource import experiments, forward, inversion

BYTES_PER_FLOAT = 8


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict = defaultdict(int)  # (op id, name) -> count
        self.op = None
        self._stack: list[int] = []
        self._lu_nnz: dict[int, int] = {}  # id(SuperLU) -> nnz(L) + nnz(U)

    def count(self, name: str, n: int) -> None:
        self.counts[(self.op, name)] += n

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _nnz(self, lu) -> int:
        if id(lu) not in self._lu_nnz:
            self._lu_nnz[id(lu)] = lu.L.nnz + lu.U.nnz
        return self._lu_nnz[id(lu)]

    # count hooks, run after the span has closed
    def _after_factor(self, args, lu) -> None:
        self._lu_nnz.pop(id(lu), None)  # a new factor may reuse a freed one's id
        self.count("forward.lu_nnz", self._nnz(lu))

    def _after_solve(self, args, result) -> None:
        spec = args[0]
        n_nodes, n_t = spec.grid.n_nodes, spec.tgrid.n_steps
        # every step solves with L then U: one multiply-add per stored entry
        self.count("forward.trisolve_flops", 2 * n_t * self._nnz(spec.step_solver))
        # step n sums n-1 history differences of N values: N n_t (n_t - 1) flops
        history = n_nodes * n_t * (n_t - 1)
        self.count("forward.history_flops", history)
        self.count("forward.history_bytes", BYTES_PER_FLOAT * history // 2)

    def _after_synthesize(self, args, result) -> None:
        spec, _, mask = args[:3]
        n_observed = int((mask.indicator != 0.0).sum())
        self.count("experiments.noise_draws", n_observed * (spec.tgrid.n_steps + 1))

    def _after_iterate(self, args, result) -> None:
        self.count("inversion.iterations", result.iterations)
        if not result.converged and result.iterations < args[3].max_iter:
            self.count("inversion.diverged_iterations", result.iterations)

    def patches(self):
        """(module, attribute, span name, count hook) for each traced call."""
        return [
            (experiments, "run_experiment", "experiments.run", None),
            (experiments, "run_table", "experiments.run", None),
            (experiments, "build_problem", "experiments.build_problem", None),
            (experiments, "synthesize_observation", "experiments.synthesize", self._after_synthesize),
            (experiments, "iterate", "inversion.iterate", self._after_iterate),
            (experiments, "solve_forward", "forward.solve", self._after_solve),
            (inversion, "solve_forward", "forward.solve", self._after_solve),
            (inversion, "solve_adjoint", "adjoint.solve", self._after_solve),
            (forward, "splu", "forward.factor", self._after_factor),
            (inversion, "estimate_m", "inversion.estimate_m", None),
        ]

    @contextmanager
    def traced_op(self, op_id: int):
        """Trace everything fracsource does inside the block as op ``op_id``."""
        saved = []
        self.op = op_id
        try:
            for module, attr, name, after in self.patches():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, after))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self.op = None

    def op_metrics(self, op_id: int) -> dict:
        """Per-layer metrics of one traced op."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == op_id]
        child_time: dict[int, float] = defaultdict(float)
        for _, s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, s in spans:
            duration = s[2] - s[1]
            total[s[0]] += duration
            self_time[s[0]] += duration - child_time[i]
            calls[s[0]] += 1
        count = {name: n for (op, name), n in self.counts.items() if op == op_id}
        iterations = count.get("inversion.iterations", 0)
        return {
            "inversion.estimate_m_s": total["inversion.estimate_m"],
            "inversion.estimate_m_calls": calls["inversion.estimate_m"],
            "experiments.build_problem_s": self_time["experiments.build_problem"],
            "experiments.build_problem_calls": calls["experiments.build_problem"],
            "forward.factor_s": self_time["forward.factor"],
            "forward.factor_calls": calls["forward.factor"],
            "forward.lu_nnz": count.get("forward.lu_nnz", 0),
            "forward.solve_s": self_time["forward.solve"],
            "forward.solve_calls": calls["forward.solve"],
            "adjoint.solve_s": self_time["adjoint.solve"],
            "adjoint.solve_calls": calls["adjoint.solve"],
            "forward.trisolve_flops": count.get("forward.trisolve_flops", 0),
            "forward.history_flops": count.get("forward.history_flops", 0),
            "forward.history_bytes": count.get("forward.history_bytes", 0),
            "experiments.synthesize_s": self_time["experiments.synthesize"],
            "experiments.noise_draws": count.get("experiments.noise_draws", 0),
            "inversion.iterate_s": total["inversion.iterate"],
            "inversion.iterate_self_s": self_time["inversion.iterate"],
            "inversion.iterations": iterations,
            "inversion.diverged_iter_frac": (
                count.get("inversion.diverged_iterations", 0) / iterations if iterations else 0.0
            ),
            "experiments.self_s": self_time["experiments.run"],
        }
