import csv
import io
import json
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracsource import experiments, forward, solve_forward
from fracsource import discretization
from fracsource.discretization import Field, ObservationMask, SpaceGrid, SpaceTimeField, TimeGrid, splitmix64_uniform
from fracsource.experiments import (
    EXPERIMENT_PRESETS,
    ExperimentConfig,
    OMEGA_PRESETS,
    TABLE_ROWS,
    build_problem,
    config_from_file,
    config_from_preset,
    run_experiment,
    run_reconstruction,
    run_table,
    splitmix64,
    synthesize_observation,
    table_base_config,
    write_forward_csv,
)
from fracsource.forward import NormalOperator
from fracsource.inversion import ReconstructionConfig, iterate

_MASK64 = (1 << 64) - 1


_PROCESS_CACHES = (experiments._problem, experiments._mask)


def _clear_process_caches() -> None:
    for cache in _PROCESS_CACHES:
        cache.cache_clear()


def _traced(call):
    """((bytes still traced after ``call()``, peak bytes traced during it), its result); numpy
    traces its buffers, and what the result holds is still traced."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory(), result
    finally:
        tracemalloc.stop()


def _peak_traced(call):
    """(peak bytes that ``tracemalloc`` traced during ``call()``, its result)."""
    (_, peak), result = _traced(call)
    return peak, result


class SplitMix64:
    """Scalar SplitMix64 generator, the reference for the vectorised one.

    state <- state + 0x9E3779B97F4A7C15; the output mix is
    z = state; z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB; return z ^ (z >> 31).
    Uniform doubles use the top 53 bits divided by 2^53.
    """

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_uint64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_uint64() >> 11) * 2.0**-53


class TestSplitMix64:
    def test_known_sequence_from_seed_zero(self):
        # reference outputs of SplitMix64 (seed 0), used across language
        # implementations of the generator
        assert [int(z) for z in splitmix64(0, 3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    @pytest.mark.parametrize("seed", [0, 123, 2**63 + 5, 2**64 - 1])
    def test_matches_scalar_reference(self, seed):
        rng = SplitMix64(seed)
        expected = [rng.next_uint64() for _ in range(1000)]
        draws = splitmix64(seed, 1000)
        assert draws.dtype == np.uint64
        assert [int(z) for z in draws] == expected

    def test_uniform_range_and_determinism(self):
        rng = SplitMix64(123)
        expected = [rng.uniform() for _ in range(1000)]
        u = (splitmix64(123, 1000) >> np.uint64(11)).astype(float) * 2.0**-53
        assert u.tolist() == expected
        assert np.array_equal(splitmix64(123, 1000), splitmix64(123, 1000))
        assert np.all((0.0 <= u) & (u < 1.0))

    def test_one_generator_below_noise_and_estimate(self):
        # the noise and the norm estimate's start vector share the generator
        # and its [-1, 1) mapping, which lives below both in discretization
        assert experiments.splitmix64 is discretization.splitmix64
        rng = SplitMix64(2**63 + 5)
        expected = [2.0 * rng.uniform() - 1.0 for _ in range(1000)]
        r = splitmix64_uniform(2**63 + 5, 1000)
        assert r.tolist() == expected
        assert np.all((-1.0 <= r) & (r < 1.0))

    @pytest.mark.parametrize("seed", [0, 123, 2**64 - 1])
    def test_shorter_stream_is_a_prefix(self, seed):
        # a table's rows share a seed, so each row reads a prefix of one stream
        longest = splitmix64_uniform(seed, 1000)
        for k in (0, 1, 517, 1000):
            assert longest[:k].tobytes() == splitmix64_uniform(seed, k).tobytes()

    def test_observation_matches_scalar_draw_order(self):
        # masked nodes by ascending flat index, all time nodes per node
        cfg = config_from_preset("5.1a", n_steps=10)
        spec, f_true, mask = build_problem(cfg)
        obs = synthesize_observation(spec, f_true, mask, 0.02, seed=7)
        u = solve_forward(spec, f_true).values
        expected = np.zeros_like(u)
        rng = SplitMix64(7)
        for idx in np.flatnonzero(mask.indicator):
            for n in range(spec.tgrid.n_steps + 1):
                expected[n, idx] = (1.0 + 0.02 * (2.0 * rng.uniform() - 1.0)) * u[n, idx]
        assert np.array_equal(obs.values, expected)


class TestConfig:
    def test_presets_exist(self):
        assert set(EXPERIMENT_PRESETS) == {"5.1a", "5.1b", "5.3a", "5.3b"}
        cfg = config_from_preset("5.1a", seed=3)
        assert cfg.alpha == 0.3
        assert cfg.m == 2.0
        assert cfg.seed == 3
        assert cfg.rho == 1e-5
        assert cfg.f0 == 2.0

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            config_from_preset("5.1a", delta=-0.1)
        with pytest.raises(ValueError):
            config_from_preset("nope")
        with pytest.raises(ValueError):
            config_from_preset("5.1a", omega="not_a_preset")
        with pytest.raises(ValueError):
            config_from_preset("5.1a", omega=[[[0.0, 1.5]]])
        with pytest.raises(ValueError):
            config_from_preset("5.3a", omega=[[[0.0, 0.1]]])  # 1 interval, dim 2
        # a preset's boxes get the same checks as literal ones
        with pytest.raises(ValueError, match="1-D"):
            config_from_preset("5.1a", omega="frame_0.1_0.9")
        with pytest.raises(ValueError, match="2-D"):
            config_from_preset("5.3a", omega="edges_0.05")
        with pytest.raises(ValueError):
            config_from_preset("5.1a", alpha=1.5)
        # an f_true preset of the other dimension
        with pytest.raises(ValueError, match="'sin_plus_linear' is 1-D, but dim is 2"):
            config_from_preset("5.1a", dim=2, omega="frame_0.1_0.9")
        with pytest.raises(ValueError, match="'plane_2d' is 2-D, but dim is 1"):
            config_from_preset("5.3a", dim=1, omega="edges_0.05")
        # a label is a file-name stem inside outdir, never a path
        for label in ("/abs/dir/escaped", "sub/run", f"sub{os.sep}run", ".", ".."):
            with pytest.raises(ValueError, match="plain file-name stem"):
                config_from_preset("5.1a", label=label)
        if os.altsep:
            with pytest.raises(ValueError, match="plain file-name stem"):
                config_from_preset("5.1a", label=f"sub{os.altsep}run")
        assert config_from_preset("5.1a", label="run.v2").label == "run.v2"
        # the fields no library type owns are checked by the config itself
        for bad in (
            {"delta": float("inf")}, {"delta": True}, {"f0": "2"}, {"f0": float("nan")},
            {"seed": 1.5}, {"seed": True}, {"outdir": 3},
        ):
            with pytest.raises(ValueError, match=next(iter(bad))):
                config_from_preset("5.1a", **bad)
        # configs that cannot run fail when built, before any output directory
        outdir = tmp_path / "out"
        # ExperimentConfig builds the types that check these fields
        for bad in (
            {"max_iter": 0}, {"dim": 3}, {"n_per_axis": 2}, {"n_steps": 0},
            {"T": 0.0}, {"alpha": 1.0}, {"m": -1.0}, {"rho": True}, {"eps": float("nan")},
            {"max_iter": 2.5}, {"n_per_axis": 21.0},
        ):
            with pytest.raises(ValueError):
                run_experiment(config_from_preset("5.1a", outdir=str(outdir), **bad))
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "bad", [{"dim": True}, {"n_per_axis": 41.0}, {"n_steps": 40.0}, {"alpha": [0.3]}, {"T": [1.0]}]
    )
    def test_values_a_cached_problem_does_not_vouch_for(self, bad):
        # 5.1a's problem is cached; a value equal to its key's but of another
        # type, or an unhashable one, is still checked by the type it builds
        config_from_preset("5.1a")
        with pytest.raises(ValueError):
            config_from_preset("5.1a", **bad)

    def test_every_omega_preset_passes_check_boxes(self):
        # a config checks a preset's name and, by its first box, its dimension;
        # the rest of the format holds for every preset here
        for name, preset in OMEGA_PRESETS.items():
            dim = len(preset["boxes"][0])
            ObservationMask.check_boxes(preset["boxes"], dim)
            with pytest.raises(ValueError, match=f"omega must be a list of {3 - dim}-D boxes"):
                ObservationMask.check_boxes(preset["boxes"], 3 - dim)

    def test_making_a_config_allocates_no_node_array(self):
        # the config checks its scalars by ReconstructionConfig's rules without
        # building an f0 field, and a preset omega without walking its boxes
        base = table_base_config(2)
        grid = experiments._problem_of(base).spec.grid
        peak, cfg = _peak_traced(lambda: replace(base, delta=0.01, omega="frame_0.1_0.8", eps=0.002, seed=1))
        assert cfg.omega == "frame_0.1_0.8"
        assert peak < 8 * grid.n_nodes, peak
        # an f0 too large for a float is refused when the config is made
        with pytest.raises(ValueError, match="f0 must be a finite number"):
            replace(base, f0=10**400)
        for bad in ({"rho": 0.0}, {"m": float("inf")}, {"eps": "1e-3"}, {"max_iter": 0}):
            with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be"):
                replace(base, **bad)

    def test_f_true_expression(self):
        cfg = config_from_preset("5.1a", f_true="sin(pi*x1) + x1 - 3", n_steps=10)
        _, f_expr, _ = build_problem(cfg)
        _, f_preset, _ = build_problem(config_from_preset("5.1a", n_steps=10))
        assert np.allclose(f_expr.values, f_preset.values, rtol=1e-15)
        # every allowed operator and function, in 2D
        cfg = config_from_preset("5.3a", f_true="-x1**2 / 2 + exp(+x2) - cos(pi) * 1e-3")
        _, f, _ = build_problem(cfg)
        x1, x2 = f.grid.coords.T
        assert_allclose(f.values, -x1**2 / 2 + np.exp(x2) + 1e-3, rtol=1e-15)
        # configs on one grid share one read-only sample array
        assert build_problem(cfg)[1].values is f.values and not f.values.flags.writeable
        with pytest.raises(ValueError):
            config_from_preset("5.1a", f_true="__import__('os')")
        with pytest.raises(ValueError, match="cannot be evaluated"):
            config_from_preset("5.1a", f_true="sin(pi*x1")

    @pytest.mark.parametrize(
        "expr",
        [
            # the lambda body is a nested code object that reaches object.__subclasses__
            "(lambda: ().__class__.__base__.__subclasses__().__len__())() + 0*x1",
            "x1.__class__",
            "sin(x1)[0]",
            "[x1 for x1 in (1, 2)][0] + x1",
            "x2 + x1",  # x2 is not a coordinate in 1D
            "abs(x1)",
            "sin(x=x1)",
            "x1 if x1 else 1",
            "'a' * 2",
        ],
    )
    def test_f_true_expression_rejects_non_arithmetic(self, expr):
        with pytest.raises(ValueError):
            config_from_preset("5.1a", f_true=expr)

    def test_omega_boxes_literal(self):
        cfg = config_from_preset("5.1a", omega=[[[0.0, 0.05]], [[0.95, 1.0]]])
        _, _, mask_boxes = build_problem(cfg)
        _, _, mask_preset = build_problem(config_from_preset("5.1a"))
        assert np.array_equal(mask_boxes.indicator, mask_preset.indicator)

    def test_config_file_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "5.1b", "delta": 0.01}))
        cfg = config_from_file(str(path), seed=9)
        assert cfg.alpha == 0.5
        assert cfg.delta == 0.01
        assert cfg.seed == 9

    def test_config_file_flat_schema(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "dim": 1, "alpha": 0.8, "f_true": "half_sine_quadratic",
                    "omega": "edges_0.05", "delta": 0.005, "m": 1.0, "eps": 1e-3,
                }
            )
        )
        cfg = config_from_file(str(path))
        assert cfg.n_per_axis == 41 and cfg.n_steps == 40

    def test_table_base_configs(self):
        t1 = table_base_config(1)
        assert (t1.alpha, t1.m, t1.dim) == (0.8, 1.0, 1)
        t2 = table_base_config(2, smoke=True)
        assert t2.n_per_axis == 21 and t2.dim == 2
        with pytest.raises(ValueError):
            table_base_config(3)


class TestSynthesizeObservation:
    def test_noise_free_masks_exactly(self):
        cfg = config_from_preset("5.1a", delta=0.0)
        spec, f_true, mask = build_problem(cfg)
        obs = synthesize_observation(spec, f_true, mask, 0.0, seed=0)
        u = solve_forward(spec, f_true)
        assert np.array_equal(obs.values, u.values * mask.indicator[None, :])

    def test_seeded_determinism_bitwise(self):
        cfg = config_from_preset("5.1a")
        spec, f_true, mask = build_problem(cfg)
        a = synthesize_observation(spec, f_true, mask, 0.02, seed=7)
        b = synthesize_observation(spec, f_true, mask, 0.02, seed=7)
        assert np.array_equal(a.values, b.values)
        c = synthesize_observation(spec, f_true, mask, 0.02, seed=8)
        assert not np.array_equal(a.values, c.values)

    def test_relative_perturbation_bounded(self):
        cfg = config_from_preset("5.1b")
        spec, f_true, mask = build_problem(cfg)
        delta = 0.04
        obs = synthesize_observation(spec, f_true, mask, delta, seed=1)
        u = solve_forward(spec, f_true)
        inside = mask.indicator == 1.0
        uu = u.values[:, inside]
        oo = obs.values[:, inside]
        nz = uu != 0.0
        assert np.max(np.abs(oo[nz] / uu[nz] - 1.0)) <= delta
        outside = mask.indicator == 0.0
        assert np.all(obs.values[:, outside] == 0.0)

    def test_isolated_node_keeps_its_place_in_the_draw_order(self):
        # the node at 0.5 is masked but in no grid cell, so it carries no weight and
        # omega's columns skip it; its draws stay in the stream, and the warm run's
        # columns and result are the public path's bits
        cfg = config_from_preset("5.1a", omega=[[[0.0, 0.1]], [[0.5, 0.5]], [[0.9, 1.0]]], n_steps=10, seed=7)
        spec, f_true, mask = build_problem(cfg)
        active, cols = np.flatnonzero(mask.indicator), mask.weighted_nodes
        assert 20 in active and 20 not in cols and cols.size == active.size - 1
        u = solve_forward(spec, f_true).values
        expected = np.zeros_like(u)
        rng = SplitMix64(7)
        for idx in active:
            for n in range(spec.tgrid.n_steps + 1):
                expected[n, idx] = (1.0 + 0.02 * (2.0 * rng.uniform() - 1.0)) * u[n, idx]
        assert np.array_equal(synthesize_observation(spec, f_true, mask, 0.02, 7).values, expected)
        for draws in (None, splitmix64_uniform(7, 1000)):
            block = experiments._noisy_columns(u, mask, cols, 0.02, 7, draws)
            assert block.flags.c_contiguous and np.array_equal(block, expected[:, cols])
        _assert_same_run(run_reconstruction(cfg)[0], _public_run(cfg))

    def test_row_setup_allocates_no_space_time_array(self):
        # a warm table row draws its noise on omega's columns and hands that block,
        # (n_t + 1) x |omega|, to NormalOperator: the noise holds two such arrays
        # (the noise and u's columns), the constructor one beyond what it keeps (the
        # residual) and (r - q) x N tail products; O(N) slack covers index arrays.
        # with a full-grid observation the row held 2 and 1.65 (n_t + 1) x N arrays here
        base = table_base_config(2)
        spec, f_true = experiments.build_forward_problem(base)
        u = experiments._problem_of(base).u.values
        masks = [experiments.build_mask(replace(base, omega=omega), spec.grid) for _, omega, _, _ in TABLE_ROWS[2]]
        draws = splitmix64_uniform(1, max(mask.n_active for mask in masks) * u.shape[0])
        tail = 8 * (spec.time_factor[1].shape[0] - spec.normal_rank) * spec.grid.n_nodes
        for (delta, omega, _, _), mask in zip(TABLE_ROWS[2], masks):
            noise_peak, block = _peak_traced(
                lambda: experiments._noisy_columns(u, mask, mask.weighted_nodes, delta, 1, draws)
            )
            assert block.shape == (u.shape[0], mask.weighted_nodes.size)
            NormalOperator(spec, mask, block, f_true)  # builds the spec's and mask's cached data
            (kept, peak), _ = _traced(lambda: NormalOperator(spec, mask, block, f_true))
            slack = 16 * spec.grid.n_nodes
            assert noise_peak <= 2 * block.nbytes + slack, (omega, noise_peak / block.nbytes)
            assert peak - kept <= block.nbytes + tail + slack, (omega, (peak - kept) / block.nbytes)

    def test_warm_run_allocates_no_space_time_array(self, tmp_path):
        # at 41^2 x 400 every array of a warm 5.3a run but the observation and the
        # residual on omega's columns (720 of 1,681) is small beside u, so a peak
        # under u's bytes shows that the run, CSVs included, allocates no
        # (n_t + 1) x N array (one that builds the full-grid observation peaks at 1.9 u)
        cfg = config_from_preset("5.3a", n_steps=400, m=16.8, outdir=str(tmp_path))
        run_experiment(cfg)
        u = experiments._problem_of(cfg).u.values
        peak, _ = _peak_traced(lambda: run_experiment(cfg))
        assert peak < u.nbytes, peak / u.nbytes


def _public_run(cfg):
    """``cfg``'s run by the public path: a full-grid observation, then ``iterate``."""
    spec, f_true, mask = build_problem(cfg)
    u_obs = synthesize_observation(spec, f_true, mask, cfg.delta, cfg.seed)
    rcfg = ReconstructionConfig(cfg.rho, cfg.m, cfg.eps, Field.constant(spec.grid, cfg.f0), cfg.max_iter)
    return iterate(spec, u_obs, mask, rcfg, f_true=f_true)


def _assert_same_run(a, b) -> None:
    assert (a.iterations, a.status) == (b.iterations, b.status)
    assert a.f_k.values.tobytes() == b.f_k.values.tobytes()
    assert np.array(a.phi_history).tobytes() == np.array(b.phi_history).tobytes()


class TestWarmPathIsThePublicPath:
    """The runners draw on omega's columns of a shared u; synthesize_observation
    and iterate give the same bits through a full-grid observation."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("preset", sorted(EXPERIMENT_PRESETS))
    def test_presets(self, preset, seed):
        cfg = config_from_preset(preset, seed=seed)
        _assert_same_run(run_reconstruction(cfg)[0], _public_run(cfg))

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("table_id", [1, 2])
    def test_table_rows(self, table_id, seed, tmp_path, monkeypatch):
        # every row's run inside run_table, through the module's iterate, as a tracer sees it
        runs = []
        monkeypatch.setattr(experiments, "iterate", lambda *args, **kw: runs.append(args) or iterate(*args, **kw))
        run_table(table_id, seed=seed, outdir=str(tmp_path))
        base = table_base_config(table_id)
        assert len(runs) == len(TABLE_ROWS[table_id])
        for (delta, omega, _, _), (spec, u_obs, mask, rcfg) in zip(TABLE_ROWS[table_id], runs):
            assert u_obs.shape == (spec.tgrid.n_steps + 1, mask.weighted_nodes.size)
            cfg = replace(base, delta=delta, omega=omega, eps=rcfg.eps, seed=seed)
            _, f_true, _ = build_problem(cfg)
            _assert_same_run(iterate(spec, u_obs, mask, rcfg, f_true=f_true), _public_run(cfg))


class TestMasksFromPresets:
    def test_edge_counts(self):
        cfg = config_from_preset("5.1a")
        _, _, mask = build_problem(cfg)
        assert mask.n_active == 6
        assert_allclose(mask.quad_weights.sum(), 0.1, rtol=1e-12)

    def test_frame_counts(self):
        # closed edge bands include the ring of nodes at 0.1 and 0.9
        cfg = config_from_preset("5.3a")
        _, _, mask = build_problem(cfg)
        assert mask.n_active == 41 * 41 - 31 * 31
        assert_allclose(mask.quad_weights.sum(), 1.0 - 0.8**2, rtol=1e-10)


class TestRunners:
    def test_run_experiment_writes_artifacts(self, tmp_path):
        cfg = config_from_preset(
            "5.1a", outdir=str(tmp_path), n_per_axis=21, n_steps=10,
            m=4.0, eps=5e-3, max_iter=200,
        )
        result = run_experiment(cfg)
        assert result.converged
        profile = (tmp_path / "5.1a_profile.csv").read_text().splitlines()
        assert profile[0] == "x1,f_true,f_k"
        assert len(profile) == 22
        iterations = (tmp_path / "5.1a_iterations.csv").read_text().splitlines()
        assert iterations[0] == "k,phi"
        assert len(iterations) == len(result.phi_history) + 1
        summary = (tmp_path / "5.1a_summary.csv").read_text().splitlines()
        assert summary[0] == "delta,omega,err_percent,K"
        fields = summary[1].split(",")
        assert fields[0] == "0.02"
        assert int(fields[-1]) == result.iterations

    def test_run_table_smoke_writes_rows(self, tmp_path, caplog):
        path = run_table(1, seed=0, outdir=str(tmp_path), smoke=True)
        rows = open(path).read().splitlines()
        assert rows[0] == "delta,omega,err_percent,K,ref_err_percent,ref_K"
        assert len(rows) == 8
        # omega (0,0.025)u(0.975,1) holds no grid cell on 21 nodes: not run
        assert rows[7] == '0.02,"(0,0.025)u(0.975,1)",,,9.89,79'
        assert any("(0,0.025)u(0.975,1)" in r.getMessage() for r in caplog.records)

    def test_run_table_builds_one_forward_problem(self, tmp_path, monkeypatch):
        # one spec and one u(f_true) per table; each row draws its own noise on it
        calls = {"build_forward_problem": 0, "solve_forward": 0}

        def counting(name):
            original = getattr(experiments, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(experiments, name, counted)

        for name in calls:
            counting(name)
        _clear_process_caches()
        path = run_table(2, seed=0, outdir=str(tmp_path), smoke=True)
        assert calls == {"build_forward_problem": 1, "solve_forward": 1}
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["omega"] for r in rows] == [OMEGA_PRESETS[o]["label"] for _, o, _, _ in TABLE_ROWS[2]]
        assert all(r["K"] for r in rows)

    @pytest.mark.parametrize(
        "run",
        [
            lambda outdir: run_table(2, outdir=outdir, smoke=True),
            lambda outdir: run_experiment(config_from_preset("5.1a", outdir=outdir)),
        ],
        ids=["table", "experiment"],
    )
    def test_unwritable_outdir_fails_before_iterating(self, tmp_path, monkeypatch, run):
        def fail(*args, **kwargs):
            raise AssertionError("iterate ran before the output directory was made")

        monkeypatch.setattr(experiments, "iterate", fail)
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(OSError):
            run(str(blocker / "x"))

    def test_reconstruction_reproducible(self):
        cfg = config_from_preset("5.1a", n_per_axis=21, n_steps=10, m=4.0, eps=1e-2)
        r1, _, _ = run_reconstruction(cfg)
        r2, _, _ = run_reconstruction(cfg)
        assert np.array_equal(r1.f_k.values, r2.f_k.values)
        assert r1.iterations == r2.iterations


def _count_mask_builds(monkeypatch) -> list:
    """Record the grid of every ``ObservationMask.from_boxes`` call; returns the record."""
    built = []
    original = discretization.ObservationMask.from_boxes

    def counted(cls, grid, boxes):
        built.append(grid)
        return original(grid, boxes)

    monkeypatch.setattr(discretization.ObservationMask, "from_boxes", classmethod(counted))
    return built


def _count_solves(monkeypatch) -> list:
    """Record every call of ``experiments.solve_forward``; returns the record."""
    solved = []
    original = experiments.solve_forward

    def counted(spec, f):
        solved.append(spec)
        return original(spec, f)

    monkeypatch.setattr(experiments, "solve_forward", counted)
    return solved


def _read_dir(path) -> dict:
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


class TestProcessCaches:
    """Each problem's seed-free data is built once per process and shared read-only."""

    def _cfg(self, outdir, seed):
        return config_from_preset("5.3a", n_per_axis=21, m=16.8, seed=seed, outdir=str(outdir))

    def test_second_experiment_solves_and_builds_nothing(self, tmp_path, monkeypatch):
        _clear_process_caches()
        solved, built = _count_solves(monkeypatch), _count_mask_builds(monkeypatch)
        run_experiment(self._cfg(tmp_path, 1))
        assert (len(solved), len(built)) == (1, 1)
        run_experiment(self._cfg(tmp_path, 2))
        assert (len(solved), len(built)) == (1, 1)

    def test_second_experiment_computes_no_modes(self, tmp_path, monkeypatch):
        # one spec per problem, and each mask built on its grid: a warm run
        # computes no 1D modes, for the transforms or the masks' Gram matrices
        _clear_process_caches()
        computed = []
        modes = SpaceGrid.axis_modes.func
        monkeypatch.setattr(SpaceGrid.axis_modes, "func", lambda grid: computed.append(grid) or modes(grid))
        spec, _, mask = build_problem(self._cfg(tmp_path, 1))
        assert mask.grid is spec.grid
        run_experiment(self._cfg(tmp_path, 1))
        assert len(computed) == 1 and computed[0] is spec.grid
        run_experiment(self._cfg(tmp_path, 2))
        assert len(computed) == 1

    def test_table_draws_one_noise_stream(self, tmp_path, monkeypatch):
        # the rows share the seed, so the longest row's stream serves every row
        drawn = []
        original = experiments.splitmix64_uniform
        monkeypatch.setattr(
            experiments, "splitmix64_uniform", lambda seed, n: drawn.append(n) or original(seed, n)
        )
        run_table(2, seed=0, outdir=str(tmp_path), smoke=True)
        masks = [build_problem(replace(table_base_config(2, smoke=True), omega=o))[2] for _, o, _, _ in TABLE_ROWS[2]]
        assert drawn == [max(mask.n_active for mask in masks) * 41]

    def test_tables_at_two_seeds_solve_once_and_build_each_omega_once(self, tmp_path, monkeypatch):
        _clear_process_caches()
        solved, built = _count_solves(monkeypatch), _count_mask_builds(monkeypatch)
        run_table(2, seed=0, outdir=str(tmp_path), smoke=True)
        run_table(2, seed=1, outdir=str(tmp_path), smoke=True)
        assert len(solved) == 1
        assert len(built) == len({omega for _, omega, _, _ in TABLE_ROWS[2]}) == 4

    def test_omega_boxes_share_one_mask(self):
        # a list of boxes keys the cache as nested tuples, so equal boxes share a mask
        boxes = [[[0.0, 0.1], [0.0, 1.0]], [[0.9, 1.0], [0.0, 1.0]]]
        cfg = replace(config_from_preset("5.3a"), omega=boxes)
        _, _, mask = build_problem(cfg)
        _, _, again = build_problem(replace(cfg, omega=[tuple(map(tuple, box)) for box in boxes]))
        assert again is mask
        assert build_problem(config_from_preset("5.3a"))[2] is not mask

    def test_cached_arrays_are_read_only(self, tmp_path):
        cfg = self._cfg(tmp_path, 1)
        run_experiment(cfg)
        spec, f_true, mask = build_problem(cfg)
        problem = experiments._problem_of(cfg)
        assert problem.spec is spec
        for values in (problem.u.values, f_true.values, mask.indicator, mask.quad_weights, mask.weighted_nodes):
            assert not values.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0
        cells = problem.profile_cells
        assert isinstance(cells, tuple) and len(cells) == 21 * 21
        assert all(isinstance(cell, str) for cell in cells)

    def test_making_configs_builds_no_time_factor_and_solves_nothing(self, monkeypatch):
        # a config finds or builds its problem to check itself; u and the time
        # factor wait for the first run
        _clear_process_caches()
        steps, solved = [], _count_solves(monkeypatch)
        original = forward._step_l1
        monkeypatch.setattr(forward, "_step_l1", lambda *args: steps.append(args) or original(*args))
        for name in EXPERIMENT_PRESETS:
            config_from_preset(name, seed=3)
        for table_id, rows in TABLE_ROWS.items():
            base = table_base_config(table_id)
            for delta, omega, _, _ in rows:
                replace(base, delta=delta, omega=omega, eps=delta / 5.0, seed=1)
        assert (steps, solved) == ([], [])

    def test_each_build_hands_out_its_own_f_true_field(self):
        # the samples are shared and read-only, so no caller can rebind or write cached state
        cfg = config_from_preset("5.3a", n_per_axis=11, n_steps=10)
        _, first, _ = build_problem(cfg)
        _, second, _ = build_problem(cfg)
        assert first is not second and first.values is second.values
        assert not first.values.flags.writeable
        first.values = np.zeros_like(first.values)
        assert build_problem(cfg)[1].values is second.values

    def test_cold_run_writes_the_bytes_of_a_warm_run(self, tmp_path):
        def run(outdir):
            run_experiment(self._cfg(outdir, 3))
            run_table(2, seed=3, outdir=str(outdir), smoke=True)
            return _read_dir(outdir)

        _clear_process_caches()
        cold = run(tmp_path / "cold")
        assert len(cold) == 4 and run(tmp_path / "warm") == cold


class TestCSV:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_forward_csv_cells_are_reprs(self, tmp_path, dim):
        grid, tgrid = SpaceGrid(dim, 4), TimeGrid(0.3, 3)
        rng = np.random.default_rng(dim)
        values = rng.standard_normal((4, grid.n_nodes)) * 10.0 ** rng.integers(-300, 300, (4, grid.n_nodes))
        values[0, 0] = -0.0
        u = SpaceTimeField(grid, tgrid, values)
        path = tmp_path / "u.csv"
        write_forward_csv(str(path), u)
        text = path.read_bytes().decode()
        lines = text.split("\r\n")
        assert lines.pop() == ""  # every line, the last one too, ends in CRLF
        assert "\n" not in "".join(lines)
        assert lines[0] == ",".join(["t", "x1", "x2"][: dim + 1] + ["value"])
        expected = [
            [repr(float(t)), *(repr(float(c)) for c in grid.coords[i]), repr(float(values[n, i]))]
            for n, t in enumerate(tgrid.nodes)
            for i in range(grid.n_nodes)
        ]
        cells = [line.split(",") for line in lines[1:]]
        assert cells == expected
        got = np.array([float(row[-1]) for row in cells]).reshape(values.shape)
        assert got.tobytes() == values.tobytes()  # exact, signed zero included

    @pytest.mark.parametrize("preset, n", [("5.1a", 21), ("5.3a", 11)])
    def test_profile_cells_are_reprs(self, tmp_path, preset, n):
        # the coordinate columns are formatted once per axis node and repeated
        cfg = config_from_preset(preset, n_per_axis=n, n_steps=4, max_iter=2, outdir=str(tmp_path))
        result = run_experiment(cfg)
        _, f_true, _ = build_problem(cfg)
        with open(tmp_path / f"{cfg.label}_profile.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        expected = [
            [*(repr(float(c)) for c in coords), repr(float(ft)), repr(float(fk))]
            for coords, ft, fk in zip(f_true.grid.coords, f_true.values, result.f_k.values)
        ]
        assert rows[1:] == expected

    def test_iteration_log_bytes_are_csv_writer_bytes(self, tmp_path):
        # the number-only rows are joined, not written by csv; the bytes, CRLF
        # line ends and the integer k column included, are what csv.writer gives
        cfg = config_from_preset("5.1a", n_per_axis=21, n_steps=4, max_iter=12, outdir=str(tmp_path))
        result = run_experiment(cfg)
        assert len(result.phi_history) > 10  # k reaches two digits
        expected = io.StringIO(newline="")
        csv.writer(expected).writerows(
            [["k", "phi"], *([k, repr(float(phi))] for k, phi in enumerate(result.phi_history))]
        )
        got = (tmp_path / f"{cfg.label}_iterations.csv").read_bytes()
        assert got == expected.getvalue().encode()
        assert got.endswith(b"\r\n") and b"\n" not in got.replace(b"\r\n", b"")
