"""Tests for config parsing, scenario generation, and the command front end."""

import json
import math
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flocksim import cli
from flocksim.cli import (
    RunConfig,
    ScenarioConfig,
    SplitMix64,
    build_system,
    generate_scenario,
    main,
    parse_config,
    run_command,
    serialize_trajectory,
)
from flocksim.convergence import _check_n_list
from flocksim.dynamics import make_system
from flocksim.errors import ConfigError, DomainError, ValidationError
from flocksim.integrator import (
    STICKING,
    CollisionEvent,
    PiecewiseTrajectory,
    SolverConfig,
    solve_piecewise,
)
from flocksim.kernels import CuckerSmaleKernel, RegularizedKernel, SingularKernel
from flocksim.twobody import (
    TwoBodyProblem,
    bounded_weight_floor_check,
    critical_velocity,
    level_time_bound_check,
    stick_time,
)

SIM_TEXT = """\
# head-on pair at the sticking threshold
[scenario]
n = 2
d = 1
alpha = 0.5
x_1 = -0.5
x_2 = 0.5
v_1 = 2.0
v_2 = -2.0

[solver]
t_end = 0.7
"""
GEN_TEXT = "[scenario]\nmode = generate\nseed = 1\nn = 3\nd = 1\nalpha = 0.5\n"
TB_TEXT = "[scenario]\nalpha = 0.5\n[twobody]\ndphi0 = -1.0\n"


def _assert_one_rule(rule, library_call, key, cli=None, cli_key=None):
    """``library_call`` raises a DomainError ``<key> <rule>`` naming ``key``.
    ``cli`` is a (command, config text) whose text carries the same bad
    value under ``cli_key`` (by default ``key``): parsing it raises the same
    message as a ValidationError naming that key."""
    with pytest.raises(DomainError) as lib:
        library_call()
    assert (lib.value.key, str(lib.value)) == (key, f"{key} {rule}")
    if cli is not None:
        cli_key = cli_key or key
        with pytest.raises(ValidationError) as exc_info:
            parse_config(cli[1], cli[0])
        assert (exc_info.value.key, str(exc_info.value)) == (cli_key, f"{cli_key}: {cli_key} {rule}")


class TestSplitMix64:
    def test_reference_sequence(self):
        # published outputs of the standard generator for seed 0
        rng = SplitMix64(0)
        assert rng.u64() == 0xE220A8397B1DCDAF
        assert rng.u64() == 0x6E789E6AA1B965F4
        assert rng.u64() == 0x06C45D188009454F

    def test_uniform_range_and_determinism(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        draws = [a.uniform() for _ in range(200)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert draws == [b.uniform() for _ in range(200)]
        assert draws != [SplitMix64(43).uniform() for _ in range(200)]

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(1 << 64).u64() == SplitMix64(0).u64()


class TestGenerateScenario:
    def test_shapes_and_bounds(self):
        x, v = generate_scenario(7, 3, seed=11, box=2.0, speed=0.5)
        assert x.shape == (7, 3) and v.shape == (7, 3)
        assert np.all(np.abs(x) <= 1.0)
        assert np.all(np.sqrt((v**2).sum(axis=1)) <= 0.5)

    def test_reproducible(self):
        a = generate_scenario(5, 2, seed=3, box=1.0, speed=1.0)
        b = generate_scenario(5, 2, seed=3, box=1.0, speed=1.0)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = generate_scenario(5, 2, seed=4, box=1.0, speed=1.0)
        assert not np.array_equal(a[0], c[0])

    def test_positions_consume_the_stream_first(self):
        rng = SplitMix64(9)
        expect = np.array([[2.0 * (rng.uniform() - 0.5) for _ in range(2)] for _ in range(3)])
        x, _ = generate_scenario(3, 2, seed=9, box=2.0, speed=1.5)
        assert np.array_equal(x, expect)


class TestParseConfig:
    def test_full_simulate_config(self):
        cfg = parse_config(SIM_TEXT, command="simulate", out_dir="somewhere")
        assert cfg.command == "simulate"
        assert cfg.out_dir == "somewhere"
        sc = cfg.scenario
        assert (sc.n, sc.d, sc.alpha, sc.mode, sc.kernel) == (2, 1, 0.5, "inline", "singular")
        assert np.array_equal(sc.x, [[-0.5], [0.5]])
        assert np.array_equal(sc.v, [[2.0], [-2.0]])
        assert cfg.solver.t_end == 0.7
        assert cfg.solver.rel_tol == SolverConfig().rel_tol

    def test_twobody_and_converge_sections(self):
        text = (
            "[scenario]\nalpha = 0.25\n"
            "[twobody]\nphi0 = 2.0\ndphi0 = -1.0\n"
        )
        cfg = parse_config(text, command="twobody")
        assert cfg.twobody.phi0 == 2.0
        assert cfg.twobody.dphi0 == -1.0
        assert cfg.twobody.n_levels == 20

        text = (
            "[scenario]\nn = 2\nd = 1\nalpha = 0.5\n"
            "x_1 = -0.5\nx_2 = 0.5\nv_1 = 0.5\nv_2 = -0.5\n"
            "[converge]\nn_list = 5 50 500\n"
        )
        cfg = parse_config(text, command="converge")
        assert cfg.n_list == (5, 50, 500)

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n" + SIM_TEXT + "\n# trailing\n"
        cfg = parse_config(text)
        assert cfg.scenario.n == 2

    def test_build_system_kernel_choice(self):
        sc = parse_config(SIM_TEXT).scenario
        assert isinstance(build_system(sc).kernel, SingularKernel)
        text = SIM_TEXT.replace("alpha = 0.5", "kernel = cucker_smale\nK = 2.0\nbeta = 3.0")
        kernel = build_system(parse_config(text).scenario).kernel
        assert isinstance(kernel, CuckerSmaleKernel)
        assert kernel.K == 2.0 and kernel.beta == 3.0


class TestParseErrors:
    def test_structural_errors_carry_line_numbers(self):
        with pytest.raises(ConfigError, match="line 1") as exc_info:
            parse_config("[weird]\n")
        assert exc_info.value.line == 1
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[solver]\nrel_tol 1e-9\n")
        with pytest.raises(ConfigError, match="outside any"):
            parse_config("rel_tol = 1e-9\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[solver]\nrel_tol = 1e-9\nrel_tol = 1e-8\n")
        with pytest.raises(ConfigError, match="empty key"):
            parse_config("[solver]\n= 3\n")

    def test_value_errors_name_the_key(self):
        with pytest.raises(ValidationError, match="rel_tolx"):
            parse_config("[solver]\nrel_tolx = 1\n")
        with pytest.raises(ValidationError, match="not a number"):
            parse_config("[solver]\nrel_tol = fast\n")
        with pytest.raises(ValidationError, match="d_stick"):
            parse_config("[solver]\nd_stick = -1e-6\n")
        with pytest.raises(ValidationError, match="alpha") as exc_info:
            parse_config("[scenario]\nalpha = 1.5\n")
        assert exc_info.value.key == "alpha"
        with pytest.raises(ValidationError, match="mode must be"):
            parse_config("[scenario]\nmode = auto\n")
        with pytest.raises(ValidationError, match="kernel must be"):
            parse_config("[scenario]\nkernel = bounded\n")
        for text, key, message in [
            (SIM_TEXT.replace("n = 2", "n = 3.5"), "n", "not an integer: '3.5'"),
            (SIM_TEXT + "rel_tol = inf\n", "rel_tol", "must be finite, got 'inf'"),
            (SIM_TEXT + "rel_tol = nan\n", "rel_tol", "must be finite, got 'nan'"),
        ]:
            with pytest.raises(ValidationError) as exc_info:
                parse_config(text)
            assert (exc_info.value.key, str(exc_info.value)) == (key, f"{key}: {message}")

    @pytest.mark.parametrize(
        "key,value",
        [
            ("rel_tol", "0"),
            ("abs_tol", "-1e-12"),
            ("d_stick", "0"),
            ("v_stick", "-1"),
            ("t_end", "-0.5"),
            ("sample_dt", "0"),
            ("n_reg", "1"),
        ],
    )
    def test_solver_error_key_is_the_field(self, key, value):
        with pytest.raises(ValidationError) as exc_info:
            parse_config(f"[solver]\n{key} = {value}\n")
        assert exc_info.value.key == key
        with pytest.raises(DomainError) as lib:
            SolverConfig(**{key: type(getattr(SolverConfig(), key))(value)})
        assert lib.value.key == key
        assert str(exc_info.value) == f"{key}: {lib.value}"

    @pytest.mark.parametrize(
        "library_call,key,value,cli",
        [
            (lambda: TwoBodyProblem(-1.0, -1.0, 0.5), "phi0", -1.0,
             ("twobody", TB_TEXT + "phi0 = -1.0\n")),
            (lambda: stick_time(0.0, 0.5), "phi0", 0.0, ("twobody", TB_TEXT + "phi0 = 0\n")),
            (lambda: critical_velocity(math.inf, 0.5), "phi0", math.inf, None),
            (lambda: bounded_weight_floor_check(1.0, -1.0, 1.0, 2.0, t_end=-0.5), "t_end", -0.5,
             ("simulate", SIM_TEXT.replace("t_end = 0.7", "t_end = -0.5"))),
            (lambda: CuckerSmaleKernel(K=0.0, beta=2.0), "K", 0.0,
             ("simulate", SIM_TEXT.replace("alpha = 0.5", "kernel = cucker_smale\nK = 0"))),
            (lambda: CuckerSmaleKernel(K=math.nan, beta=2.0), "K", math.nan, None),
            (lambda: generate_scenario(3, 1, 1, box=-1.0, speed=1.0), "box", -1.0,
             ("simulate", GEN_TEXT + "box = -1\n")),
            (lambda: generate_scenario(3, 1, 1, box=1.0, speed=0.0), "speed", 0.0,
             ("diagnose", GEN_TEXT + "speed = 0\n")),
            (lambda: SolverConfig(rel_tol=None), "rel_tol", None, None),
            (lambda: SolverConfig(t_end="1"), "t_end", "1", None),
        ],
        ids=["phi0", "phi0_zero", "phi0_inf", "t_end", "K", "K_nan", "box", "speed",
             "rel_tol_none", "t_end_text"],
    )
    def test_positive_and_finite_rule(self, library_call, key, value, cli):
        _assert_one_rule(f"must be positive and finite, got {value!r}", library_call, key, cli)

    @pytest.mark.parametrize(
        "library_call,key,value,cli",
        [
            (lambda: _check_n_list([1, 5]), "n_list", 1,
             ("converge", SIM_TEXT + "[converge]\nn_list = 1 5\n")),
            (lambda: _check_n_list([10.5, 100]), "n_list", 10.5, None),
            (lambda: _check_n_list(["10", "100"]), "n_list", "10", None),
            (lambda: SolverConfig(n_reg=10.5), "n_reg", 10.5, None),
            (lambda: SolverConfig(n_reg=math.inf), "n_reg", math.inf, None),
            (lambda: RegularizedKernel(alpha=0.5, n=1), "n", 1, None),
            (lambda: RegularizedKernel(alpha=0.5, n=math.nan), "n", math.nan, None),
            (lambda: _check_n_list([None, 100]), "n_list", None, None),
        ],
        ids=["n_list", "n_list_fraction", "n_list_text", "n_reg_fraction", "n_reg_inf",
             "kernel_n", "kernel_n_nan", "n_list_none"],
    )
    def test_cap_index_rule(self, library_call, key, value, cli):
        _assert_one_rule(f"must be an integer >= 2, got {value!r}", library_call, key, cli)

    def test_segment_budget_key_is_unknown(self):
        # the solver has no segment budget, so the key is rejected by name
        # rather than accepted and ignored
        with pytest.raises(ValidationError) as exc_info:
            parse_config(SIM_TEXT + "max_segments = 1000\n")
        assert exc_info.value.key == "max_segments"
        assert str(exc_info.value) == "max_segments: unknown key in [solver]"

    @pytest.mark.parametrize(
        "library_call,key,value,cli",
        [
            (lambda: generate_scenario(0, 1, 1, box=1.0, speed=1.0), "n", 0,
             ("simulate", GEN_TEXT.replace("n = 3", "n = 0"))),
            (lambda: generate_scenario(3, 0, 1, box=1.0, speed=1.0), "d", 0,
             ("converge", GEN_TEXT.replace("d = 1", "d = 0") + "[converge]\nn_list = 5 50\n")),
            (lambda: generate_scenario(0, 1, 1, box=1.0, speed=1.0), "n", 0,
             ("simulate", "[scenario]\nn = 0\nd = 1\nalpha = 0.5\n")),
            (lambda: generate_scenario(math.nan, 1, 1, box=1.0, speed=1.0), "n", math.nan, None),
            (lambda: generate_scenario(2.5, 1, 1, box=1.0, speed=1.0), "n", 2.5, None),
        ],
        ids=["n", "d", "n_inline", "n_nan", "n_fraction"],
    )
    def test_scenario_size_rule(self, library_call, key, value, cli):
        _assert_one_rule(f"must be an integer >= 1, got {value!r}", library_call, key, cli)

    @pytest.mark.parametrize("value", [2.5, None, math.nan], ids=["fraction", "none", "nan"])
    def test_seed_rule(self, value):
        # 2.5 drew the seed-2 scenario, None and NaN raised bare errors
        _assert_one_rule(f"must be an integer, got {value!r}",
                         lambda: generate_scenario(3, 1, value, box=1.0, speed=1.0), "seed")

    @pytest.mark.parametrize("seed", [-5, 10**400])
    def test_any_integer_seed_is_used_modulo_2_64(self, seed):
        system = build_system(parse_config(GEN_TEXT.replace("seed = 1", f"seed = {seed}")).scenario)
        x, v = generate_scenario(3, 1, seed % 2**64, box=1.0, speed=1.0)
        assert np.array_equal(system.x, x) and np.array_equal(system.v, v)

    def test_whole_float_counts_are_used_as_ints(self):
        x, v = generate_scenario(3.0, 2.0, 1, box=1.0, speed=1.0)
        assert x.shape == v.shape == (3, 2)
        assert [r.n for r in level_time_bound_check(1.0, 0.5, 4.0)] == [2, 3, 4]

    def test_level_count_rule(self):
        cli = ("twobody", TB_TEXT + "phi0 = 1.0\nn_levels = 1\n")
        for value in (1, math.inf, 2.5):
            _assert_one_rule(f"must be an integer >= 2, got {value!r}",
                             lambda: level_time_bound_check(1.0, 0.5, value), "n_max",
                             cli if value == 1 else None, cli_key="n_levels")

    @pytest.mark.parametrize(
        "library_call,key,rule,cli",
        [
            (lambda: SingularKernel(alpha=None), "alpha", "must lie strictly in (0, 1), got None",
             None),
            (lambda: SingularKernel(alpha="0.5"), "alpha",
             "must lie strictly in (0, 1), got '0.5'", None),
            (lambda: SingularKernel(alpha=1.5), "alpha", "must lie strictly in (0, 1), got 1.5",
             ("simulate", SIM_TEXT.replace("alpha = 0.5", "alpha = 1.5"))),
            (lambda: CuckerSmaleKernel(K=1.0, beta=None), "beta",
             "must be nonnegative and finite, got None", None),
            (lambda: CuckerSmaleKernel(K=1.0, beta=-3.0), "beta",
             "must be nonnegative and finite, got -3.0",
             ("simulate", SIM_TEXT.replace("alpha = 0.5", "kernel = cucker_smale\nbeta = -3"))),
            (lambda: TwoBodyProblem(1.0, None, 0.5), "dphi0", "must be finite, got None", None),
        ],
        ids=["alpha_none", "alpha_text", "alpha", "beta_none", "beta", "dphi0_none"],
    )
    def test_real_parameter_rule(self, library_call, key, rule, cli):
        _assert_one_rule(rule, library_call, key, cli)

    @pytest.mark.parametrize(
        "body,key",
        [
            ("K = -1\nbeta = -3", "K"),
            ("K = 0", "K"),
            ("beta = -3", "beta"),
        ],
        ids=["K_and_beta", "K_zero", "beta"],
    )
    def test_bounded_kernel_error_key(self, body, key):
        text = SIM_TEXT.replace("alpha = 0.5", "kernel = cucker_smale\n" + body)
        with pytest.raises(ValidationError) as exc_info:
            parse_config(text)
        assert exc_info.value.key == key

    def test_bad_bounded_kernel_exits_before_output(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SIM_TEXT.replace("alpha = 0.5", "kernel = cucker_smale\nK = -1"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "K must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_bounded_floor_rate_error_key(self):
        # a resting pair has no speed floor to check: rejected at parse time
        text = "[scenario]\nkernel = cucker_smale\n[twobody]\nphi0 = 1.0\ndphi0 = 0.0\n"
        with pytest.raises(ValidationError, match="nonzero initial rate") as exc_info:
            parse_config(text, command="twobody")
        assert exc_info.value.key == "dphi0"

    def test_inline_row_errors(self):
        base = "[scenario]\nn = 2\nd = 1\nalpha = 0.5\n"
        with pytest.raises(ValidationError, match="missing inline row"):
            parse_config(base + "x_1 = 0.0\nv_1 = 1.0\nv_2 = -1.0\n")
        with pytest.raises(ValidationError, match="expected 1 components"):
            parse_config(base + "x_1 = 0.0 1.0\nx_2 = 1.0\nv_1 = 0.0\nv_2 = 0.0\n")
        with pytest.raises(ValidationError, match="out of range"):
            parse_config(base + "x_1 = 0.0\nx_2 = 1.0\nx_5 = 9.0\nv_1 = 0.0\nv_2 = 0.0\n")
        with pytest.raises(ValidationError, match="inline rows need n and d"):
            parse_config("[scenario]\nalpha = 0.5\nx_1 = 0.0\n")
        with pytest.raises(ValidationError, match="need x_i and v_i rows") as exc_info:
            parse_config(base)
        assert exc_info.value.key == "x_1"

    def test_command_requirements(self):
        with pytest.raises(ValidationError, match="unknown command"):
            parse_config(SIM_TEXT, command="explode")
        with pytest.raises(ValidationError, match="twobody needs"):
            parse_config("[scenario]\nalpha = 0.5\n", command="twobody")
        with pytest.raises(ValidationError, match="alpha"):
            parse_config("[twobody]\nphi0 = 1.0\ndphi0 = -1.0\n", command="twobody")
        with pytest.raises(ValidationError, match="phi0"):
            parse_config("[scenario]\nalpha = 0.5\n[twobody]\ndphi0 = -1.0\n", command="twobody")
        with pytest.raises(ValidationError, match="converge needs"):
            parse_config(SIM_TEXT, command="converge")
        with pytest.raises(ValidationError, match="required for convergence runs") as exc_info:
            parse_config(SIM_TEXT + "[converge]\n", command="converge")
        assert exc_info.value.key == "n_list"
        with pytest.raises(ValidationError, match="required"):
            parse_config("[scenario]\nmode = generate\nn = 2\nd = 1\nalpha = 0.5\n")
        for key, text in [("n", "d = 1\n"), ("d", "n = 3\n")]:
            with pytest.raises(ValidationError) as exc_info:
                parse_config(f"[scenario]\nmode = generate\nalpha = 0.5\n{text}", "simulate")
            assert (exc_info.value.key, str(exc_info.value)) == (key, f"{key}: required")
        with pytest.raises(ValidationError, match="singular kernel"):
            text = SIM_TEXT.replace("alpha = 0.5\n", "alpha = 0.5\nkernel = cucker_smale\n")
            parse_config(text + "[converge]\nn_list = 5 50\n", command="converge")

    def test_converge_list_validation(self):
        head = (
            "[scenario]\nn = 2\nd = 1\nalpha = 0.5\n"
            "x_1 = -0.5\nx_2 = 0.5\nv_1 = 0.5\nv_2 = -0.5\n"
        )
        for bad in ("n_list = 5", "n_list = 1 5", "n_list = 50 5", "n_list = 5 5"):
            with pytest.raises(ValidationError, match="n_list"):
                parse_config(head + "[converge]\n" + bad + "\n", command="converge")
        with pytest.raises(ValidationError, match="unknown key"):
            parse_config(head + "[converge]\nn_list = 5 50\ncaps = 3\n", command="converge")

    def test_converge_takes_no_cap_index(self, tmp_path):
        # each member's cap comes from n_list, so an n_reg would go unused
        text = SIM_TEXT + "n_reg = 50\n[converge]\nn_list = 5 50\n"
        with pytest.raises(ValidationError, match=r"caps from \[converge\] n_list") as err:
            parse_config(text, command="converge")
        assert err.value.key == "n_reg"
        assert parse_config(text, command="simulate").solver.n_reg == 50
        config = parse_config(SIM_TEXT + "[converge]\nn_list = 5 50\n", "converge", str(tmp_path))
        assert run_command(config) == 0
        assert "n_reg" not in (tmp_path / "meta.txt").read_text()


@pytest.fixture(scope="module")
def sim_out(tmp_path_factory):
    root = tmp_path_factory.mktemp("sim")
    cfg = root / "run.cfg"
    cfg.write_text(SIM_TEXT, encoding="utf-8")
    out = root / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def _load_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class TestSimulateCommand:
    def test_trajectory_round_trips(self, sim_out):
        header = (sim_out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,x_1_1,x_2_1,v_1_1,v_2_1"
        data = _load_csv(sim_out / "trajectory.csv")
        traj = solve_piecewise(
            make_system(
                np.array([[-0.5], [0.5]]),
                np.array([[2.0], [-2.0]]),
                SingularKernel(alpha=0.5),
            ),
            SolverConfig(t_end=0.7),
        )
        assert np.array_equal(data[:, 0], traj.t)
        assert np.array_equal(data[:, 1], traj.x[:, 0, 0])
        assert np.array_equal(data[:, 2], traj.x[:, 1, 0])
        assert np.array_equal(data[:, 3], traj.v[:, 0, 0])
        assert np.array_equal(data[:, 4], traj.v[:, 1, 0])

    def test_events_jsonl(self, sim_out):
        lines = (sim_out / "events.jsonl").read_text().splitlines()
        assert len(lines) == 1
        event = json.loads(lines[0])
        assert event.keys() == {f.name for f in fields(CollisionEvent)}
        assert event["kind"] == "Sticking"
        assert event["group"] == [0, 1]
        assert event["t_event"] == pytest.approx(0.5, abs=1e-3)
        assert event["rel_speed"] < 1e-4

    def test_event_with_numpy_scalars_writes_as_python_numbers(self):
        def events_line(event):
            traj = PiecewiseTrajectory(
                t=np.zeros(1),
                x=np.zeros((1, 2, 1)),
                v=np.zeros((1, 2, 1)),
                grid_mask=np.ones(1, dtype=bool),
                events=[event],
                final_state=None,
                config=SolverConfig(),
            )
            with tempfile.TemporaryDirectory() as out:
                serialize_trajectory(traj, out)
                return (Path(out) / "events.jsonl").read_text()

        rel_speed = np.float32(0.1)
        numpy_event = CollisionEvent(
            np.float64(0.3), (np.int64(0), np.int64(1)), STICKING, rel_speed, np.float64(1e-9)
        )
        python_event = CollisionEvent(0.3, (0, 1), STICKING, float(rel_speed), 1e-9)
        line = events_line(numpy_event)
        assert line == events_line(python_event)
        assert json.loads(line)["rel_speed"] == float(rel_speed) != 0.1

    def test_meta_reparses_to_same_run(self, sim_out):
        meta = (sim_out / "meta.txt").read_text()
        cfg = parse_config(meta, command="simulate")
        traj = solve_piecewise(build_system(cfg.scenario), cfg.solver)
        data = _load_csv(sim_out / "trajectory.csv")
        assert np.array_equal(data[:, 0], traj.t)
        assert np.array_equal(data[:, 1], traj.x[:, 0, 0])

    @pytest.mark.parametrize(
        "command,text",
        [
            ("simulate", SIM_TEXT),
            (
                "simulate",
                "[scenario]\nmode = generate\nn = 3\nd = 2\nalpha = 0.5\nseed = 3\n"
                "box = 2.5\nspeed = 0.75\n[solver]\nt_end = 0.2\n",
            ),
            ("simulate", SIM_TEXT.replace("alpha = 0.5", "kernel = cucker_smale\nK = 2.5\nbeta = 1.5")),
            ("twobody", "[scenario]\nalpha = 0.5\n[twobody]\nphi0 = 1.0\ndphi0 = -4.0\nn_levels = 7\n"),
            (
                "converge",
                "[scenario]\nn = 2\nd = 1\nalpha = 0.5\n"
                "x_1 = -0.5\nx_2 = 0.5\nv_1 = 0.5\nv_2 = -0.5\n"
                "[solver]\nt_end = 2.0\n[converge]\nn_list = 5 50\n",
            ),
        ],
        ids=["inline", "generate", "cucker_smale", "twobody", "converge"],
    )
    def test_meta_is_a_fixed_point(self, command, text, tmp_path):
        config = parse_config(text, command, str(tmp_path / "a"))
        assert run_command(config) == 0
        meta = (tmp_path / "a" / "meta.txt").read_text()
        again = parse_config(meta, command, str(tmp_path / "b"))
        for name in ("x", "v"):
            a, b = getattr(config.scenario, name), getattr(again.scenario, name)
            assert (a is None and b is None) or np.array_equal(a, b)
        assert replace(again.scenario, x=None, v=None) == replace(config.scenario, x=None, v=None)
        assert replace(again, scenario=None, out_dir="") == replace(config, scenario=None, out_dir="")
        assert run_command(again) == 0
        assert (tmp_path / "b" / "meta.txt").read_bytes() == meta.encode()

    def test_rerun_is_byte_identical(self, sim_out, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SIM_TEXT, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("trajectory.csv", "events.jsonl"):
            assert (out / name).read_bytes() == (sim_out / name).read_bytes()

    def test_generated_scenario_runs(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[scenario]\nmode = generate\nn = 3\nd = 2\nalpha = 0.5\nseed = 3\n"
            "[solver]\nt_end = 1.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        meta = (out / "meta.txt").read_text()
        assert "seed = 3" in meta
        data = _load_csv(out / "trajectory.csv")
        assert data.shape[1] == 1 + 2 * 3 * 2


def _inline_text(rows_x, rows_v, t_end):
    lines = ["[scenario]", f"n = {len(rows_x)}", f"d = {len(rows_x[0])}", "alpha = 0.5"]
    lines += [f"x_{i} = " + " ".join(map(repr, r)) for i, r in enumerate(rows_x, 1)]
    lines += [f"v_{i} = " + " ".join(map(repr, r)) for i, r in enumerate(rows_v, 1)]
    return "\n".join(lines + ["[solver]", f"t_end = {t_end!r}"]) + "\n"


def _packed_rows(traj):
    s = len(traj.t)
    return np.column_stack([traj.t, traj.x.reshape(s, -1), traj.v.reshape(s, -1)])


def _repr_csv(traj) -> bytes:
    """trajectory.csv by the plain formula: repr of every column of every row."""
    s, n, d = traj.x.shape
    header = ["t"]
    header += [f"x_{i+1}_{k+1}" for i in range(n) for k in range(d)]
    header += [f"v_{i+1}_{k+1}" for i in range(n) for k in range(d)]
    lines = [",".join(header)] + [",".join(map(repr, row.tolist())) for row in _packed_rows(traj)]
    return ("\n".join(lines) + "\n").encode()


class TestTrajectoryWriter:
    """trajectory.csv is byte for byte the repr of every column, whichever
    columns repeat."""

    def _run(self, tmp_path, command, text):
        config = parse_config(text, command, str(tmp_path / "out"))
        assert run_command(config) == 0
        traj = solve_piecewise(build_system(config.scenario), config.solver)
        assert (tmp_path / "out" / "trajectory.csv").read_bytes() == _repr_csv(traj)
        return traj

    def test_two_clusters_with_signed_zero_axis(self, tmp_path):
        # clusters of 2 and 4 rows closing along axis 0: the second axis is
        # -0.0 in one cluster and 0.0 in the other, equal in value only
        xa, xb = [-0.5, -0.0], [0.5, 0.0]
        va, vb = [2.0, 0.0], [-2.0, -0.0]
        text = _inline_text([xa] * 2 + [xb] * 4, [va] * 2 + [vb] * 4, 0.6)
        traj = self._run(tmp_path, "diagnose", text)
        assert traj.n_sticking == 1
        first = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1].split(",")
        assert first[1:13] == ["-0.5", "-0.0"] * 2 + ["0.5", "0.0"] * 4

    def test_columns_equal_only_in_the_first_row(self, tmp_path):
        # x_1_1 and x_2_1 start equal and part at once; the v_i_2 columns
        # stay 0.0, and so does t in the first row only
        text = _inline_text([[0.25, 0.0], [0.25, 1.0]], [[1.0, 0.0], [2.0, 0.0]], 0.1)
        traj = self._run(tmp_path, "simulate", text)
        rows = _packed_rows(traj)
        assert rows[0, 1] == rows[0, 3] and np.all(rows[1:, 1] != rows[1:, 3])
        assert rows[0, 0] == rows[0, 6] and np.all(rows[:, 6] == rows[:, 8])

    def test_storm_without_repeats(self, tmp_path):
        x, v = generate_scenario(8, 1, 3, box=1.0, speed=5.0)
        traj = self._run(tmp_path, "simulate", _inline_text(x.tolist(), v.tolist(), 0.2))
        assert traj.events
        first = _packed_rows(traj)[0].view(np.uint64)
        assert np.unique(first).size == first.size

    def test_merge_into_one_drifting_cluster(self, tmp_path):
        # a cluster of two rows meets a third row at the critical rate
        # with mean velocity 7/6: their columns coincide only after the merge
        text = _inline_text([[-0.5], [-0.5], [0.5]], [[2.5], [2.5], [-1.5]], 0.7)
        traj = self._run(tmp_path, "simulate", text)
        assert [(e.kind, e.group) for e in traj.events] == [(STICKING, (0, 1, 2))]
        assert np.all(traj.x[-1] == traj.x[-1, 0]) and traj.x[-1, 0, 0] > 0.0

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_synthetic_rows(self, data):
        s = data.draw(st.integers(1, 6), "samples")
        n, d = data.draw(st.integers(1, 3), "n"), data.draw(st.integers(1, 3), "d")
        m = n * d
        # columns drawn from a few templates repeat; signed zeros and
        # tiny values are frequent
        value = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 5e-324]) | st.floats()
        column = st.lists(value, min_size=s, max_size=s)
        templates = data.draw(st.lists(column, min_size=1, max_size=4), "templates")
        picks = st.lists(st.sampled_from(templates), min_size=1 + 2 * m, max_size=1 + 2 * m)
        rows = np.array(data.draw(picks, "columns"), dtype=float).T
        # an entry changed after the first row parts repeated columns late
        edit = st.tuples(st.integers(1, s - 1), st.integers(0, 2 * m), value)
        for i, j, val in data.draw(st.lists(edit, max_size=4) if s > 1 else st.just([]), "edits"):
            rows[i, j] = val
        traj = PiecewiseTrajectory(
            t=rows[:, 0].copy(),
            x=rows[:, 1 : 1 + m].reshape(s, n, d),
            v=rows[:, 1 + m :].reshape(s, n, d),
            grid_mask=np.ones(s, dtype=bool),
            events=[],
            final_state=None,
            config=SolverConfig(),
        )
        with tempfile.TemporaryDirectory() as out:
            serialize_trajectory(traj, out)
            assert (Path(out) / "trajectory.csv").read_bytes() == _repr_csv(traj)


class TestTwoBodyCommand:
    def _run(self, tmp_path, body):
        cfg = tmp_path / "tb.cfg"
        cfg.write_text(body, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["twobody", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "report.txt").read_text().splitlines()
        return {line.split(" = ")[0]: line.split(" = ")[1] for line in text}

    def test_critical_report(self, tmp_path):
        report = self._run(
            tmp_path, "[scenario]\nalpha = 0.5\n[twobody]\nphi0 = 1.0\ndphi0 = -4.0\n"
        )
        assert report["critical_velocity"] == "-4.0"
        assert report["outcome"] == "Stick"
        assert report["stick_time"] == "0.5"
        levels = [k for k in report if k.startswith("level_")]
        assert len(levels) == 19
        assert all(report[k].endswith(" ok") for k in levels)

    def test_collide_report(self, tmp_path):
        report = self._run(
            tmp_path, "[scenario]\nalpha = 0.5\n[twobody]\nphi0 = 1.0\ndphi0 = -5.0\n"
        )
        assert report["outcome"] == "Collide"
        assert float(report["impact_speed"]) == 1.0
        assert float(report["t_hit"]) == pytest.approx(0.5 - np.log(5.0) / 8.0, rel=1e-13)

    def test_no_collision_report(self, tmp_path):
        report = self._run(
            tmp_path, "[scenario]\nalpha = 0.5\n[twobody]\nphi0 = 1.0\ndphi0 = -3.0\n"
        )
        assert report["outcome"] == "NoCollision"
        assert float(report["phi_limit"]) == 0.0625

    def test_separating_limit_past_the_float_range(self, tmp_path):
        report = self._run(
            tmp_path, "[scenario]\nalpha = 0.999\n[twobody]\nphi0 = 1.0\ndphi0 = 3000.0\n"
        )
        assert report["outcome"] == "NoCollision"
        assert report["phi_limit"] == "inf"

    def test_bounded_kernel_report(self, tmp_path):
        report = self._run(
            tmp_path,
            "[scenario]\nkernel = cucker_smale\nK = 1.0\nbeta = 2.0\n"
            "[twobody]\nphi0 = 1.0\ndphi0 = -1.0\n"
            "[solver]\nt_end = 1.0\n",
        )
        assert report["floor_ok"] == "True"
        assert float(report["floor_min_ratio"]) >= 1.0 - 1e-6


class TestConvergeCommand:
    def test_free_family_zero_gaps(self, tmp_path):
        cfg = tmp_path / "cv.cfg"
        cfg.write_text(
            "[scenario]\nn = 2\nd = 1\nalpha = 0.5\n"
            "x_1 = -0.5\nx_2 = 0.5\nv_1 = 0.5\nv_2 = -0.5\n"
            "[solver]\nt_end = 2.0\n"
            "[converge]\nn_list = 5 50\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "convergence.csv").read_text().splitlines()
        assert rows[0] == "n,sup_dx,sup_dv,reference_gap_x,reference_gap_v"
        assert rows[1] == "5,,,0.0,0.0"
        assert rows[2] == "50,0.0,0.0,0.0,0.0"

    def test_family_solve_goes_through_the_module_global(self, tmp_path, monkeypatch):
        # a caller that wraps cli.run_family (the benchmark keeps the
        # family's trajectories this way) sees every run the command makes
        seen = []
        orig = cli.run_family

        def recording(*args, **kwargs):
            runs = orig(*args, **kwargs)
            seen.extend(runs)
            return runs

        monkeypatch.setattr(cli, "run_family", recording)
        text = SIM_TEXT + "[converge]\nn_list = 5 50\n"
        assert run_command(parse_config(text, "converge", str(tmp_path))) == 0
        assert len(seen) == 2
        assert all(isinstance(run, PiecewiseTrajectory) for run in seen)


class TestDiagnoseCommand:
    def test_critical_pair_report(self, tmp_path):
        cfg = tmp_path / "dg.cfg"
        cfg.write_text(SIM_TEXT, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
        report = {}
        for line in (out / "report.txt").read_text().splitlines():
            key, _, value = line.partition(" = ")
            report[key] = value
        assert report["n_events"] == "1"
        assert report["n_sticking"] == "1"
        assert float(report["mean_velocity_drift"]) <= 1e-8
        assert float(report["r_violation"]) <= 1e-8
        assert float(report["ordered_sum_violation"]) <= 1e-8
        assert float(report["velocity_bound_margin"]) >= 0.0
        assert abs(float(report["holder_exponent"]) - 0.5) < 0.1
        assert report["integrability_1"].split() == ["0", "1", report["integrability_1"].split()[2], "Divergent"]
        series = (out / "r_series.csv").read_text().splitlines()
        assert series[0] == "t,r"
        assert series[1] == "0.0,32.0"
        assert len(series) > 10

    def test_report_on_too_few_samples(self, tmp_path, monkeypatch):
        # a pair closing at +-25 that sticks at the second of three samples:
        # no Holder window and no probe window, so both fall back
        x = np.array([[[-0.25], [0.25]], [[0.0], [0.0]], [[0.0], [0.0]]])
        v = np.array([[[25.0], [-25.0]], [[0.0], [0.0]], [[0.0], [0.0]]])

        def three_samples(system, config):
            return PiecewiseTrajectory(
                t=np.array([0.0, 0.01, 0.02]),
                x=x,
                v=v,
                grid_mask=np.ones(3, dtype=bool),
                events=[CollisionEvent(0.01, (0, 1), STICKING, 0.0, 0.0)],
                final_state=make_system(x[-1], v[-1], system.kernel),
                config=config,
            )

        monkeypatch.setattr(cli, "solve_piecewise", three_samples)
        assert run_command(parse_config(SIM_TEXT, "diagnose", str(tmp_path))) == 0
        report = (tmp_path / "report.txt").read_text().splitlines()
        assert not [line for line in report if line.startswith("holder_")]
        assert report[-1] == "integrability_1 = 0 1 nan Inconclusive"


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_config_not_utf8(self, tmp_path, capsys):
        # a Latin-1 byte where UTF-8 is required: invalid input, not a crash
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"[scenario]\n# caf\xe9\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {cfg}: ")
        assert "can't decode byte 0xe9" in err
        assert not (tmp_path / "o").exists()

    def test_invalid_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[weird]\n", encoding="utf-8")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "unknown section" in capsys.readouterr().err
        # a RunConfig built by hand skips the parser; the library's rule still applies
        scenario = ScenarioConfig(n=2, d=1, x=np.array([[-0.5], [0.5]]), v=np.array([[0.5], [-0.5]]))
        config = RunConfig("converge", scenario, SolverConfig(t_end=0.7), (5, 50), str(tmp_path / "c"))
        assert run_command(config) == 2
        assert capsys.readouterr().err == "error: alpha must lie strictly in (0, 1), got None\n"

    def test_runtime_failure(self, tmp_path, capsys):
        # the velocity difference of a pair closing near the float limit
        # overflows, so the derivative at the start is not finite
        cfg = tmp_path / "hot.cfg"
        cfg.write_text(
            SIM_TEXT.replace("v_1 = 2.0", "v_1 = 1e308").replace("v_2 = -2.0", "v_2 = -1e308"),
            encoding="utf-8",
        )
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == "error: non-finite derivative at t=0.0\n"
        # an output path that cannot be written
        csv = tmp_path / "w" / "trajectory.csv"
        csv.mkdir(parents=True)
        assert run_command(parse_config(SIM_TEXT, "simulate", str(csv.parent))) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {csv}: ")

    def test_failed_floor_check_is_a_runtime_failure(self, tmp_path, capsys):
        # a rate near the float limit overflows the derivative at the
        # start: a numerical failure, not an invalid input
        cfg = tmp_path / "floor.cfg"
        cfg.write_text(
            "[scenario]\nkernel = cucker_smale\n[twobody]\nphi0 = 1.0\ndphi0 = 1e308\n",
            encoding="utf-8",
        )
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["twobody", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == "error: non-finite derivative at t=0.0\n"
