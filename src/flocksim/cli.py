"""Command-line front end: config parsing, scenarios, and serialization.

Config files are line-oriented UTF-8 text: ``[section]`` headers group
``key = value`` lines, ``#`` starts a comment, blank lines are ignored.
Sections are ``[scenario]`` (initial data, inline or generated),
``[solver]`` (tolerances and thresholds), ``[twobody]`` (separation
problem inputs), and ``[converge]`` (cap index list).  ``_SCHEMA`` is the
single list of the scenario, solver and two-body keys with their types:
one reader parses every section through it and ``meta.txt`` echoes every
section from it; only the inline ``x_i``/``v_i`` rows and ``n_list`` have
readers of their own.  Unknown keys are rejected by name; structural
problems report the line number.  Each value is checked by the rule of the
library code that uses it, through ``_validated``; the CLI's own checks
are presence checks the grammar needs.

The scenario generator is pinned so the same seed reproduces the same
initial data everywhere: a SplitMix64 stream (increment
0x9E3779B97F4A7C15, mix constants 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB, final shifts 30/27/31), mapped to doubles in [0, 1)
by taking the top 53 bits.  Positions are drawn uniformly per component
in [-box/2, box/2]; velocities are drawn uniformly from the unit ball by
rejection and scaled by ``speed``.

Commands write into the output directory:

* ``simulate``: ``trajectory.csv`` (header ``t,x_1_1..x_N_d,v_1_1..v_N_d``,
  one row per sample, round-trippable decimal: the ``repr`` of each
  value), ``events.jsonl`` (one object per event: t_event, group, kind,
  rel_speed, min_dist).  A column that repeats another's bit pattern on
  every row, as the rows of a cluster do, is formatted once per row and
  its text copied; the file's bytes do not depend on this.
* ``twobody``: ``report.txt`` with the classification, the level-time
  table, and the bounded-kernel floor ratio when the kernel is the
  smooth family.
* ``converge``: ``convergence.csv`` with columns
  ``n,sup_dx,sup_dv,reference_gap_x,reference_gap_v`` (consecutive-gap
  fields are empty on the first row).  Each run's cap is its ``n_list``
  entry, so the command rejects a ``[solver]`` ``n_reg`` and its
  ``meta.txt`` has none.
* ``diagnose``: ``report.txt`` (flat ``key = value`` lines),
  ``r_series.csv``, and the ``simulate`` files.

Every successful command also writes ``meta.txt``, the resolved config
in the config grammar itself; parsing it gives the same run.

Exit codes: 0 success, 1 numerical failure, 2 invalid input.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

# run_family stays a module global: _cmd_converge calls it through this
# module, where a caller may wrap it to keep the family's trajectories
from .convergence import _check_n_list, cauchy_table, run_family
from .dynamics import ParticleSystem, make_system
from .errors import ConfigError, DomainError, FlockError, ValidationError
from .integrator import PiecewiseTrajectory, SolverConfig, solve_piecewise
from .kernels import CuckerSmaleKernel, SingularKernel, _check_alpha, _check_int, _check_positive

__all__ = [
    "SplitMix64",
    "ScenarioConfig",
    "TwoBodyConfig",
    "RunConfig",
    "parse_config",
    "generate_scenario",
    "build_system",
    "serialize_trajectory",
    "run_command",
    "main",
]

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator with the standard SplitMix constants."""

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK64

    def u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def uniform(self) -> float:
        return (self.u64() >> 11) * 2.0**-53

    def ball(self, d: int) -> list[float]:
        while True:
            comps = [2.0 * self.uniform() - 1.0 for _ in range(d)]
            if sum(c * c for c in comps) <= 1.0:
                return comps


def _check_scenario_size(n: int, d: int, box: float, speed: float) -> tuple[int, int]:
    """The particle count and dimension, as ints, of a valid scenario size."""
    n, d = _check_int(n, "n", 1), _check_int(d, "d", 1)
    _check_positive(box, "box")
    _check_positive(speed, "speed")
    return n, d


def generate_scenario(
    n: int, d: int, seed: int, box: float, speed: float
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded random initial data: box-uniform positions, ball velocities.
    Any integer ``seed`` is used modulo 2**64."""
    n, d = _check_scenario_size(n, d, box, speed)
    rng = SplitMix64(_check_int(seed, "seed", None))
    x = np.empty((n, d))
    v = np.empty((n, d))
    for i in range(n):
        for k in range(d):
            x[i, k] = box * (rng.uniform() - 0.5)
    for i in range(n):
        v[i] = [speed * c for c in rng.ball(d)]
    return x, v


@dataclass
class ScenarioConfig:
    n: Optional[int] = None
    d: Optional[int] = None
    alpha: Optional[float] = None
    mode: str = "inline"
    kernel: str = "singular"
    K: float = 1.0
    beta: float = 2.0
    seed: Optional[int] = None
    box: float = 1.0
    speed: float = 1.0
    x: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None


@dataclass
class TwoBodyConfig:
    phi0: float
    dphi0: float
    n_levels: int = 20


@dataclass
class RunConfig:
    command: str
    scenario: ScenarioConfig
    solver: SolverConfig
    twobody: Optional[TwoBodyConfig] = None
    n_list: Optional[tuple[int, ...]] = None
    out_dir: str = "flock_out"


# section -> key -> int, float or the words the key accepts, in the order
# meta.txt echoes them; the single list of the table-driven config keys
_SCHEMA = {
    "scenario": {
        "n": int, "d": int, "alpha": float,
        "mode": ("inline", "generate"), "kernel": ("singular", "cucker_smale"),
        "K": float, "beta": float,
        "seed": int, "box": float, "speed": float,
    },
    "solver": {f.name: type(f.default) for f in fields(SolverConfig)},
    "twobody": {"phi0": float, "dphi0": float, "n_levels": int},
}
# keys read only under one word of their section; meta.txt echoes them
# only when the section carries that word
_ONLY_UNDER = {"K": "cucker_smale", "beta": "cucker_smale",
               "seed": "generate", "box": "generate", "speed": "generate"}


def _parse_float(key: str, raw: str) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise ValidationError(f"not a number: {raw!r}", key=key) from None
    if not math.isfinite(val):
        raise ValidationError(f"must be finite, got {raw!r}", key=key)
    return val


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"not an integer: {raw!r}", key=key) from None


def _validated(key, check, *args, **kwargs):
    """``check(*args, **kwargs)``, with a DomainError re-raised as a
    ValidationError that names the error's own key, or else ``key``."""
    try:
        return check(*args, **kwargs)
    except DomainError as exc:
        raise ValidationError(str(exc), key=exc.key or key) from None


def _split_sections(text: str) -> dict[str, dict[str, str]]:
    """Raw value per key per section; structure errors here."""
    sections: dict[str, dict[str, str]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in (*_SCHEMA, "converge"):
                raise ConfigError(f"unknown section [{name}]", line=lineno)
            current = name
            sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        if current is None:
            raise ConfigError("key outside any [section]", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", line=lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", line=lineno)
        sections[current][key] = value
    return sections


def _parse_section(name: str, raw: dict[str, str]) -> dict:
    """Values of one ``_SCHEMA`` section by key, read in file order."""
    spec = _SCHEMA[name]
    values = {}
    for key, value in raw.items():
        kind = spec.get(key)
        if kind is None:
            raise ValidationError(f"unknown key in [{name}]", key=key)
        if kind is int:
            values[key] = _parse_int(key, value)
        elif kind is float:
            values[key] = _parse_float(key, value)
        elif value in kind:
            values[key] = value
        else:
            raise ValidationError(f"{key} must be {' or '.join(kind)}, got {value!r}", key=key)
    return values


def _build_scenario(raw: dict[str, str]) -> ScenarioConfig:
    rows = {key: value for key, value in raw.items() if key.startswith(("x_", "v_"))}
    scalars = {key: value for key, value in raw.items() if key not in rows}
    sc = ScenarioConfig(**_parse_section("scenario", scalars))
    if sc.alpha is not None:
        _validated(None, _check_alpha, sc.alpha)
    if sc.kernel == "cucker_smale":
        _validated(None, CuckerSmaleKernel, K=sc.K, beta=sc.beta)

    if rows:
        if sc.n is None or sc.d is None:
            raise ValidationError("inline rows need n and d declared", key="n")
        sc.x = _collect_rows("x", rows, sc.n, sc.d)
        sc.v = _collect_rows("v", rows, sc.n, sc.d)
        expected = {f"{p}_{i}" for p in ("x", "v") for i in range(1, sc.n + 1)}
        extra = rows.keys() - expected
        if extra:
            raise ValidationError("row index out of range", key=min(extra))
    return sc


def _collect_rows(prefix: str, rows, n: int, d: int) -> np.ndarray:
    out = np.empty((n, d))
    for i in range(1, n + 1):
        key = f"{prefix}_{i}"
        if key not in rows:
            raise ValidationError("missing inline row", key=key)
        parts = rows[key].split()
        if len(parts) != d:
            raise ValidationError(f"expected {d} components, got {len(parts)}", key=key)
        for k, part in enumerate(parts):
            out[i - 1, k] = _parse_float(key, part)
    return out


def _build_twobody(raw: dict[str, str]) -> TwoBodyConfig:
    values = _parse_section("twobody", raw)
    for key in ("phi0", "dphi0"):
        if key not in values:
            raise ValidationError("required for the separation problem", key=key)
    tb = TwoBodyConfig(**values)
    _validated("phi0", _check_positive, tb.phi0, "phi0")
    _validated("n_levels", _check_int, tb.n_levels, "n_levels", 2)
    return tb


def _build_n_list(raw: dict[str, str]) -> tuple[int, ...]:
    for key in raw:
        if key != "n_list":
            raise ValidationError("unknown key in [converge]", key=key)
    if "n_list" not in raw:
        raise ValidationError("required for convergence runs", key="n_list")
    parts = raw["n_list"].split()
    return _validated("n_list", _check_n_list, (_parse_int("n_list", p) for p in parts))


def parse_config(text: str, command: str = "simulate", out_dir: str = "flock_out") -> RunConfig:
    """Parse and fully validate one config document for a command."""
    if command not in _COMMANDS:
        raise ValidationError(f"unknown command {command!r}", key="command")
    sections = _split_sections(text)
    scenario = _build_scenario(sections.get("scenario", {}))
    solver = _validated(None, SolverConfig, **_parse_section("solver", sections.get("solver", {})))
    twobody = _build_twobody(sections["twobody"]) if "twobody" in sections else None
    n_list = _build_n_list(sections["converge"]) if "converge" in sections else None

    if command in ("simulate", "diagnose", "converge"):
        _validate_system_scenario(scenario, command)
    if command == "converge" and n_list is None:
        raise ValidationError("converge needs a [converge] section", key="n_list")
    if command == "converge" and "n_reg" in sections.get("solver", {}):
        raise ValidationError("converge takes its caps from [converge] n_list", key="n_reg")
    if command == "twobody":
        if twobody is None:
            raise ValidationError("twobody needs a [twobody] section", key="phi0")
        if scenario.kernel == "cucker_smale":
            from .twobody import _check_floor_rate

            _validated(None, _check_floor_rate, twobody.dphi0)
    if scenario.kernel == "singular" and scenario.alpha is None:
        raise ValidationError("required for the singular kernel", key="alpha")
    return RunConfig(
        command=command,
        scenario=scenario,
        solver=solver,
        twobody=twobody,
        n_list=n_list,
        out_dir=out_dir,
    )


def _validate_system_scenario(sc: ScenarioConfig, command: str) -> None:
    if sc.n is None:
        raise ValidationError("required", key="n")
    if sc.d is None:
        raise ValidationError("required", key="d")
    # inline scenarios keep the default box and speed, which pass
    _validated(None, _check_scenario_size, sc.n, sc.d, sc.box, sc.speed)
    if command == "converge" and sc.kernel != "singular":
        raise ValidationError("convergence runs use the singular kernel", key="kernel")
    if sc.mode == "inline":
        if sc.x is None or sc.v is None:
            raise ValidationError("inline scenarios need x_i and v_i rows", key="x_1")
    elif sc.seed is None:
        raise ValidationError("required for generated scenarios", key="seed")


def build_system(sc: ScenarioConfig) -> ParticleSystem:
    """Materialize the scenario's particle system."""
    if sc.kernel == "cucker_smale":
        kernel = CuckerSmaleKernel(K=sc.K, beta=sc.beta)
    else:
        kernel = SingularKernel(alpha=sc.alpha)
    if sc.mode == "inline":
        x, v = sc.x, sc.v
    else:
        x, v = generate_scenario(sc.n, sc.d, sc.seed, sc.box, sc.speed)
    return make_system(x, v, kernel)


def _fmt(val: float) -> str:
    return repr(float(val))


def _write_text(path: Path, content: str) -> None:
    try:
        path.write_text(content, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


# sample rows per block of the repeated-column check, which bounds the
# size of the block copies it compares
_CHECK_ROWS = 256


def _repeat_sources(bits: np.ndarray) -> np.ndarray:
    """Per column of ``bits``, a (samples, columns) ``uint64`` view of the
    packed rows, the first column with its bit pattern on every row.

    Candidate repeats share a bit pattern on the first row; each is then
    compared with its group's first column, a block of rows at a time, and
    one that differs on any row keeps its own column.  The map is exact,
    and ``0.0`` and ``-0.0`` never share a column."""
    ncol = bits.shape[1]
    _, first, inverse = np.unique(bits[0], return_index=True, return_inverse=True)
    src = first[inverse]
    cand = np.flatnonzero(src != np.arange(ncol))
    for lo in range(0, len(bits), _CHECK_ROWS):
        if not cand.size:
            break
        block = bits[lo : lo + _CHECK_ROWS]
        differs = np.any(block[:, cand] != block[:, src[cand]], axis=0)
        src[cand[differs]] = cand[differs]
        cand = cand[~differs]
    return src


def serialize_trajectory(traj: PiecewiseTrajectory, out_dir) -> None:
    """Write trajectory.csv and events.jsonl with round-trippable decimals.

    A column that repeats another's bit pattern on every row (the rows of a
    cluster, a zero axis) is formatted once per row and its text copied;
    the file's bytes do not depend on this."""
    out = Path(out_dir)
    s, n, d = traj.x.shape
    header = ["t"]
    header += [f"x_{i+1}_{k+1}" for i in range(n) for k in range(d)]
    header += [f"v_{i+1}_{k+1}" for i in range(n) for k in range(d)]
    lines = [",".join(header)]
    # one packed row per sample; tolist() yields Python floats, whose repr
    # is the text _fmt writes.  Row by row, so that no more than one row
    # of float objects is alive at a time.
    rows = np.column_stack([traj.t, traj.x.reshape(s, -1), traj.v.reshape(s, -1)])
    src = _repeat_sources(rows.view(np.uint64))
    heads = np.flatnonzero(src == np.arange(src.size))
    if heads.size == src.size:
        lines += [",".join(map(repr, row.tolist())) for row in rows]
    else:
        # each column's text is its source column's, by position in heads
        fan = operator.itemgetter(*np.searchsorted(heads, src).tolist())
        lines += [",".join(fan([*map(repr, row.tolist())])) for row in rows[:, heads]]
    _write_text(out / "trajectory.csv", "\n".join(lines) + "\n")

    ev_lines = []
    for e in traj.events:
        ev_lines.append(
            json.dumps(
                {
                    "t_event": float(e.t_event),
                    "group": [int(g) for g in e.group],
                    "kind": e.kind,
                    "rel_speed": float(e.rel_speed),
                    "min_dist": float(e.min_dist),
                },
                sort_keys=True,
            )
        )
    _write_text(out / "events.jsonl", "".join(line + "\n" for line in ev_lines))


def _meta_text(config: RunConfig) -> str:
    """The resolved config in the config grammar, one ``_SCHEMA`` section
    after another."""
    blocks = []
    for name, spec in _SCHEMA.items():
        section = getattr(config, name)
        if section is None:
            continue
        words = {getattr(section, key) for key, kind in spec.items() if isinstance(kind, tuple)}
        lines = [f"[{name}]"]
        for key, kind in spec.items():
            val = getattr(section, key)
            under = _ONLY_UNDER.get(key)
            if val is None or (under is not None and under not in words):
                continue
            if key == "n_reg" and config.command == "converge":
                continue  # each cap comes from n_list
            lines.append(f"{key} = {_fmt(val) if kind is float else val}")
        blocks.append(lines)
    sc = config.scenario
    if sc.mode == "inline" and sc.x is not None:
        blocks[0] += [f"x_{i} = " + " ".join(map(_fmt, row)) for i, row in enumerate(sc.x, 1)]
        blocks[0] += [f"v_{i} = " + " ".join(map(_fmt, row)) for i, row in enumerate(sc.v, 1)]
    if config.n_list is not None:
        blocks.append(["[converge]", "n_list = " + " ".join(map(str, config.n_list))])
    return f"# command: {config.command}\n" + "\n\n".join(map("\n".join, blocks)) + "\n"


def _cmd_simulate(config: RunConfig, out: Path) -> None:
    system = build_system(config.scenario)
    traj = solve_piecewise(system, config.solver)
    serialize_trajectory(traj, out)


def _cmd_twobody(config: RunConfig, out: Path) -> None:
    from .twobody import (
        CollideNonstick,
        NoCollision,
        StickFiniteTime,
        TwoBodyProblem,
        bounded_weight_floor_check,
        classify,
        critical_velocity,
        level_time_bound_check,
    )

    sc = config.scenario
    tb = config.twobody
    lines = []
    if sc.kernel == "cucker_smale":
        floor = bounded_weight_floor_check(
            tb.phi0, tb.dphi0, sc.K, sc.beta, config.solver.t_end
        )
        lines.append(f"floor_min_ratio = {_fmt(floor.min_ratio)}")
        lines.append(f"floor_ok = {floor.ok}")
    else:
        problem = TwoBodyProblem(phi0=tb.phi0, dphi0=tb.dphi0, alpha=sc.alpha)
        outcome = classify(problem)
        lines.append(f"critical_velocity = {_fmt(critical_velocity(tb.phi0, sc.alpha))}")
        if isinstance(outcome, StickFiniteTime):
            lines.append("outcome = Stick")
            lines.append(f"stick_time = {_fmt(outcome.t0)}")
        elif isinstance(outcome, CollideNonstick):
            lines.append("outcome = Collide")
            lines.append(f"impact_speed = {_fmt(outcome.impact_speed)}")
            lines.append(f"t_hit = {_fmt(outcome.t_hit)}")
        elif isinstance(outcome, NoCollision):
            lines.append("outcome = NoCollision")
            lines.append(f"phi_limit = {_fmt(outcome.phi_limit)}")
        records = level_time_bound_check(tb.phi0, sc.alpha, tb.n_levels)
        for rec in records:
            lines.append(
                f"level_{rec.n} = {_fmt(rec.gap)} {_fmt(rec.bound)} {'ok' if rec.ok else 'VIOLATED'}"
            )
    _write_text(out / "report.txt", "".join(line + "\n" for line in lines))


def _cmd_converge(config: RunConfig, out: Path) -> None:
    system = build_system(config.scenario)
    runs = run_family(system.x, system.v, config.scenario.alpha, config.n_list, config.solver)
    report = cauchy_table(runs)
    lines = ["n,sup_dx,sup_dv,reference_gap_x,reference_gap_v"]
    for k, n in enumerate(report.n_list):
        dx = _fmt(report.sup_dx[k - 1]) if k > 0 else ""
        dv = _fmt(report.sup_dv[k - 1]) if k > 0 else ""
        lines.append(
            f"{n},{dx},{dv},{_fmt(report.reference_gap_x[k])},{_fmt(report.reference_gap_v[k])}"
        )
    _write_text(out / "convergence.csv", "\n".join(lines) + "\n")


def _cmd_diagnose(config: RunConfig, out: Path) -> None:
    from .diagnostics import run_diagnostics

    system = build_system(config.scenario)
    traj = solve_piecewise(system, config.solver)
    report = run_diagnostics(traj)
    lines = [
        f"mean_velocity_drift = {_fmt(report.mean_velocity_drift)}",
        f"r_violation = {_fmt(report.r_violation)}",
        f"ordered_sum_violation = {_fmt(report.ordered_sum_violation)}",
        f"velocity_bound_margin = {_fmt(report.velocity_bound_margin)}",
        f"n_events = {len(traj.events)}",
        f"n_sticking = {traj.n_sticking}",
    ]
    if report.holder is not None:
        lines.append(f"holder_exponent = {_fmt(report.holder.exponent)}")
        lines.append(f"holder_residual = {_fmt(report.holder.residual)}")
    for idx, rec in enumerate(report.integrability, start=1):
        est = "nan" if math.isnan(rec.estimate) else _fmt(rec.estimate)
        lines.append(
            f"integrability_{idx} = {rec.pair[0]} {rec.pair[1]} {est} {rec.classification}"
        )
    _write_text(out / "report.txt", "".join(line + "\n" for line in lines))
    series = ["t,r"]
    for t, r in zip(report.r_t, report.r_values):
        series.append(f"{_fmt(t)},{_fmt(r)}")
    _write_text(out / "r_series.csv", "\n".join(series) + "\n")
    serialize_trajectory(traj, out)


# command -> the function that writes its outputs besides meta.txt
_COMMANDS = {
    "simulate": _cmd_simulate,
    "twobody": _cmd_twobody,
    "converge": _cmd_converge,
    "diagnose": _cmd_diagnose,
}


def run_command(config: RunConfig) -> int:
    """Dispatch a validated RunConfig; returns the process exit code."""
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[config.command](config, out)
        _write_text(out / "meta.txt", _meta_text(config))
        return 0
    except (ConfigError, ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FlockError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="flock", description="alignment dynamics simulator and analysis tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run config file")
        p.add_argument("--out", default="flock_out", help="output directory")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text, command=args.command, out_dir=args.out)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_command(config)


if __name__ == "__main__":
    sys.exit(main())
