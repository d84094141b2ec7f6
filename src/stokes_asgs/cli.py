"""Command-line front end: single solves, convergence studies, CSV reports.

Configuration comes from an optional flat key=value file ('#' starts a
comment) overridden by command-line flags.  All floats are printed with 9
significant digits so repeated runs produce byte-identical CSV.
"""

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace

from . import manufactured
from .asgs_core import StepFailureError, count_steps


@dataclass
class RunConfig:
    nx: int = 10
    dt: float = 0.1
    theta: int = 1
    t_final: float = 1.0
    mu: float = 0.1
    c1: float = 4.0
    c2: float = 2.0
    stabilized: bool = True
    out: str = None


class ConfigError(Exception):
    pass


_CASTS = {
    "nx": int,
    "dt": float,
    "theta": int,
    "t_final": float,
    "mu": float,
    "c1": float,
    "c2": float,
    "stabilized": lambda s: {"true": True, "false": False, "1": True, "0": False}[str(s).lower()],
    "out": str,
}


def _validate(cfg):
    if cfg.nx < 1:
        raise ConfigError(f"nx must be >= 1, got {cfg.nx}")
    if cfg.theta not in (0, 1):
        raise ConfigError(f"theta must be 0 or 1, got {cfg.theta}")
    for key in ("dt", "t_final", "mu", "c1", "c2"):
        value = getattr(cfg, key)
        if not (value > 0 and math.isfinite(value)):
            raise ConfigError(f"{key} must be finite and positive, got {value}")
    try:
        count_steps(cfg.t_final, cfg.dt)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def parse_config(path=None, overrides=None):
    """Build a RunConfig from a key=value file plus flag overrides."""
    cfg = RunConfig()
    known = {f.name for f in fields(RunConfig)}
    if path is not None:
        updates = {}
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got '{line}'")
                key, value = (s.strip() for s in line.split("=", 1))
                if key not in known:
                    raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
                try:
                    updates[key] = _CASTS[key](value)
                except (ValueError, KeyError) as exc:
                    raise ConfigError(f"{path}:{lineno}: bad value for '{key}': {value}") from exc
        cfg = replace(cfg, **updates)
    if overrides:
        unknown = set(overrides) - known
        if unknown:
            raise ConfigError(f"unknown keys: {sorted(unknown)}")
        cfg = replace(cfg, **overrides)
    # theta may arrive as a float flag value; only exact 0/1 are meaningful
    if cfg.theta != int(cfg.theta):
        raise ConfigError(f"theta must be 0 or 1, got {cfg.theta}")
    cfg = replace(cfg, theta=int(cfg.theta))
    return _validate(cfg)


def _fmt(value):
    return format(value, ".9g")


def _write_lines(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)


def cmd_solve(cfg):
    """Run one transient solve; returns a process exit status."""
    try:
        result = manufactured.run_verification_solve(
            cfg.nx, cfg.dt, cfg.theta, cfg.t_final, mu=cfg.mu, c1=cfg.c1,
            c2=cfg.c2, stabilized=cfg.stabilized, collect_steps=True)
    except StepFailureError as exc:
        print(f"error: solve failed at {exc}", file=sys.stderr)
        return 1
    lines = ["step,t,err_u_l2,err_u_h1,err_p_l2,eta"]
    for row in result.steps:
        lines.append(",".join([str(row["step"]), _fmt(row["t"]),
                               _fmt(row["err_u_l2"]), _fmt(row["err_u_h1"]),
                               _fmt(row["err_p_l2"]), _fmt(row["eta"])]))
    lines.append("# summary"
                 f" err_u_vtilde={_fmt(result.err_u_vtilde)}"
                 f" err_u_l2l2={_fmt(result.err_u_l2l2)}"
                 f" err_u_l2h1={_fmt(result.err_u_l2h1)}"
                 f" err_p_l2l2={_fmt(result.err_p_l2l2)}"
                 f" total={_fmt(result.total)}"
                 f" eta={_fmt(result.eta)}")
    _write_lines(lines, cfg.out)
    return 0


def cmd_study(cfg, levels, time_study=False):
    """Run a refinement study; returns a process exit status."""
    if levels < 2:
        print("error: study needs at least 2 levels", file=sys.stderr)
        return 2
    try:
        table, _ = manufactured.run_convergence_study(
            cfg.nx, cfg.dt, levels, theta=cfg.theta, t_final=cfg.t_final,
            mu=cfg.mu, c1=cfg.c1, c2=cfg.c2, stabilized=cfg.stabilized,
            time_study=time_study)
    except StepFailureError as exc:
        i, nx, dt = exc.level
        print(f"error: level {i} (nx={nx}, dt={dt:g}) failed at {exc}",
              file=sys.stderr)
        return 1
    lines = ["level,nx,h,dt,err_u_vtilde,err_p_l2l2,total,roc,eta"]
    for row in table.rows:
        roc = "" if row.level == 0 else _fmt(row.roc)
        lines.append(",".join([str(row.level), str(row.nx), _fmt(row.h),
                               _fmt(row.dt), _fmt(row.err_u_vtilde),
                               _fmt(row.err_p_l2l2), _fmt(row.total), roc,
                               _fmt(row.eta)]))
    _write_lines(lines, cfg.out)
    return 0


def _add_common_flags(parser):
    parser.add_argument("--config", metavar="F", default=None)
    parser.add_argument("--nx", type=int)
    parser.add_argument("--dt", type=float)
    parser.add_argument("--theta", type=int, choices=(0, 1))
    parser.add_argument("--t-final", dest="t_final", type=float)
    parser.add_argument("--mu", type=float)
    parser.add_argument("--c1", type=float)
    parser.add_argument("--c2", type=float)
    parser.add_argument("--no-stab", dest="no_stab", action="store_true")
    parser.add_argument("--out", metavar="F")


def _config_from_args(args):
    overrides = {}
    for key in ("nx", "dt", "theta", "t_final", "mu", "c1", "c2", "out"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    if args.no_stab:
        overrides["stabilized"] = False
    return parse_config(args.config, overrides)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="stokes-asgs",
        description="Stabilized P1/P1 transient Stokes solver (unit square test problem)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="one transient solve with per-step error CSV")
    _add_common_flags(p_solve)

    p_study = sub.add_parser("study", help="refinement study with a rate-of-convergence CSV")
    _add_common_flags(p_study)
    p_study.add_argument("--levels", type=int, default=5)
    p_study.add_argument("--time-study", dest="time_study", action="store_true",
                         help="keep nx fixed and halve dt only; rates taken against dt")

    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "solve":
        return cmd_solve(cfg)
    return cmd_study(cfg, args.levels, time_study=args.time_study)


if __name__ == "__main__":
    sys.exit(main())
