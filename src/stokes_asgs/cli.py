"""Command-line front end: single solves, convergence studies, CSV reports.

Each run setting is a ``RunConfig`` field.  It is a key of the optional flat
key=value config file ('#' starts a comment) and one flag that overrides it.
A flag's text is cast like the file's, so the same text gives the same value
or the same error either way.  All floats are printed with 9 significant
digits so repeated runs produce byte-identical CSV.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields, replace

from . import manufactured
from .asgs_core import StepFailureError, count_steps
from .linalg import FactorBudgetError


@dataclass
class RunConfig:
    """One run's settings.  Each field is a config-file key, its value cast
    to the field's type (a bool from true/false/1/0), and one flag: --nx,
    --t-final and so on, --no-stab for the bool."""

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


_TYPES = {f.name: f.type for f in fields(RunConfig)}
_BOOLS = {"true": True, "false": False, "1": True, "0": False}


def _cast(key, value, where=""):
    """A file or override ``value`` as field ``key``'s type: a value of that
    type as is, an integral float as an int, anything else through its text
    (a bool from true/false/1/0); ConfigError, prefixed by ``where``, if it
    is none of these."""
    kind = _TYPES[key]
    if type(value) is kind:
        return value
    if kind is int and isinstance(value, float) and value.is_integer():
        return int(value)
    text = str(value)
    try:
        return _BOOLS[text.lower()] if kind is bool else kind(text)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{where}bad value for '{key}': {value}") from exc


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
    out = cfg.out
    if out is not None and (not out or "\0" in out or os.path.isdir(out)
                            or not os.path.isdir(os.path.dirname(out) or ".")):
        raise ConfigError(f"out must name a file in an existing directory, got {out!r}")
    return cfg


def parse_config(path=None, overrides=None):
    """Build a RunConfig from a key=value file plus flag overrides, each
    value cast to its field's type; an override of None is no override."""
    updates = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = list(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
        for lineno, raw in enumerate(lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got '{line}'")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in _TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
            updates[key] = _cast(key, value, f"{path}:{lineno}: ")
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    unknown = overrides.keys() - _TYPES.keys()
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    updates.update((key, _cast(key, value)) for key, value in overrides.items())
    return _validate(replace(RunConfig(), **updates))


def _fmt(value):
    return format(value, ".9g")


def _cell(value):
    if isinstance(value, int):
        return str(value)
    return "" if math.isnan(value) else _fmt(value)


def _write_csv(rows, out_path, trailer=()):
    """Write namedtuple ``rows`` under a header of their fields, then the
    ``trailer`` lines: an int as is, a float by ``_fmt``, NaN as empty."""
    lines = [",".join(rows[0]._fields)]
    lines += [",".join(map(_cell, row)) for row in rows]
    text = "\n".join([*lines, *trailer]) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)


# the LevelResult norms on the solve CSV's summary line
_SUMMARY = ("err_u_vtilde", "err_u_l2l2", "err_u_l2h1", "err_p_l2l2", "total",
            "eta")


def cmd_solve(cfg):
    """Run one transient solve and write its per-step CSV."""
    result = manufactured.run_verification_solve(
        cfg.nx, cfg.dt, cfg.theta, cfg.t_final, mu=cfg.mu, c1=cfg.c1,
        c2=cfg.c2, stabilized=cfg.stabilized)
    summary = " ".join(f"{key}={_fmt(getattr(result, key))}" for key in _SUMMARY)
    _write_csv(result.steps, cfg.out, [f"# summary {summary}"])


def cmd_study(cfg, levels, time_study=False):
    """Run a refinement study and write its rate CSV."""
    table, _ = manufactured.run_convergence_study(
        cfg.nx, cfg.dt, levels, theta=cfg.theta, t_final=cfg.t_final,
        mu=cfg.mu, c1=cfg.c1, c2=cfg.c2, stabilized=cfg.stabilized,
        time_study=time_study)
    _write_csv(table.rows, cfg.out)


def _add_common_flags(parser):
    # one flag per RunConfig field, kept as text for parse_config to cast
    parser.add_argument("--config", metavar="F")
    for key, kind in _TYPES.items():
        if kind is bool:  # the one switch: --no-stab turns stabilized off
            parser.add_argument("--no-stab", dest=key, action="store_const", const="false")
        else:
            parser.add_argument("--" + key.replace("_", "-"))


def main(argv=None):
    """Run the command in ``argv``; exit status 2 for a bad setting, 1 for a
    failed step, a refused factor or a failed write, else 0."""
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
        cfg = parse_config(args.config, {key: value for key, value in vars(args).items()
                                         if key in _TYPES})
        if args.command == "study" and args.levels < 2:
            raise ConfigError("study needs at least 2 levels")
    except (ConfigError, OSError) as exc:  # OSError: the config file could not be read
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "solve":
            cmd_solve(cfg)
        else:
            cmd_study(cfg, args.levels, time_study=args.time_study)
    except StepFailureError as exc:
        where = "solve" if exc.level is None else "level {} (nx={}, dt={:g})".format(*exc.level)
        print(f"error: {where} failed at {exc}", file=sys.stderr)
        return 1
    except (FactorBudgetError, OSError) as exc:  # OSError: the CSV could not be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
