import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokes_asgs import cli, linalg
from stokes_asgs.cli import ConfigError, RunConfig, main, parse_config


def run_cli(args):
    return main(args)


def test_defaults_solve_row_count(tmp_path, capsys):
    out = tmp_path / "solve.csv"
    status = run_cli(["solve", "--out", str(out)])
    assert status == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,t,err_u_l2,err_u_h1,err_p_l2,eta"
    data = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data) == 10
    assert lines[-1].startswith("# summary")
    assert all(len(l.split(",")) == 6 for l in data)


def test_solve_csv_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["solve", "--nx", "6", "--dt", "0.25", "--out", str(a)]) == 0
    assert run_cli(["solve", "--nx", "6", "--dt", "0.25", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_study_minimal_two_levels(tmp_path):
    out = tmp_path / "study.csv"
    status = run_cli(["study", "--nx", "4", "--dt", "0.25", "--levels", "2",
                      "--out", str(out)])
    assert status == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "level,nx,h,dt,err_u_vtilde,err_p_l2l2,total,roc,eta"
    assert len(lines) == 3
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert first[7] == ""          # no rate on the first level
    assert float(second[7]) != 0.0


def test_study_level_grid_protocol(tmp_path):
    out = tmp_path / "study.csv"
    assert run_cli(["study", "--nx", "4", "--dt", "0.5", "--levels", "3",
                    "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    assert [int(r[1]) for r in rows] == [4, 8, 16]
    assert [float(r[3]) for r in rows] == [0.5, 0.25, 0.125]


def test_time_study_keeps_nx_fixed(tmp_path):
    out = tmp_path / "tstudy.csv"
    assert run_cli(["study", "--nx", "8", "--dt", "0.5", "--theta", "0",
                    "--levels", "3", "--time-study", "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    assert [int(r[1]) for r in rows] == [8, 8, 8]
    assert [float(r[3]) for r in rows] == [0.5, 0.25, 0.125]
    # rates are taken against dt ratios: recompute one by hand
    totals = [float(r[6]) for r in rows]
    roc1 = float(rows[1][7])
    assert roc1 == pytest.approx(np.log(totals[0] / totals[1]) / np.log(2.0),
                                 rel=1e-5, abs=1e-7)


def test_unstabilized_either_fails_or_is_worse(tmp_path):
    out_s = tmp_path / "stab.csv"
    assert run_cli(["solve", "--nx", "10", "--out", str(out_s)]) == 0
    out_u = tmp_path / "unstab.csv"
    status = run_cli(["solve", "--nx", "10", "--no-stab", "--out", str(out_u)])
    if status == 0:
        def p_err(path):
            for line in path.read_text().splitlines():
                if line.startswith("# summary"):
                    return float(line.split("err_p_l2l2=")[1].split()[0])
        assert p_err(out_u) > p_err(out_s)
    else:
        assert status == 1
        assert not out_u.exists()


def test_study_labels_failing_level(tmp_path, capsys):
    out = tmp_path / "study.csv"
    status = run_cli(["study", "--nx", "10", "--dt", "0.1", "--levels", "2",
                      "--no-stab", "--out", str(out)])
    assert status == 1
    err = capsys.readouterr().err
    assert "level 0" in err and "step" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["solve"], ["study", "--levels", "2"]])
def test_refused_factor_is_one_error_line(monkeypatch, tmp_path, capsys, command):
    # a factor over the budget ends the run like a failed step: status 1 and
    # one error line, no traceback and no CSV
    monkeypatch.setattr(linalg, "FACTOR_BUDGET_BYTES", 10_000)
    out = tmp_path / "out.csv"
    status = run_cli(command + ["--nx", "8", "--dt", "0.5", "--t-final", "0.5",
                                "--out", str(out)])
    assert status == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "budget of 10000 bytes" in err[0]
    assert not out.exists()


# ------------------------------------------------------------- config

def test_parse_config_empty_file_gives_defaults(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("")
    cfg = parse_config(str(cfg_file))
    assert cfg == RunConfig()
    assert (cfg.nx, cfg.dt, cfg.theta, cfg.t_final) == (10, 0.1, 1, 1.0)
    assert (cfg.mu, cfg.c1, cfg.c2) == (0.1, 4.0, 2.0)


def test_parse_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment line\nnx = 20\ntheta = 0\ndt = 0.05\n")
    cfg = parse_config(str(cfg_file))
    assert cfg.nx == 20 and cfg.theta == 0 and cfg.dt == 0.05
    cfg = parse_config(str(cfg_file), {"nx": 40})
    assert cfg.nx == 40 and cfg.theta == 0


def test_parse_config_unknown_key(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("viscosity = 0.1\n")
    with pytest.raises(ConfigError, match="viscosity"):
        parse_config(str(cfg_file))
    cfg_file.write_text("solver = direct\n")
    with pytest.raises(ConfigError, match="solver"):
        parse_config(str(cfg_file))


# one valid file value per RunConfig field, and the type it must parse to
_FILE_VALUES = {
    "nx": ("20", 20, int),
    "dt": ("0.05", 0.05, float),
    "theta": ("0", 0, int),
    "t_final": ("2.0", 2.0, float),
    "mu": ("0.2", 0.2, float),
    "c1": ("3.0", 3.0, float),
    "c2": ("1.5", 1.5, float),
    "stabilized": ("false", False, bool),
    "out": ("run.csv", "run.csv", str),
}


@pytest.mark.parametrize("key", [f.name for f in fields(RunConfig)])
def test_parse_config_casts_each_field(tmp_path, key):
    text, want, kind = _FILE_VALUES[key]
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = {text}\n")
    value = getattr(parse_config(str(cfg_file)), key)
    assert value == want and type(value) is kind


def test_parse_config_integral_theta_override_is_int():
    assert type(parse_config(None, {"theta": 1.0}).theta) is int


def _config_built_by_main(monkeypatch, argv):
    seen = []
    monkeypatch.setattr(cli, "cmd_solve", lambda cfg: seen.append(cfg) or 0)
    assert main(argv) == 0
    return seen[0]


def test_flags_override_only_their_fields(tmp_path, monkeypatch):
    argv = ["solve", "--no-stab", "--dt", "0.5", "--t-final", "0.5"]
    cfg = _config_built_by_main(monkeypatch, argv)
    assert cfg == replace(RunConfig(), dt=0.5, t_final=0.5, stabilized=False)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("nx = 6\nmu = 0.2\nstabilized = true\n")
    cfg = _config_built_by_main(monkeypatch, argv + ["--config", str(cfg_file)])
    assert cfg == replace(RunConfig(), nx=6, mu=0.2, dt=0.5, t_final=0.5,
                          stabilized=False)
    # an absent --no-stab leaves the file's value alone
    cfg_file.write_text("stabilized = false\n")
    cfg = _config_built_by_main(monkeypatch, ["solve", "--config", str(cfg_file)])
    assert cfg == replace(RunConfig(), stabilized=False)


def test_parse_config_rejects_fractional_theta():
    with pytest.raises(ConfigError):
        parse_config(None, {"theta": 0.5})


def test_parse_config_rejects_nonpositive_t_final():
    with pytest.raises(ConfigError):
        parse_config(None, {"t_final": 0.0})


def test_parse_config_rejects_incompatible_dt():
    with pytest.raises(ConfigError):
        parse_config(None, {"dt": 0.3, "t_final": 1.0})


@pytest.mark.parametrize("key,value", [("dt", "nan"), ("t_final", "inf"),
                                       ("mu", "nan"), ("c1", "-inf"),
                                       ("dt", "1e-320")])
def test_parse_config_rejects_non_finite(tmp_path, key, value):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = {value}\n")
    with pytest.raises(ConfigError):
        parse_config(str(cfg_file))


_KEYS = [f.name for f in fields(RunConfig)] + ["solver", "viscosity", "", "nx x"]
_VALUES = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e3", "1e308", "1e-320",
                     "", "0", "-1", "0.1", "0.05", "1", "2", "true", "0.3"]),
    st.text(max_size=8))
_LINES = st.one_of(st.tuples(st.sampled_from(_KEYS), _VALUES).map(
    lambda kv: f"{kv[0]} = {kv[1]}"), st.text(max_size=12))


def _assert_total(cfg_file):
    try:
        cfg = parse_config(str(cfg_file))
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    for key in ("dt", "t_final", "mu", "c1", "c2"):
        value = getattr(cfg, key)
        assert math.isfinite(value) and value > 0


@settings(max_examples=200, deadline=None)
@given(st.lists(_LINES, max_size=6))
def test_parse_config_total_on_arbitrary_text(tmp_path_factory, lines):
    # any text either parses to a usable config or raises ConfigError
    cfg_file = tmp_path_factory.getbasetemp() / "arbitrary.cfg"
    cfg_file.write_text("\n".join(lines), encoding="utf-8")
    _assert_total(cfg_file)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_LINES.map(str.encode), st.binary(max_size=8)),
                max_size=6))
def test_parse_config_total_on_arbitrary_bytes(tmp_path_factory, lines):
    # so do any bytes, UTF-8 or not
    cfg_file = tmp_path_factory.getbasetemp() / "arbitrary.cfg"
    cfg_file.write_bytes(b"\n".join(lines))
    _assert_total(cfg_file)


def test_cli_usage_error_exit_code(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("nx = -3\n")
    assert run_cli(["solve", "--config", str(cfg_file)]) == 2
    assert run_cli(["solve", "--config", str(tmp_path / "missing.cfg")]) == 2
    cfg_file.write_bytes(b"nx = 4\n\xff\xfe = 1\n")
    assert run_cli(["solve", "--config", str(cfg_file)]) == 2


def test_cli_theta_flag_validation():
    with pytest.raises(SystemExit):
        main(["solve", "--theta", "2"])


def test_study_rejects_single_level():
    assert run_cli(["study", "--levels", "1", "--nx", "4", "--dt", "0.25"]) == 2
