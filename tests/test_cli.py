"""CLI layer: config text, presets, and the run/verify/sweep commands."""

import io
import contextlib
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from oldroyd2d import cli, integrate
from oldroyd2d import diagnostics as dg
from oldroyd2d.grid import Grid2D, ParamError, cell_sum
from oldroyd2d.integrate import StepConfig
from oldroyd2d.model import _STATE_TAG, PhysParams, RegParams, load_state, save_state
from oldroyd2d.symcalc import IneqResult, NotSPDError, SymMat2


def serialize(cfg: cli.RunConfig) -> str:
    """Emit text whose parse compares equal to cfg (round-trip invariant)."""
    sections = {Grid2D: cfg.grid, PhysParams: cfg.phys, RegParams: cfg.reg,
                StepConfig: cfg.step}
    lines = []
    for key, (owner, name) in cli._KEY_TABLE.items():
        if owner is Grid2D and cfg.grid is None:
            continue  # a file: initial carries no grid
        val = getattr(sections.get(owner, cfg), name)
        text = "auto" if val is None else repr(val) if isinstance(val, float) else str(val)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def capture(fn, *args):
    """Run a command, returning (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fn(*args)
    return code, out.getvalue(), err.getvalue()


class TestParseConfig:
    def test_empty_text_gives_documented_defaults(self):
        cfg = cli.parse_config("")
        assert cfg.initial == "equilibrium"
        assert cfg.reg.alpha == 0.1
        assert cfg.reg.sigma1 == cfg.reg.sigma2 == cfg.reg.sigma3 == 0.0
        assert cfg.reg.theta == 0.1
        assert cfg.step.dt is None and cfg.step.scheme == "rk2"
        assert cfg.phys.gamma == 2.0 and cfg.phys.lam == 1.0
        assert (cfg.grid.nx, cfg.grid.ny) == (64, 64)
        assert cfg.csv == "" and cfg.snapshot == ""

    def test_comments_and_blank_lines(self):
        cfg = cli.parse_config("# header\n\nalpha = 0.2  # inline\n\n# tail\n")
        assert cfg.reg.alpha == 0.2

    def test_lambda_key_maps_to_relaxation_time(self):
        assert cli.parse_config("lambda = 0.25").phys.lam == 0.25

    def test_dt_auto_literal(self):
        assert cli.parse_config("dt = auto").step.dt is None
        assert cli.parse_config("dt = 0.001").step.dt == 0.001

    def test_unknown_key_cites_line(self):
        with pytest.raises(cli.ConfigError, match="line 2: unknown key 'wobble'"):
            cli.parse_config("alpha = 0.1\nwobble = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(cli.ConfigError, match="duplicate key 'alpha'"):
            cli.parse_config("alpha = 0.1\nalpha = 0.2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(cli.ConfigError, match="line 1: expected 'key = value'"):
            cli.parse_config("alpha 0.1")

    def test_bad_number_cites_key_and_line(self):
        with pytest.raises(cli.ConfigError, match="line 1: key 'nx' expects an integer"):
            cli.parse_config("nx = 4.5")
        with pytest.raises(cli.ConfigError, match="key 'muS' expects a number"):
            cli.parse_config("muS = sticky")

    def test_gamma_constraint_cited(self):
        with pytest.raises(cli.ConfigError, match=r"line 1: gamma = 0.5 violates gamma > 1"):
            cli.parse_config("gamma = 0.5")

    def test_cutoff_must_sit_below_alpha_and_theta(self):
        with pytest.raises(cli.ConfigError, match=r"sigma3 < min\(alpha, theta\)"):
            cli.parse_config("sigma3 = 0.2\nalpha = 0.1\n")

    def test_artificial_pressure_exponent_constraint(self):
        with pytest.raises(cli.ConfigError, match="Gamma >= 4"):
            cli.parse_config("sigma1 = 0.5\nGamma = 2\n")
        # Gamma below 4 is fine while sigma1 stays zero
        assert cli.parse_config("Gamma = 2").reg.Gamma == 2.0

    def test_polymer_pressure_needs_L_or_delta(self):
        with pytest.raises(cli.ConfigError, match="both vanish"):
            cli.parse_config("L = 0\ndelta = 0\n")

    def test_amp_range(self):
        with pytest.raises(cli.ConfigError, match="amp"):
            cli.parse_config("amp = 1.5")

    def test_initial_names(self):
        for name in cli.PRESETS:
            assert cli.parse_config(f"initial = {name}").initial == name
        assert cli.parse_config("initial = file:/tmp/x").initial == "file:/tmp/x"
        with pytest.raises(cli.ConfigError, match="initial"):
            cli.parse_config("initial = vortex")
        with pytest.raises(cli.ConfigError, match="initial"):
            cli.parse_config("initial = file:")

    def test_serialize_parse_round_trip(self):
        text = ("nx = 16\nny = 24\nlambda = 0.5\ndt = 0.001\n"
                "initial = shear-layer\ncsv = out.csv\n")
        cfg = cli.parse_config(text)
        again = cli.parse_config(serialize(cfg))
        assert again == cfg
        assert serialize(again) == serialize(cfg)

    def test_round_trip_keeps_auto_dt(self):
        cfg = cli.parse_config("dt = auto")
        assert cli.parse_config(serialize(cfg)).step.dt is None

    @pytest.mark.parametrize("key", ["nx", "ny", "lx", "ly"])
    def test_file_initial_rejects_grid_keys(self, key):
        with pytest.raises(cli.ConfigError,
                           match=f"^line 2: {key} cannot be set .*snapshot$"):
            cli.parse_config(f"initial = file:/tmp/x\n{key} = 8\nalpha = 0.2\n")

    def test_file_initial_round_trip_omits_grid_keys(self):
        cfg = cli.parse_config("initial = file:/tmp/x\nalpha = 0.2\n")
        text = serialize(cfg)
        keys = {line.split("=")[0].strip() for line in text.splitlines()}
        assert keys.isdisjoint({"nx", "ny", "lx", "ly"})
        assert cli.parse_config(text) == cfg

    def test_file_initial_carries_no_grid(self):
        cfg = cli.parse_config("initial = file:x")
        assert cfg.grid is None
        assert cli.parse_config(serialize(cfg)) == cfg

    @settings(max_examples=25, deadline=None)
    @given(
        mu=st.floats(1e-3, 1e3, allow_nan=False),
        al=st.floats(0.0, 10.0, allow_nan=False),
        tend=st.floats(0.0, 100.0, allow_nan=False),
    )
    def test_round_trip_survives_awkward_floats(self, mu, al, tend):
        text = f"muS = {mu!r}\nalpha = {al!r}\nt_end = {tend!r}\n"
        cfg = cli.parse_config(text)
        assert cli.parse_config(serialize(cfg)) == cfg


# One violating config per rule, 30 owned by the parameter dataclasses and
# 5 by RunConfig, each after a comment line; each message is pinned byte for
# byte, line prefix included.
_RULE_CASES = [
    ("nx", "nx = 3", "line 2: nx = 3 violates nx >= 4"),
    ("ny", "ny = 2", "line 2: ny = 2 violates ny >= 4"),
    ("lx", "lx = 0", "line 2: lx = 0.0 violates lx > 0"),
    ("ly", "ly = -1.5", "line 2: ly = -1.5 violates ly > 0"),
    ("spacing", "nx = 4\nny = 4\nlx = 1e-300\nly = 1e-300",
     "line 5: cell spacings lx / nx = 2.500e-301 and ly / ny = 2.500e-301 must "
     "have squares that are normal floats"),
    ("area", "lx = 1e300\nly = 1e300",
     "line 3: domain area lx * ly = 1e+300 * 1e+300 overflows"),
    ("size", "nx = 100000000000\nny = 100000000000",
     "line 3: grid nx * ny = 100000000000 * 100000000000 is too large: one "
     "component needs 8 * nx * ny bytes, at most 9223372036854775807"),
    ("a", "a = 0", "line 2: a = 0.0 violates a > 0 (pressure coefficient)"),
    ("gamma", "gamma = 1",
     "line 2: gamma = 1.0 violates gamma > 1 (adiabatic exponent)"),
    ("muS", "muS = -1", "line 2: muS = -1.0 violates muS > 0 (shear viscosity)"),
    ("muB", "muB = -0.5",
     "line 2: muB = -0.5 violates muB >= 0 (bulk viscosity)"),
    ("eps", "eps = 0", "line 2: eps = 0.0 violates eps > 0 (stress diffusion)"),
    ("k", "k = 0", "line 2: k = 0.0 violates k > 0"),
    ("L", "L = -1", "line 2: L = -1.0 violates L >= 0"),
    ("delta", "delta = -0.25", "line 2: delta = -0.25 violates delta >= 0"),
    ("L+delta", "L = 0\ndelta = 0",
     "line 3: L and delta cannot both vanish (the polymer pressure needs at "
     "least one of them)"),
    ("lambda", "lambda = 0",
     "line 2: lambda = 0.0 violates lambda > 0 (relaxation time)"),
    ("A0", "A0 = -2", "line 2: A0 = -2.0 violates A0 > 0"),
    ("alpha", "alpha = -0.1", "line 2: alpha = -0.1 violates alpha >= 0"),
    ("sigma1", "sigma1 = -1", "line 2: sigma1 = -1.0 violates sigma1 >= 0"),
    ("sigma2", "sigma2 = -0.5", "line 2: sigma2 = -0.5 violates sigma2 >= 0"),
    ("sigma3", "sigma3 = -0.01", "line 2: sigma3 = -0.01 violates sigma3 >= 0"),
    ("theta", "theta = 0",
     "line 2: theta = 0.0 violates theta > 0 (mollification radius)"),
    ("Gamma", "sigma1 = 0.5\nGamma = 3.5",
     "line 3: Gamma = 3.5 violates Gamma >= 4, required whenever sigma1 > 0 "
     "(artificial pressure exponent)"),
    ("sigma3-cap", "sigma3 = 0.2\nalpha = 0.1",
     "line 3: sigma3 = 0.2 violates sigma3 < min(alpha, theta) = 0.1 (the "
     "eigenvalue cutoff must sit below the stress shift and the "
     "mollification radius)"),
    ("dt", "dt = 0", "line 2: dt = 0.0 violates dt > 0 (or the literal 'auto')"),
    ("t_end", "t_end = -1", "line 2: t_end = -1.0 violates t_end >= 0"),
    ("cfl", "cfl = 1.5", "line 2: cfl = 1.5 violates 0 < cfl <= 1"),
    ("scheme", "scheme = euler",
     "line 2: scheme = 'euler' must be 'rk2' or 'imex'"),
    ("diag_every", "diag_every = 0",
     "line 2: diag_every = 0 violates diag_every >= 1"),
    ("initial", "initial = vortex",
     "line 2: initial = 'vortex' must be one of equilibrium, "
     "perturbed-equilibrium, shear-layer or file:<path>"),
    ("rho_bar", "rho_bar = 0", "line 2: rho_bar = 0.0 violates rho_bar > 0"),
    ("eta_bar", "eta_bar = -1", "line 2: eta_bar = -1.0 violates eta_bar > 0"),
    ("amp", "amp = 1",
     "line 2: amp = 1.0 violates 0 <= amp < 1 (relative perturbation sizes "
     "at or above 1 destroy positivity of the preset data)"),
    ("theta-domain", "initial = shear-layer\ntheta = 2",
     "line 3: theta = 2.0 violates theta <= min(lx, ly) = 1.0 for initial = "
     "shear-layer (the mollifier must fit the domain)"),
]


class TestConfigRules:
    @pytest.mark.parametrize("body, message", [c[1:] for c in _RULE_CASES],
                             ids=[c[0] for c in _RULE_CASES])
    def test_each_rule_reports_its_message_and_line(self, body, message):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config("# a leading comment\n" + body)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, line", [
        ("sigma1 = 0.5\nmuS = 2\nGamma = 3.5", 3),
        ("Gamma = 3.5\nmuS = 2\nsigma1 = 0.5", 3),
        ("delta = 0\n\n# gap\nL = 0", 4),
        ("sigma3 = 0.05\ntheta = 0.03\nmuS = 2\nalpha = 0.5", 4),
        ("muS = 2\nsigma3 = 0.2", 2),  # alpha and theta left at defaults
        ("L = 0\nmuS = 2", 1),         # delta left at its default
        ("theta = 0.8\nmuS = 2\nly = 0.5\ninitial = shear-layer", 4),
        ("initial = perturbed-equilibrium\ntheta = 0.4\nlx = 0.3\nmuS = 2", 3),
    ])
    def test_multi_key_rule_cites_latest_line_set(self, text, line):
        with pytest.raises(cli.ConfigError, match=f"^line {line}: "):
            cli.parse_config(text)

    @pytest.mark.parametrize("build, keys", [
        (lambda: Grid2D(3, 8), ("nx",)),
        (lambda: Grid2D(8, 8, 1.0, 0.0), ("ly",)),
        (lambda: Grid2D(8, 8, math.inf, 1.0), ("lx", "ly")),
        (lambda: PhysParams(gamma=1.0), ("gamma",)),
        (lambda: PhysParams(lam=0.0), ("lambda",)),
        (lambda: PhysParams(L=0.0, delta=0.0), ("L", "delta")),
        (lambda: RegParams(sigma2=-1.0), ("sigma2",)),
        (lambda: RegParams(sigma1=1.0, Gamma=2.0), ("Gamma", "sigma1")),
        (lambda: RegParams(sigma3=0.2, alpha=0.5), ("sigma3", "alpha", "theta")),
        (lambda: StepConfig(scheme="rk4"), ("scheme",)),
        (lambda: cli.RunConfig(Grid2D(64, 64), PhysParams(), RegParams(),
                               StepConfig(), amp=2.0), ("amp",)),
        (lambda: cli.RunConfig(Grid2D(8, 8, 2.0, 0.5), PhysParams(), RegParams(theta=0.6),
                               StepConfig(), initial="shear-layer"),
         ("theta", "lx", "ly", "initial")),
        (lambda: Grid2D(4, 4, 1e-300, 1.0), ("nx", "ny", "lx", "ly")),
        (lambda: Grid2D(4, 4, 1e200, 1e-200), ("nx", "ny", "lx", "ly")),
        (lambda: Grid2D(4, 4, 1e300, 1e300), ("lx", "ly")),
        (lambda: Grid2D(10**400, 4), ("nx", "ny")),
    ])
    def test_dataclass_error_carries_config_keys(self, build, keys):
        with pytest.raises(ParamError) as err:
            build()
        assert isinstance(err.value, ValueError)
        assert err.value.keys == keys
        assert set(keys) <= set(cli._KEY_TABLE)

    def test_readme_key_table_matches_parser(self):
        # the README's config key table lists every key with the default the
        # parser applies ("none" for an empty string)
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        table = text.split("| key | default | meaning |\n| --- | --- | --- |\n")[1]
        documented = {}
        for row in table.split("\n\n")[0].splitlines():
            keys, default, _ = (c.strip() for c in row.strip("|").split("|"))
            for key in keys.split(","):
                default = default.strip("`")
                documented[key.strip().strip("`")] = "" if default == "none" else default
        parsed = serialize(cli.parse_config(""))
        assert documented == dict(line.split(" = ", 1) for line in parsed.splitlines())


class TestPresets:
    def test_equilibrium_is_exact_and_unmollified(self):
        cfg = cli.parse_config("nx = 8\nny = 8\nalpha = 0.1\neta_bar = 2.0")
        st = cli.build_initial(cfg)
        assert np.all(st.T.xx == 1.0 * (2.0 + 0.1))
        assert np.all(st.T.xy == 0.0) and np.all(st.u.x == 0.0)
        assert np.all(st.rho.data == 1.0)

    def test_perturbed_preset_carries_mollifier_shift(self):
        cfg = cli.parse_config(
            "nx = 16\nny = 16\ninitial = perturbed-equilibrium\ntheta = 0.1")
        st = cli.build_initial(cfg)
        # the cosine perturbations integrate to zero on the symmetric grid,
        # so total mass is (rho_bar + theta) * area up to roundoff
        assert cell_sum(st.rho.grid, st.rho.data) == pytest.approx(1.1, abs=1e-12)
        assert st.eta.data.min() >= 0.1
        assert st.u.x.max() > 0.0

    def test_shear_layer_moves_only_velocity(self):
        cfg = cli.parse_config("nx = 16\nny = 16\ninitial = shear-layer\namp = 0.2")
        st = cli.build_initial(cfg)
        assert np.ptp(st.rho.data) <= 1e-12
        assert np.ptp(st.T.xx) <= 1e-12
        assert np.abs(st.u.x).max() > 0.05
        assert np.all(st.u.y == 0.0)

    def test_file_preset_round_trips_bits(self, tmp_path):
        cfg = cli.parse_config("nx = 5\nny = 5\nlx = 0.9\nly = 0.9\n"
                               "initial = perturbed-equilibrium")
        st = cli.build_initial(cfg)
        st.t = 0.1 + 0.2
        save_state(st, tmp_path / "snap")
        back = cli.build_initial(
            cli.parse_config(f"initial = file:{tmp_path}/snap"))
        assert np.array_equal(back.rho.data, st.rho.data)
        assert np.array_equal(back.T.xy, st.T.xy)
        assert back.u.bc == st.u.bc
        assert back.t == st.t and back.rho.grid == cfg.grid

    def test_file_preset_with_grid_keys_exits_one(self, tmp_path):
        st = cli.build_initial(cli.parse_config("nx = 8\nny = 8"))
        save_state(st, tmp_path / "snap")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"initial = file:{tmp_path}/snap\nnx = 16\nny = 16\n"
                       "lx = 2.0\nt_end = 0.01\n")
        code, out, err = capture(cli.cmd_run, str(cfg))
        assert code == 1 and out == ""
        assert err.startswith("config error: line 2: nx cannot be set")
        assert err.count("\n") == 1

    def test_missing_snapshot_is_config_error(self):
        with pytest.raises(cli.ConfigError, match="cannot read snapshot"):
            cli.build_initial(cli.parse_config("initial = file:/nonexistent/x"))

    @pytest.mark.parametrize("fault", ["header", "payload", "nonfinite", "spacing",
                                       "tag", "time"])
    def test_malformed_snapshot_is_config_error(self, tmp_path, fault):
        st = cli.build_initial(cli.parse_config("nx = 8\nny = 8"))
        path = tmp_path / "bad"
        save_state(st, path)
        header, payload = path.read_bytes().split(b"\n", 1)
        tag = _STATE_TAG.encode("ascii")
        if fault == "header":
            path.write_bytes(tag + b" eight 8 1.0 1.0 0.0\n" + payload)
        elif fault == "payload":
            path.write_bytes(header + b"\n" + payload[:-8])
        elif fault == "spacing":  # the square of the spacing underflows
            path.write_bytes(tag + b" 8 8 8e-300 8e-300 0.0\n" + payload)
        elif fault == "nonfinite":
            data = np.frombuffer(payload, dtype=np.float64).copy()
            data[3 * 8 + 5] = np.nan
            path.write_bytes(header + b"\n" + data.tobytes())
        elif fault == "tag":  # another format version
            path.write_bytes(tag[:-1] + b"0 8 8 1.0 1.0 0.0\n" + payload)
        else:
            path.write_bytes(tag + b" 8 8 1.0 1.0 inf\n" + payload)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"initial = file:{path}\nt_end = 0.01\n")
        code, out, err = capture(cli.cmd_run, str(cfg))
        assert code == 1 and out == ""
        assert err.startswith(f"config error: malformed snapshot {path}: ")
        assert err.count("\n") == 1
        if fault == "nonfinite":
            assert err.endswith(": non-finite rho at cell (3, 5)\n")


# State files for the loader fuzz: raw junk, or six header tokens (well-formed
# or not, with the right tag or another) and a payload that either matches the
# length the header names, is a few bytes off, or is arbitrary.  Well-formed
# tokens are drawn more often than the others, so that some files load.
_MAX_PAYLOAD = 8 * 16 * 16 * 7 + 8
_int_tokens = st.one_of(
    st.integers(4, 12).map(str), st.integers(-10, 3).map(str),
    st.sampled_from(["10" * 200, "-0", "8.0", "", "x"]))
_float_tokens = st.one_of(
    st.floats(1e-3, 1e3).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1e308", "1e-320", "-0.125", "nan", "inf"]))
_good_ints = st.integers(4, 12).map(str)
_good_floats = st.floats(1e-3, 1e3).map(repr)


@st.composite
def _snapshot_files(draw):
    fill = draw(st.sampled_from([1.0, 1.0, 1.0, np.nan, -np.inf]))
    if draw(st.integers(0, 3)) == 0:
        header = draw(st.binary(max_size=64))
        length = draw(st.integers(0, _MAX_PAYLOAD))
    else:
        nx, ny = (draw(st.one_of(_good_ints, _good_ints, _int_tokens)) for _ in range(2))
        tag = draw(st.sampled_from([_STATE_TAG] * 4 + ["oldroyd2d-state-v0", "x" * 70]))
        lx, ly, t = (draw(st.one_of(_good_floats, _good_floats, _float_tokens)) for _ in range(3))
        extra = draw(st.sampled_from(["", "", "", " 7"]))
        header = " ".join([tag, nx, ny, lx, ly, t + extra]).encode("ascii")
        try:
            length = 8 * int(nx) * int(ny) * 7
        except ValueError:
            length = 0
        length += draw(st.sampled_from([0, 0, 0, 0, -8, 8, 3]))
        if not 0 <= length <= _MAX_PAYLOAD:
            length = draw(st.integers(0, _MAX_PAYLOAD))
    payload = np.full(length // 8, fill).tobytes() + b"\0" * (length % 8)
    return header + b"\n" + payload


class TestSnapshotFuzz:
    """Arbitrary headers and payload lengths: a state or ValueError from the
    loader, a state or ConfigError from a file: initial, nothing else."""

    @seed(20260817)
    @settings(max_examples=300, deadline=None)
    @given(data=_snapshot_files())
    def test_load_snapshot_returns_field_or_value_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.state"
            path.write_bytes(data)
            try:
                state = load_state(str(path))
            except ValueError:
                return
        comps = (state.rho.data, state.u.x, state.u.y, state.eta.data,
                 state.T.xx, state.T.xy, state.T.yy)
        grid = state.rho.grid
        assert all(c.shape == (grid.nx, grid.ny) for c in comps)
        assert all(np.isfinite(c).all() for c in comps) and math.isfinite(state.t)
        assert 8 * comps[0].size * len(comps) == len(data.split(b"\n", 1)[1])

    @seed(20260817)
    @settings(max_examples=150, deadline=None)
    @given(data=_snapshot_files())
    def test_load_state_returns_state_or_config_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            Path(f"{tmp}/s").write_bytes(data)
            try:
                state = cli.build_initial(cli.parse_config(f"initial = file:{tmp}/s"))
            except cli.ConfigError:
                return
        assert state.rho.data.shape == (state.rho.grid.nx, state.rho.grid.ny)


class TestRunCommand:
    def equilibrium_config(self, tmp_path, extra=""):
        path = tmp_path / "run.cfg"
        path.write_text(
            "nx = 16\nny = 16\nmuS = 0.1\neps = 0.1\n"
            "dt = 0.001\nt_end = 0.05\ndiag_every = 10\n"
            f"csv = {tmp_path}/series.csv\nsnapshot = {tmp_path}/final\n"
            + extra)
        return path

    def test_equilibrium_run_exits_zero_with_outputs(self, tmp_path):
        code, out, err = capture(cli.cmd_run, str(self.equilibrium_config(tmp_path)))
        assert code == 0 and err == ""
        assert "completed:" in out
        lines = (tmp_path / "series.csv").read_text().splitlines()
        cols = lines[0].split(",")
        ridx = cols.index("residual")
        assert all(float(row.split(",")[ridx]) <= 1e-10 for row in lines[1:])
        final = load_state(tmp_path / "final").T
        assert np.all(final.xx == pytest.approx(1.1))

    def test_file_restart_continues_the_clock(self, tmp_path):
        first = tmp_path / "first.cfg"
        first.write_text("nx = 8\nny = 8\nmuS = 0.1\neps = 0.1\n"
                         "initial = perturbed-equilibrium\ndt = 0.003\nt_end = 0.02\n"
                         f"snapshot = {tmp_path}/mid\n")
        code, out, err = capture(cli.cmd_run, str(first))
        assert code == 0 and err == ""
        saved = load_state(tmp_path / "mid")
        assert saved.t == float(out.split("t_final=")[1].split()[0]) > 0.0
        second = tmp_path / "second.cfg"
        second.write_text(f"initial = file:{tmp_path}/mid\nmuS = 0.1\neps = 0.1\n"
                          f"dt = 0.003\nt_end = 0.01\ncsv = {tmp_path}/rest.csv\n")
        code, out, err = capture(cli.cmd_run, str(second))
        assert code == 0 and err == ""
        rows = (tmp_path / "rest.csv").read_text().splitlines()[1:]
        assert float(rows[0].split(",")[0]) == saved.t
        assert float(out.split("t_final=")[1].split()[0]) == saved.t + 0.01

    @pytest.mark.parametrize("key", ["csv", "snapshot"])
    def test_unwritable_output_exits_one(self, tmp_path, key):
        path = tmp_path / "missing" / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"nx = 8\nny = 8\nt_end = 0.01\n{key} = {path}\n")
        code, out, err = capture(cli.cmd_run, str(cfg))
        assert code == 1 and out == ""
        assert err.startswith(f"config error: cannot write {key} {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key", ["csv", "snapshot"])
    def test_missing_output_dir_fails_before_the_run(self, tmp_path, monkeypatch, key):
        calls = []
        monkeypatch.setattr(cli, "run", lambda *args, **kwargs: calls.append(args))
        path = tmp_path / "missing" / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"nx = 64\nny = 64\ninitial = perturbed-equilibrium\nt_end = 0.1\n"
                       f"{key} = {path}\n")
        code, out, err = capture(cli.cmd_run, str(cfg))
        assert calls == []
        assert code == 1 and out == ""
        assert err == f"config error: cannot write {key} {path}: no directory {path.parent}\n"

    def test_zero_t_end_prints_summary(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nx = 8\nny = 8\nt_end = 0\n")
        code, out, err = capture(cli.cmd_run, str(cfg))
        assert code == 0 and err == ""
        assert out.startswith("completed: steps=0 t_final=0 residual_max=0.000000e+00 ")

    def test_step_that_cannot_advance_t_exits_two(self, tmp_path, monkeypatch):
        state = cli.build_initial(cli.parse_config("nx = 8\nny = 8"))
        state.t = 1e17
        save_state(state, tmp_path / "late")
        steps = []
        real_step = integrate.step

        def bounded(*args, **kwargs):
            steps.append(args[0].t)
            assert len(steps) <= 3, "the run kept stepping without advancing t"
            return real_step(*args, **kwargs)

        monkeypatch.setattr(integrate, "step", bounded)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"initial = file:{tmp_path}/late\ndt = 0.001\nt_end = 1e4\n")
        code, out, err = capture(cli.cmd_run, str(cfg))
        assert code == 2 and out == "" and steps == []
        assert err == ("run aborted: time step dt=0.001 does not advance t=1e+17"
                       " (run failed at t=1e+17)\n")

    def test_overflowed_sound_speed_names_the_bound(self, tmp_path):
        # gamma = 1e308 overflows the pressure law, so auto dt would be 0.0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nx = 8\nny = 8\ngamma = 1e308\ninitial = perturbed-equilibrium\n"
                       "t_end = 0.01\n")
        code, out, err = capture(cli.cmd_run, str(cfg))
        assert code == 2 and out == ""
        assert re.fullmatch(r"run aborted: stability bound dt = 0\.0 vanished in the advective"
                            r" bound: max \|u\| = \S+, sound speed c = inf"
                            r" \(run failed at t=0\)\n", err)

    @pytest.mark.parametrize("line, code", [("gamma = 1e308", 2), ("theta = 1e-200", 0)])
    def test_float_warnings_stay_off_stderr(self, tmp_path, line, code):
        # gamma overflows the pressure (an abort); theta squares to 0 in the
        # mollifier kernel (a run that succeeds)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"nx = 8\nny = 8\n{line}\ninitial = perturbed-equilibrium\n"
                       "t_end = 0.01\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, out, err = capture(cli.cmd_run, str(cfg))
        assert [str(w.message) for w in caught] == []
        assert got == code
        if code == 0:
            assert err == "" and out.startswith("completed: ")
        else:
            assert out == "" and err.startswith("run aborted: ") and err.count("\n") == 1

    def test_summary_reports_floor_hits(self, tmp_path):
        path = self.equilibrium_config(tmp_path, "initial = perturbed-equilibrium\n")
        code, out, err = capture(cli.cmd_run, str(path))
        assert code == 0 and err == ""
        summary = out.strip().splitlines()[-1]
        assert summary.startswith("completed: ")
        assert summary.endswith(" floor_hits=0")

    @pytest.mark.parametrize("quantity", ["residual_max", "min_eig_final",
                                          "mass_drift", "eta_drift"])
    def test_non_finite_summary_exits_two(self, tmp_path, monkeypatch, quantity):
        nan = math.nan
        if quantity == "mass_drift":
            monkeypatch.setattr(dg, "conservation", lambda state, initial: (nan, 0.0))
        elif quantity == "eta_drift":
            monkeypatch.setattr(dg, "conservation", lambda state, initial: (0.0, nan))
        else:
            # the NaN sits in the last row, after finite ones
            column = {"residual_max": "residual", "min_eig_final": "min_eig"}[quantity]
            rows = dg.TimeseriesRecorder.rows

            def poisoned(self):
                out = rows(self)
                out[-1][column] = nan
                return out
            monkeypatch.setattr(dg.TimeseriesRecorder, "rows", poisoned)
        path = self.equilibrium_config(tmp_path, "initial = perturbed-equilibrium\n")
        code, out, err = capture(cli.cmd_run, str(path))
        assert code == 2 and "completed:" not in out
        assert err == f"run aborted: {quantity} is not finite\n"

    @pytest.mark.parametrize("grid, line", [
        ("lx = 1e-300\nly = 1e-300", 4),
        ("lx = 1e300\nly = 1e300\ninitial = perturbed-equilibrium", 4),
    ])
    def test_unusable_spacing_or_area_exits_one(self, tmp_path, grid, line):
        path = tmp_path / "run.cfg"
        path.write_text(f"nx = 4\nny = 4\n{grid}\nt_end = 0.1\n")
        code, out, err = capture(cli.cmd_run, str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"config error: line {line}: ") and err.count("\n") == 1
        assert "lx" in err and "ly" in err

    @pytest.mark.parametrize("grid", ["nx = 1" + "0" * 400,
                                      "nx = 100000000000\nny = 100000000000"],
                             ids=["int-beyond-float", "array-beyond-memory"])
    def test_oversized_grid_exits_one(self, tmp_path, monkeypatch, grid):
        # the grid rule must reject the config before any array is allocated
        monkeypatch.setattr(cli, "build_initial",
                            lambda cfg: pytest.fail("oversized grid reached build_initial"))
        path = tmp_path / "run.cfg"
        path.write_text(f"{grid}\nt_end = 0.1\n")
        code, out, err = capture(cli.cmd_run, str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"config error: line {grid.count(chr(10)) + 1}: grid nx * ny = ")
        assert err.count("\n") == 1 and "is too large" in err

    def test_indefinite_stress_exits_two_at_start(self, tmp_path):
        st = cli.build_initial(cli.parse_config("nx = 8\nny = 8"))
        st.T.xx[3, 4] = -0.5
        save_state(st, tmp_path / "bad")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"initial = file:{tmp_path}/bad\nalpha = 0.1\n"
                       "dt = 0.001\nt_end = 0.05\n")
        code, _, err = capture(cli.cmd_run, str(cfg))
        assert code == 2
        assert "positive definiteness" in err and "(3, 4)" in err
        assert "t=0" in err

    def test_missing_config_exits_one(self, tmp_path):
        code, _, err = capture(cli.cmd_run, str(tmp_path / "nope.cfg"))
        assert code == 1 and "config error" in err

    def test_invalid_config_exits_one(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("gamma = 0.5\n")
        code, _, err = capture(cli.cmd_run, str(path))
        assert code == 1 and "gamma > 1" in err

    def test_perturbed_run_energy_never_rises(self, tmp_path):
        path = tmp_path / "pert.cfg"
        path.write_text(
            "nx = 16\nny = 16\nmuS = 0.1\neps = 0.1\n"
            "initial = perturbed-equilibrium\namp = 0.08\n"
            "dt = 0.001\nt_end = 0.1\ndiag_every = 5\n"
            f"csv = {tmp_path}/pert.csv\n")
        code, _, _ = capture(cli.cmd_run, str(path))
        assert code == 0
        lines = (tmp_path / "pert.csv").read_text().splitlines()
        cols = lines[0].split(",")
        eidx = cols.index("E_total")
        ridx = cols.index("residual")
        energies = [float(r.split(",")[eidx]) for r in lines[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
        assert all(float(r.split(",")[ridx]) <= 1e-10 for r in lines[1:])


GOLDEN = Path(__file__).resolve().parent / "golden"


class TestVerifyCommand:
    def test_all_suites_pass(self):
        # a passing report holds only counts, so its bytes do not depend on libm
        for suite in cli.SUITES:
            text, code = cli.verify_report(suite, seed=20260817)
            assert code == 0, text
            golden = (GOLDEN / f"verify-{suite}.txt").read_bytes()
            assert text.encode("ascii") == golden

    def test_reports_are_reproducible_from_seed(self):
        a = cli.verify_report("matrix-inequalities", seed=11)
        b = cli.verify_report("matrix-inequalities", seed=11)
        c = cli.verify_report("matrix-inequalities", seed=12)
        assert a == b
        assert a[0] != c[0]

    def test_counterexample_exits_three(self, monkeypatch):
        monkeypatch.setattr(
            cli.sc, "scalar_log_ineq",
            lambda a, b: IneqResult(0.0, 1.0, False))
        code, out, _ = capture(cli.cmd_verify, "matrix-inequalities", 5)
        assert code == 3
        assert "result: FAIL" in out
        assert "counterexample: scalar-log" in out
        assert "scalar-log: 0/10000" in out

    def test_passing_suite_formats_no_failure_text(self, monkeypatch):
        def no_repr(self):
            raise AssertionError("failure text formatted for a passing check")
        monkeypatch.setattr(SymMat2, "__repr__", no_repr)
        text, code = cli.verify_report("matrix-inequalities", 5)
        assert code == 0 and text.endswith("result: PASS\n")

    def test_later_check_fails_alone(self, monkeypatch):
        chain = cli.sc.convexity_trace_ineq

        def convex_fails(phi, dphi, kind, A, B):
            res = chain(phi, dphi, kind, A, B)
            return res._replace(holds=False) if kind == "convex" else res
        monkeypatch.setattr(cli.sc, "convexity_trace_ineq", convex_fails)
        text, code = cli.verify_report("matrix-inequalities", 5)
        assert code == 3
        assert "concave-chain: 10000/10000\nconvex-chain: 0/10000\n" in text
        assert "counterexample: convex-chain: A=SymMat2(" in text

    def test_field_check_failure_names_first_field(self, monkeypatch):
        bound = dg.cutoff_log_grad_bound
        monkeypatch.setattr(dg, "cutoff_log_grad_bound",
                            lambda T, sigma3: bound(T, sigma3)._replace(holds=False))
        text, code = cli.verify_report("field-inequalities", 5)
        assert code == 3
        assert "log-grad-bound: 100/100\ncutoff-log-grad-bound: 0/100\n" in text
        assert "counterexample: cutoff-log-grad-bound: field #0: lhs=" in text

    def test_non_finite_residual_fails_convergence(self, monkeypatch):
        # the NaN sits in the last row, after finite ones
        rows = dg.TimeseriesRecorder.rows

        def poisoned(self):
            out = rows(self)
            out[-1]["residual"] = math.nan
            return out
        monkeypatch.setattr(dg.TimeseriesRecorder, "rows", poisoned)
        text, code = cli.verify_report("convergence")
        assert code == 3
        assert "budget-gap-refinement: 0/1\nresult: FAIL\n" in text

    def test_unknown_suite_exits_one(self):
        code, _, err = capture(cli.cmd_verify, "nonsense", 0)
        assert code == 1 and "unknown suite" in err

    def test_run_abort_in_a_suite_exits_two(self, monkeypatch):
        def abort(seed):
            raise NotSPDError("stress lost positive definiteness at cell (1, 2)")
        monkeypatch.setitem(cli._SUITE_FUNCS, "conservation", abort)
        code, out, err = capture(cli.cmd_verify, "conservation", 0)
        assert code == 2 and out == ""
        assert err == "run aborted: stress lost positive definiteness at cell (1, 2)\n"


SWEEP_BASE = ("nx = 16\nny = 16\nmuS = 0.1\neps = 0.1\nL = 1\n"
              "initial = perturbed-equilibrium\namp = 0.05\n"
              "dt = 0.002\nt_end = 0.1\ndiag_every = 10\n")


class TestSweepCommand:
    def write(self, tmp_path, text=SWEEP_BASE):
        path = tmp_path / "sweep.cfg"
        path.write_text(text)
        return str(path)

    def parse_pairs(self, out):
        vals = []
        for line in out.splitlines():
            if line.startswith("pair "):
                vals.append(float(line.split("field_l2=")[1].split()[0]))
        return vals

    def test_alpha_sweep_differences_shrink(self, tmp_path):
        code, out, _ = capture(
            cli.cmd_sweep, self.write(tmp_path), "alpha", "0.1,0.05,0.025")
        assert code == 0
        diffs = self.parse_pairs(out)
        assert len(diffs) == 2 and diffs[1] < diffs[0]
        assert "cauchy_decreasing: yes" in out

    def test_delta_sweep_checks_initial_data_bound(self, tmp_path):
        code, out, _ = capture(
            cli.cmd_sweep, self.write(tmp_path), "delta", "0.1,0.01")
        assert code == 0
        bounds = [l for l in out.splitlines() if l.startswith("bound delta=")]
        assert len(bounds) == 2 and all(l.endswith("ok") for l in bounds)

    def test_single_value_sweep_has_empty_difference_table(self, tmp_path):
        code, out, _ = capture(
            cli.cmd_sweep, self.write(tmp_path), "alpha", "0.1")
        assert code == 0
        assert "pair" not in out
        assert "cauchy_decreasing: n/a" in out

    @pytest.mark.parametrize("quantity", ["residual_max", "min_eig_final", "field_l2"])
    def test_non_finite_summary_exits_two(self, tmp_path, monkeypatch, quantity):
        nan = math.nan
        if quantity == "field_l2":
            monkeypatch.setattr(cli, "_field_distance", lambda a, b: nan)
            expected = f"alpha=0.1->0.05: run aborted: {quantity} is not finite\n"
        else:
            # the NaN sits in the last row of each run, after finite ones
            column = {"residual_max": "residual", "min_eig_final": "min_eig"}[quantity]
            rows = dg.TimeseriesRecorder.rows

            def poisoned(self):
                out = rows(self)
                out[-1][column] = nan
                return out
            monkeypatch.setattr(dg.TimeseriesRecorder, "rows", poisoned)
            expected = "".join(f"alpha={v}: run aborted: {quantity} is not finite\n"
                               for v in ("0.1", "0.05"))
        code, out, err = capture(
            cli.cmd_sweep, self.write(tmp_path), "alpha", "0.1,0.05")
        assert code == 2 and out == ""
        assert err == expected

    def test_values_must_decrease(self, tmp_path):
        code, _, err = capture(
            cli.cmd_sweep, self.write(tmp_path), "alpha", "0.05,0.1")
        assert code == 1 and "decrease strictly" in err

    def test_auto_dt_is_rejected(self, tmp_path):
        code, _, err = capture(
            cli.cmd_sweep, self.write(tmp_path, "t_end = 0.1\n"),
            "alpha", "0.1,0.05")
        assert code == 1 and "explicit dt" in err

    def test_delta_sweep_requires_bead_number_term(self, tmp_path):
        text = SWEEP_BASE.replace("L = 1", "L = 0\ndelta = 0.5")
        code, _, err = capture(
            cli.cmd_sweep, self.write(tmp_path, text), "delta", "0.1,0.01")
        assert code == 1 and "requires L > 0" in err

    def test_alpha_values_below_cutoff_rejected(self, tmp_path):
        text = SWEEP_BASE + "alpha = 0.1\nsigma3 = 0.04\n"
        code, _, err = capture(
            cli.cmd_sweep, self.write(tmp_path, text), "alpha", "0.1,0.02")
        assert code == 1 and "sigma3" in err

    def test_alpha_sweep_runs_with_active_cutoff(self, tmp_path):
        # the alpha = 0 base state must not trip the sigma3 < alpha rule
        text = SWEEP_BASE.replace("t_end = 0.1", "t_end = 0.01") + "sigma3 = 0.01\n"
        code, out, err = capture(
            cli.cmd_sweep, self.write(tmp_path, text), "alpha", "0.1,0.05")
        assert code == 0 and err == ""
        assert out.count("\nrun alpha=") == 2

    def test_unwritable_csv_exits_one(self, tmp_path):
        # the directory exists, so the sweep runs; writing to a directory fails
        path = tmp_path / "taken"
        path.mkdir()
        text = SWEEP_BASE.replace("t_end = 0.1", "t_end = 0.01") + f"csv = {path}\n"
        code, out, err = capture(
            cli.cmd_sweep, self.write(tmp_path, text), "alpha", "0.1,0.05")
        assert code == 1 and out.startswith("sweep knob=alpha ")
        assert err.startswith(f"config error: cannot write csv {path}: ")
        assert err.count("\n") == 1

    def test_missing_csv_dir_fails_before_the_runs(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run", lambda *args, **kwargs: calls.append(args))
        path = tmp_path / "missing" / "sweep.txt"
        text = SWEEP_BASE + f"csv = {path}\n"
        code, out, err = capture(
            cli.cmd_sweep, self.write(tmp_path, text), "alpha", "0.1,0.05")
        assert calls == []
        assert code == 1 and out == ""
        assert err == f"config error: cannot write csv {path}: no directory {path.parent}\n"

    def test_zero_t_end_prints_report(self, tmp_path):
        text = SWEEP_BASE.replace("dt = 0.002\nt_end = 0.1", "dt = 0.001\nt_end = 0")
        code, out, err = capture(
            cli.cmd_sweep, self.write(tmp_path, text), "alpha", "0.1,0.05")
        assert code == 0 and err == ""
        assert "run alpha=0.1: steps=0 residual_max=0.0 " in out

    def test_failures_carry_knob_value(self, tmp_path):
        bad = cli.build_initial(cli.parse_config("nx = 8\nny = 8"))
        bad.T.xx[2, 2] = -4.0
        save_state(bad, tmp_path / "bad")
        text = (f"initial = file:{tmp_path}/bad\ndt = 0.001\nt_end = 0.05\n")
        code, _, err = capture(
            cli.cmd_sweep, self.write(tmp_path, text), "alpha", "0.1,0.05")
        assert code == 2
        assert "alpha=0.1" in err and "alpha=0.05" in err
        assert "positive definiteness" in err


class TestMain:
    def test_run_dispatch(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("nx = 8\nny = 8\nmuS = 0.1\neps = 0.1\n"
                        "dt = 0.002\nt_end = 0.01\n")
        code, out, _ = capture(cli.main, ["run", str(path)])
        assert code == 0 and "completed:" in out

    def test_verify_dispatch_with_seed(self):
        code, out, _ = capture(
            cli.main, ["verify", "field-inequalities", "--seed", "3"])
        assert code == 0 and "seed 3" in out

    def test_sweep_dispatch(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text(SWEEP_BASE)
        code, out, _ = capture(
            cli.main, ["sweep", str(path), "--knob", "alpha",
                       "--values", "0.1,0.05"])
        assert code == 0 and "sweep knob=alpha" in out

    def test_usage_errors_exit_one(self):
        assert capture(cli.main, ["sweep"])[0] == 1
        assert capture(cli.main, ["verify", "bogus-suite"])[0] == 1
        assert capture(cli.main, [])[0] == 1

    def test_help_exits_zero(self):
        code, out, _ = capture(cli.main, ["--help"])
        assert code == 0

    @pytest.mark.parametrize("module", ["oldroyd2d", "oldroyd2d.cli"])
    def test_module_entry_points_run_clean(self, module):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        proc = subprocess.run([sys.executable, "-m", module, "--help"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0 and "usage: oldroyd2d" in proc.stdout
        assert proc.stderr == ""
