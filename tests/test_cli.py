import contextlib
import dataclasses
import io
import json
import logging
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import gdo.models
import gdo.operators
import gdo.verify
from gdo import analytic_spinor, cli, load_config, verify_all
from gdo.cli import EXIT_BAD_INPUT, EXIT_FAILED, EXIT_OK, main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# every shipped config verifies: cot.json solves its numeric levels on the
# pole-to-pole lattice, linear.json and morse.json on their own grids
@pytest.mark.parametrize("name", sorted(path.name for path in CONFIGS.glob("*.json")))
def test_verify_artifact_bytes_repeat(tmp_path, caplog, name):
    caplog.set_level(logging.INFO, logger="gdo")
    outputs = []
    for run in range(2):
        out = tmp_path / f"verify_{run}.json"
        assert main(["verify", "--config", str(CONFIGS / name), "--out", str(out)]) == EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert "runtime_ms" not in payload
    assert payload["overall"] is True
    assert len(payload["checks"]) == 9
    # the wall time goes to the log, not into the artifact
    assert sum("verify took" in r.getMessage() for r in caplog.records) == 2


def _edited_config(tmp_path, name, edit):
    data = json.loads((CONFIGS / name).read_text())
    edit(data)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def _cot_below_half(data):
    # s = A/(hbar alpha) = 0.3 < 1/2: the Dirichlet lattice converges to the
    # Friedrichs extension, so the eigenvalue deviation stays near 0.78 at any n
    data["interaction"]["A"] = 0.3
    data["grid"]["n_points"] = 1000


def test_verify_failing_check_exits_1(tmp_path):
    config = _edited_config(tmp_path, "cot.json", _cot_below_half)
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(config), "--out", str(out)]) == EXIT_FAILED
    payload = json.loads(out.read_bytes())
    assert payload["overall"] is False
    failed = [c for c in payload["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["eigenvalues_numeric"]
    assert failed[0]["measured"] == pytest.approx(0.781, rel=0.01)


def test_verify_config_without_grid_exits_2(tmp_path):
    config = _edited_config(tmp_path, "morse.json", lambda d: d.pop("grid"))
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(config), "--out", str(out)]) == EXIT_BAD_INPUT
    assert not out.exists()


def _drop_grid(data):
    data.pop("grid")


def _zero_alpha(data):
    data["interaction"]["alpha"] = 0


def _infinite_depth(data):
    # json writes Infinity, which json.load reads back as a float
    data["interaction"]["D"] = float("inf")


def _infinite_condition(data):
    # an infinite gate would compute every check, then fail to write the artifact
    data["tolerances"]["condition"] = float("inf")


def _infinite_eigen_rel(data):
    # an infinite gate would pass any eigenvalue deviation
    data["tolerances"]["eigen_rel"] = float("inf")


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_grid, "missing key 'grid' in configuration"),
        (_zero_alpha, "bad 'morse' interaction parameters: morse coupling needs alpha > 0"),
        (_infinite_depth, "bad 'morse' interaction parameters: morse parameter 'D' must be finite"),
        (_infinite_condition, "tolerance 'condition' must be finite and > 0, got inf"),
        (_infinite_eigen_rel, "tolerance 'eigen_rel' must be finite and > 0, got inf"),
    ],
    ids=["no_grid", "alpha_0", "D_inf", "condition_inf", "eigen_rel_inf"],
)
@pytest.mark.parametrize(
    "command",
    [["verify"], ["spectrum", "--numeric"], ["check"], ["models"], ["wavefunction"]],
    ids=["verify", "spectrum", "check", "models", "wavefunction"],
)
def test_unusable_config_exits_2(tmp_path, capsys, edit, message, command):
    config = _edited_config(tmp_path, "morse.json", edit)
    out = tmp_path / "artifact"
    assert main(command + ["--config", str(config), "--out", str(out)]) == EXIT_BAD_INPUT
    assert not out.exists()
    assert capsys.readouterr().err.startswith(f"gdo: {message}")


def _write(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_bytes(text if isinstance(text, bytes) else json.dumps(text).encode())
    return path


def _morse():
    return json.loads((CONFIGS / "morse.json").read_text())


_LINEAR = {
    "interaction": {"kind": "linear", "omega": 1.0},
    "grid": {"x_min": -8, "x_max": 8, "n_points": 801},
}


@pytest.mark.parametrize(
    "config, out, message",
    [
        (dict(_morse(), interaction=5), "artifact", "interaction must be a JSON object, got int"),
        (dict(_morse(), constants=5), "artifact", "constants must be a JSON object, got int"),
        (dict(_morse(), tolerances=[1]), "artifact", "tolerances must be a JSON object, got list"),
        (b'{"levels": "\xff"}', "artifact", "is not UTF-8 text"),
        (_morse(), "missing/artifact", "cannot write artifact"),
        (dict(_morse(), levels=2.7), "artifact", "levels must be an integer, got 2.7"),
        (dict(_morse(), levels=True), "artifact", "levels must be an integer, got True"),
        (
            dict(_morse(), grid=dict(_morse()["grid"], n_points=1000.9)),
            "artifact",
            "n_points must be an integer, got 1000.9",
        ),
        # a key that names no field is refused, never ignored
        (
            dict(_LINEAR, interaction={"kind": "linear", "omega": 1.0, "sign": -1}),
            "artifact",
            "unknown key 'sign' in linear interaction",
        ),
        (
            dict(_morse(), tolerances={"eigen_rell": 1e-9}),
            "artifact",
            "unknown key 'eigen_rell' in tolerances",
        ),
        (dict(_morse(), level=2), "artifact", "unknown key 'level' in configuration"),
        (
            dict(_morse(), grid=dict(_morse()["grid"], x_min=True)),
            "artifact",
            "x_min must be a number, got True",
        ),
        (dict(_morse(), levels="3"), "artifact", "levels must be an integer, got '3'"),
        # the condition check always takes the family's own theta
        (
            dict(_morse(), theta_override=0.3),
            "artifact",
            "unknown key 'theta_override' in configuration",
        ),
        (dict(_morse(), mode="real_line"), "artifact", "mode must be 'contour', got 'real_line'"),
    ],
    ids=["interaction_int", "constants_int", "tolerances_list", "not_utf8", "out_dir_missing",
         "levels_fraction", "levels_bool", "n_points_fraction", "linear_sign", "tolerance_typo",
         "root_typo", "x_min_bool", "levels_str", "theta_override", "mode_real_line"],
)
def test_malformed_input_exits_2(tmp_path, capsys, config, out, message):
    path = _write(tmp_path, config)
    out = tmp_path / out
    assert main(["spectrum", "--config", str(path), "--out", str(out)]) == EXIT_BAD_INPUT
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("gdo: ") and message in err
    assert err.count("\n") == 1


# the linear family has closed-form eigenfunctions: Hermite functions
@pytest.mark.parametrize(
    "command",
    [["verify"], ["models"], ["wavefunction", "--level", "1"]],
    ids=["verify", "models", "wavefunction"],
)
def test_linear_family_verifies_and_samples(tmp_path, capsys, command):
    path = _write(tmp_path, _LINEAR)
    out = tmp_path / "artifact"
    assert main(command + ["--config", str(path), "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    if command[0] == "wavefunction":
        assert out.read_text().count("\n") == 802
        return
    payload = json.loads(out.read_bytes())
    if command[0] == "verify":
        assert [c["passed"] for c in payload["checks"]] == [True] * 9
    assert payload["overall" if command[0] == "verify" else "passed"] is True


@pytest.mark.parametrize("command", [["check"], ["spectrum", "--numeric"]], ids=["check", "spectrum"])
def test_linear_family_checks_and_spectrum_run(tmp_path, command):
    path = _write(tmp_path, _LINEAR)
    out = tmp_path / "artifact.json"
    assert main(command + ["--config", str(path), "--out", str(out)]) == EXIT_OK
    json.loads(out.read_bytes())


def test_integral_float_fields_are_accepted(tmp_path):
    def as_floats(data):
        data["levels"] = 4.0
        data["grid"]["n_points"] = 4000.0

    outputs = []
    for run, config in enumerate((CONFIGS / "morse.json", _edited_config(tmp_path, "morse.json", as_floats))):
        out = tmp_path / f"spectrum_{run}.json"
        assert main(["spectrum", "--config", str(config), "--out", str(out)]) == EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _tiny_condition(data):
    # the shipped Morse coupling meets its condition to 1.3e-15 (rounding);
    # cot and linear meet it exactly
    data["tolerances"]["condition"] = 1e-16


def _tiny_eigen_rel(data):
    # the singlet fills one component, so |quotient| - delta is only rounding
    # (3.3e-16 for delta = 0.7); exactly 0 for the shipped delta = 1
    data["constants"]["mass"] = 0.7
    data["tolerances"]["eigen_rel"] = 1e-17


@pytest.mark.parametrize(
    "name, edit, command",
    [
        ("morse.json", _tiny_condition, ["check"]),
        # the cot eigenvalue deviation at s = 0.3 is 0.78 > eigen_rel
        ("cot.json", _cot_below_half, ["spectrum", "--numeric"]),
        ("morse.json", _tiny_eigen_rel, ["models"]),
    ],
    ids=["check", "spectrum", "models"],
)
def test_failed_check_exits_1(tmp_path, name, edit, command):
    config = _edited_config(tmp_path, name, edit)
    out = tmp_path / "artifact.json"
    assert main(command + ["--config", str(config), "--out", str(out)]) == EXIT_FAILED
    payload = json.loads(out.read_bytes())
    if command[0] == "spectrum":
        assert max(row["deviation"] for row in payload) == pytest.approx(2.95, rel=0.01)
    else:
        assert payload["passed"] is False


@pytest.mark.parametrize("command", [["wavefunction"], ["spectrum"], ["verify"]])
def test_linear_with_negative_omega_exits_1(tmp_path, capsys, command):
    # -omega is the spin-flipped coupling: it has no closed-form levels, yet
    # its conjugation-shift condition holds
    path = _write(tmp_path, dict(_LINEAR, interaction={"kind": "linear", "omega": -1.0}))
    out = tmp_path / "artifact"
    assert main(command + ["--config", str(path), "--out", str(out)]) == EXIT_FAILED
    assert not out.exists()
    assert capsys.readouterr().err == "gdo: linear levels need omega > 0\n"
    assert main(["check", "--config", str(path), "--out", str(out)]) == EXIT_OK


@pytest.mark.parametrize("command", [["wavefunction"], ["spectrum"], ["verify"]])
def test_cot_without_closed_form_levels_exits_1(tmp_path, capsys, command):
    # cot A <= 0 has no closed-form levels, so no command writes an artifact
    config = _edited_config(tmp_path, "cot.json", lambda d: d["interaction"].update(A=-1.0))
    out = tmp_path / "artifact"
    assert main(command + ["--config", str(config), "--out", str(out)]) == EXIT_FAILED
    assert not out.exists()
    assert capsys.readouterr().err == "gdo: cot levels need A > 0\n"


@pytest.mark.parametrize("name", ["morse.json", "cot.json"])
@pytest.mark.parametrize("command", [["check"], ["spectrum", "--numeric"], ["models"]])
def test_artifact_bytes_repeat(tmp_path, name, command):
    outputs = []
    for run in range(2):
        out = tmp_path / f"{command[0]}_{run}.json"
        assert main(command + ["--config", str(CONFIGS / name), "--out", str(out)]) == EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    json.loads(outputs[0])


def test_spectrum_numeric_level_without_real_energy(tmp_path):
    # with mass 0.01 the numeric singlet level is about -3e-4, below -m^2 c^2,
    # so it has no real energy; the deviation is still within tolerance
    def light(data):
        data["constants"]["mass"] = 0.01
        data["grid"]["n_points"] = 1001

    config = _edited_config(tmp_path, "morse.json", light)
    out = tmp_path / "spectrum.json"
    assert main(["spectrum", "--numeric", "--config", str(config), "--out", str(out)]) == EXIT_OK
    singlet = json.loads(out.read_bytes())[0]
    assert singlet["epsilon_numeric"] < -0.01**2
    assert singlet["energy_numeric"] is None


@pytest.mark.parametrize("name", ["cot.json", "linear.json", "morse.json"])
def test_planted_theta_fails_the_condition(tmp_path, monkeypatch, name):
    # a theta off the family's own by 0.01 must fail check 1 of verify and gdo check
    config = load_config(CONFIGS / name)
    family = type(config.interaction)
    theta = family.theta

    def planted(spec, consts):
        return theta(spec, consts) + 0.01

    monkeypatch.setattr(family, "theta", planted)
    [condition] = [c for c in verify_all(config).checks if c.name == "condition_shift"]
    assert not condition.passed
    out = tmp_path / "check.json"
    assert main(["check", "--config", str(CONFIGS / name), "--out", str(out)]) == EXIT_FAILED
    payload = json.loads(out.read_bytes())
    assert payload["passed"] is False
    assert payload["theta_used"] == planted(config.interaction, config.constants)


def test_verify_mode_accepts_contour_only(tmp_path, capsys):
    argv = ["verify", "--config", str(CONFIGS / "cot.json"), "--out", str(tmp_path / "verify.json")]
    assert main(argv + ["--mode", "contour"]) == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--mode", "real_line"])
    assert exc.value.code == 2
    assert "invalid choice: 'real_line'" in capsys.readouterr().err


def _per_value_csv(config, sample) -> bytes:
    """The CSV written the plain way: every value through format(v, ".17g")."""
    lines = ["x,re_psi1,im_psi1,re_psi2,im_psi2"]
    for x, psi1, psi2 in zip(config.grid.points, sample.psi1, sample.psi2):
        values = (x, psi1.real, psi1.imag, psi2.real, psi2.imag)
        lines.append(",".join(format(float(v), ".17g") for v in values))
    return ("\n".join(lines) + "\n").encode()


# morse.json has one bound pair, so no level 2
@pytest.mark.parametrize("model", ["gdo", "gjc"])
@pytest.mark.parametrize(
    "name, level",
    [("morse.json", -1), ("morse.json", 1)]
    + [(name, level) for name in ("cot.json", "linear.json") for level in (-1, 1, 2)],
)
def test_wavefunction_csv_matches_per_value_format(tmp_path, name, level, model):
    config_path = CONFIGS / name
    out = tmp_path / "wavefunction.csv"
    argv = ["wavefunction", "--config", str(config_path), "--level", str(level), "--model", model]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    config = load_config(config_path)
    layout = model.upper()
    sample = analytic_spinor(config.interaction, level, config.grid, config.constants, model=layout)
    assert out.read_bytes() == _per_value_csv(config, sample)
    if name == "linear.json":
        # real coupling: at least two components are exactly zero at every level
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert sum(all(row[k] == "0" for row in rows) for k in range(1, 5)) >= 2


def test_wavefunction_negative_zero_column_is_written_per_value(tmp_path, monkeypatch):
    # "%.17g" prints -0.0 as -0, so a column with any -0.0 must not be
    # written as the literal 0 of an all-zero column
    def signed_zeros(spec, level, grid, consts, model):
        sample = analytic_spinor(spec, level, grid, consts, model=model)
        psi2 = np.zeros(grid.n_points, complex)
        psi2.real[:] = -0.0
        psi2.imag[7] = -0.0
        return dataclasses.replace(sample, psi2=psi2)

    monkeypatch.setattr(cli, "analytic_spinor", signed_zeros)
    config_path = CONFIGS / "morse.json"
    out = tmp_path / "wavefunction.csv"
    assert main(["wavefunction", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    config = load_config(config_path)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[3] for row in rows] == ["-0"] * config.grid.n_points
    assert [i for i, row in enumerate(rows) if row[4] != "0"] == [7] and rows[7][4] == "-0"
    sample = signed_zeros(config.interaction, -1, config.grid, config.constants, "GDO")
    assert out.read_bytes() == _per_value_csv(config, sample)


def test_wavefunction_x_column_keeps_the_sign_of_a_zero_endpoint(tmp_path):
    # grids that differ only in the sign of x_max compare equal, yet the
    # last x reads 0 on one and -0 on the other
    last = []
    for x_max in (0.0, -0.0, 0.0):
        path = _write(tmp_path, dict(_LINEAR, grid={"x_min": -8.0, "x_max": x_max, "n_points": 801}))
        out = tmp_path / "wavefunction.csv"
        assert main(["wavefunction", "--config", str(path), "--out", str(out)]) == EXIT_OK
        last.append(out.read_text().splitlines()[-1].split(",")[0])
    assert last == ["0", "-0", "0"]


def _assert_levels_sample(tmp_path, capsys, config, levels):
    # each level exits 0 with warnings raised as errors, and writes finite
    # samples of grid norm 1; nothing reaches stderr
    path = _write(tmp_path, config)
    for level in levels:
        out = tmp_path / f"wavefunction_{level}.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["wavefunction", "--config", str(path), "--out", str(out), "--level", str(level)]) == EXIT_OK
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.isfinite(table).all()
        h = (table[-1, 0] - table[0, 0]) / (len(table) - 1)
        assert h * np.sum(table[:, 1:] ** 2) == pytest.approx(1.0, abs=1e-12)
    assert capsys.readouterr().err == ""


def test_wide_left_morse_window_writes_finite_normalized_levels(tmp_path, capsys):
    # at D = 40 and x_min = -40, z^(s-n) overflows where e^(-z/2) underflows
    _assert_levels_sample(tmp_path, capsys, {
        "interaction": {"kind": "morse", "D": 40.0, "A": 1.0, "B": 0.5, "alpha": 1.0},
        "grid": {"x_min": -40.0, "x_max": 20.0, "n_points": 4000},
    }, (-1, 1))


def test_deep_morse_well_is_sampled_relative_to_its_largest_value(tmp_path, capsys):
    # at s = 400 the unnormalized prefactor z^(s-k) e^(-z/2) peaks near e^2318
    # (x = -5.99), beyond the float range; taken relative to its largest
    # value it normalizes like any other level
    _assert_levels_sample(tmp_path, capsys, {
        "interaction": {"kind": "morse", "D": 400.0, "A": 1.0, "B": 0.5, "alpha": 1.0},
        "grid": {"x_min": -6.0, "x_max": 20.0, "n_points": 4000},
    }, (-1, 3))


@pytest.mark.parametrize(
    "interaction, window, levels",
    [
        # s = 400 on [600, 700]: z is about e^-600, so z^(s-k) alone is 0 at every point
        ({"kind": "morse", "D": 400.0, "A": 1.0, "B": 0.5, "alpha": 1.0}, (600.0, 700.0), (-1, 3)),
        # the shipped Morse coupling, far right of its well
        (_morse()["interaction"], (800.0, 900.0), (-1, 1)),
        # exp(-xi^2/2) alone is 0 at every point beyond xi = 38.6
        ({"kind": "linear", "omega": 1.0}, (40.0, 60.0), (-1, 3)),
    ],
    ids=["deep-morse-right", "morse-right", "linear-far"],
)
def test_far_window_is_sampled_relative_to_its_largest_value(tmp_path, capsys, interaction, window, levels):
    # the tail's prefactor underflows everywhere on the window, its logarithm does not
    grid = {"x_min": window[0], "x_max": window[1], "n_points": 4000}
    _assert_levels_sample(tmp_path, capsys, {"interaction": interaction, "grid": grid}, levels)


def test_morse_sample_beyond_float_range_exits_1(tmp_path, capsys):
    # at x_min = -800, exp(-alpha x) and so z itself overflow, and no scale
    # can recover the state; the one line on stderr is the ParameterError
    # that names the overflow, with no numpy warning before it
    path = _write(tmp_path, dict(_morse(), grid={"x_min": -800.0, "x_max": 20.0, "n_points": 4000}))
    out = tmp_path / "wavefunction.csv"
    for level in (-1, 1):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["wavefunction", "--config", str(path), "--out", str(out), "--level", str(level)])
        assert code == EXIT_FAILED
        assert capsys.readouterr().err.splitlines() == [
            "gdo: morse z = 2(A + iB) e^(-alpha x)/(hbar alpha) overflows on this window "
            "for x <= -709.162; narrow the grid window"
        ]
        assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [["verify"], ["spectrum", "--numeric"], ["models"]],
    ids=["verify", "spectrum-numeric", "models"],
)
def test_morse_coupling_beyond_float_range_exits_1(tmp_path, capsys, command):
    # at x_min = -800 the coupling's real exp(-alpha x) overflows; the one
    # line on stderr names the overflow and the window, with no numpy
    # warning before it and no symptom such as non-finite matrix entries
    path = _write(tmp_path, dict(_morse(), grid={"x_min": -800.0, "x_max": 20.0, "n_points": 4000}))
    out = tmp_path / "artifact.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(command + ["--config", str(path), "--out", str(out)])
    assert code == EXIT_FAILED
    assert capsys.readouterr().err.splitlines() == [
        "gdo: morse e^(-alpha x) overflows on this window for x <= -709.982; narrow the grid window"
    ]
    assert not out.exists()


def _lone_call(tmp_path, argv, name):
    # a fresh parser, as in a process that makes no other call
    cli._parser.cache_clear()
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    return out.read_bytes()


@pytest.mark.parametrize(
    "calls",
    [
        [("morse.json", ["spectrum", "--numeric"]), ("morse.json", ["spectrum"])],
        [("cot.json", ["wavefunction", "--level", "2"]), ("cot.json", ["wavefunction"])],
        # the x column of the last grid is kept: cot's must not reach morse, nor morse's cot
        [
            ("cot.json", ["wavefunction", "--level", "2"]),
            ("morse.json", ["wavefunction", "--level", "1", "--model", "gjc"]),
            ("cot.json", ["wavefunction"]),
        ],
    ],
    ids=["morse.json-first0-second0", "cot.json-first1-second1", "cot-morse-cot"],
)
def test_consecutive_calls_match_lone_calls(tmp_path, calls):
    # the parser is built once per process; options of one call must not
    # leak into the next
    argvs = [argv + ["--config", str(CONFIGS / name)] for name, argv in calls]
    outputs = []
    for run, argv in enumerate(argvs):
        out = tmp_path / f"consecutive_{run}"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        outputs.append(out.read_bytes())
    lone = [_lone_call(tmp_path, argv, f"lone_{run}") for run, argv in enumerate(argvs)]
    assert outputs == lone
    assert len(set(outputs)) == len(outputs)


def test_wavefunction_logs_its_times(tmp_path, monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger="gdo")
    argv = ["wavefunction", "--config", str(CONFIGS / "cot.json"), "--level", "2", "--model", "gjc"]
    outputs = {}
    for level in ("quiet", "info"):
        monkeypatch.setenv("GDO_LOG", level)
        caplog.clear()
        out = tmp_path / f"wavefunction_{level}.csv"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        outputs[level] = (out.read_bytes(), [r.getMessage() for r in caplog.records])
    assert outputs["quiet"][1] == []
    (line,) = outputs["info"][1]
    assert re.fullmatch(
        r"wavefunction level 2 model gjc n 4000: sample took \d+\.\d ms, format took \d+\.\d ms, "
        r"write took \d+\.\d ms, 0 fallback values",
        line,
    )
    # the times go to the log, never into the artifact
    assert outputs["info"][0] == outputs["quiet"][0]


def _verify_log(tmp_path, monkeypatch, caplog, level):
    monkeypatch.setenv("GDO_LOG", level)
    caplog.clear()
    out = tmp_path / f"verify_{level}.json"
    assert main(["verify", "--config", str(CONFIGS / "morse.json"), "--out", str(out)]) == EXIT_OK
    return out.read_bytes(), [r.getMessage() for r in caplog.records]


def test_gdo_log_applies_to_every_call(tmp_path, monkeypatch, caplog):
    # the handler of caplog takes every level; GDO_LOG alone decides what reaches it
    caplog.set_level(logging.DEBUG, logger="gdo")
    _, quiet = _verify_log(tmp_path, monkeypatch, caplog, "quiet")
    _, info = _verify_log(tmp_path, monkeypatch, caplog, "info")
    _, quiet_again = _verify_log(tmp_path, monkeypatch, caplog, "quiet")
    assert not any("verify took" in line for line in quiet + quiet_again)
    assert sum("verify took" in line for line in info) == 1


def test_verify_logs_each_check_time(tmp_path, monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger="gdo")
    first, lines = _verify_log(tmp_path, monkeypatch, caplog, "info")
    second, _ = _verify_log(tmp_path, monkeypatch, caplog, "info")
    assert first == second
    timed = [line.split()[1] for line in lines if line.startswith("check ") and line.endswith(" ms")]
    assert timed == [check["name"] for check in json.loads(first)["checks"]]
    verdicts = [line.split()[4] for line in lines if line.startswith("check ")]
    assert verdicts == ["ok" if check["passed"] else "FAILED" for check in json.loads(first)["checks"]]


def test_models_samples_one_ladder_and_one_singlet(tmp_path, monkeypatch):
    # both models' reports come from one ladder pair and one singlet sample
    ladders, singlets = [], []
    real_ladder = gdo.operators.ladder_pair
    monkeypatch.setattr(
        gdo.operators, "ladder_pair", lambda *args: ladders.append(args) or real_ladder(*args)
    )
    for module in (cli, gdo.models):
        real = module.analytic_spinor
        monkeypatch.setattr(
            module,
            "analytic_spinor",
            lambda *args, real=real, **kw: singlets.append(args[1]) or real(*args, **kw),
        )
    out = tmp_path / "models.json"
    assert main(["models", "--config", str(CONFIGS / "morse.json"), "--out", str(out)]) == EXIT_OK
    assert len(ladders) == 1 and singlets == [-1]
    kinds = [(m["kind"], m["dual_kind"]) for m in json.loads(out.read_text())["models"]]
    assert kinds == [("gajc", "gjc"), ("gjc", "gajc")]



@pytest.mark.parametrize(
    "command, code",
    [
        (["verify"], EXIT_FAILED),
        (["spectrum", "--numeric"], EXIT_FAILED),
        (["models"], EXIT_OK),
        (["check"], EXIT_OK),
        (["wavefunction"], EXIT_OK),
    ],
    ids=["verify", "spectrum-numeric", "models", "check", "wavefunction"],
)
def test_morse_square_beyond_float_range_is_refused_where_it_is_formed(tmp_path, capsys, command, code):
    # at x_min = -400 e^(-alpha x) is finite but f^2 overflows: the commands
    # that form f^2 exit 1 with the one line that names the window, and no
    # numpy warning; the others never square f and write their artifact
    path = _write(tmp_path, dict(_morse(), grid={"x_min": -400.0, "x_max": 20.0, "n_points": 4000}))
    out = tmp_path / "artifact"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(command + ["--config", str(path), "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == EXIT_OK:
        assert err == "" and out.stat().st_size > 0
        return
    assert re.fullmatch(
        r"gdo: f\^2 overflows on this window for x in \[-400, -354\.\d+\]; narrow the grid window\n", err
    )
    assert not out.exists()


_LONG = ["wavefunction", "--config", str(CONFIGS / "cot.json"), "--level", "2"]
_SHORT = ["check", "--config", str(CONFIGS / "cot.json")]


@pytest.mark.parametrize("first, second", [(_LONG, _SHORT), (_SHORT, _LONG)], ids=["long-short", "short-long"])
def test_rewrite_leaves_the_bytes_of_a_fresh_write(tmp_path, first, second):
    # the artifact is written over the old one in place, then cut to its length
    out, fresh = tmp_path / "artifact", tmp_path / "fresh"
    assert main(first + ["--out", str(out)]) == EXIT_OK
    assert main(second + ["--out", str(out)]) == EXIT_OK
    assert main(second + ["--out", str(fresh)]) == EXIT_OK
    assert out.read_bytes() == fresh.read_bytes()
    assert (out.stat().st_size > 5000) == (second is _LONG)


def test_rewrite_keeps_the_inode_and_mode(tmp_path):
    # as open(path, "w") does: an existing file keeps its inode and its mode,
    # and a new file gets the mode open gives it
    out, reference = tmp_path / "artifact", tmp_path / "reference"
    out.write_bytes(b"x" * 100000)
    out.chmod(0o640)
    before = out.stat()
    assert main(_SHORT + ["--out", str(out)]) == EXIT_OK
    after = out.stat()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    new = tmp_path / "new"
    assert main(_SHORT + ["--out", str(new)]) == EXIT_OK
    with open(reference, "w"):
        pass
    assert new.stat().st_mode == reference.stat().st_mode


@pytest.mark.skipif(not Path("/dev/null").exists(), reason="needs /dev/null")
@pytest.mark.parametrize("command", [_SHORT, _LONG], ids=["check", "wavefunction"])
def test_character_device_is_written_as_a_stream(capsys, command):
    # a device is not cut to length: /dev/null takes the artifact and exits 0
    assert main(command + ["--out", "/dev/null"]) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_full_device_exits_2(capsys):
    assert main(_SHORT + ["--out", "/dev/full"]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("gdo: cannot write artifact '/dev/full': ") and err.count("\n") == 1


def test_directory_target_exits_2(tmp_path, capsys):
    # a missing directory is test_malformed_input_exits_2[out_dir_missing]
    out = tmp_path / "."
    assert main(_SHORT + ["--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"gdo: cannot write artifact {str(out)!r}: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_failed_write_leaves_an_empty_file(tmp_path, capsys, monkeypatch):
    # a write that fails half way must not leave new bytes before the old tail
    out = tmp_path / "artifact"
    out.write_bytes(b"old artifact\n" * 10000)
    real_write = cli.os.write

    def half_then_full(fd, data):
        if len(data) > 100:
            return real_write(fd, data[: len(data) // 2])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.os, "write", half_then_full)
    assert main(_LONG + ["--out", str(out)]) == EXIT_BAD_INPUT
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert err.startswith(f"gdo: cannot write artifact {str(out)!r}: ") and err.count("\n") == 1
    assert out.read_bytes() == b""


@pytest.mark.parametrize("command", [_LONG, _SHORT], ids=["wavefunction", "check"])
def test_stdout_gets_the_bytes_of_out(tmp_path, capsysbinary, command):
    out = tmp_path / "artifact"
    assert main(command + ["--out", str(out)]) == EXIT_OK
    assert main(command) == EXIT_OK
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_text_stdout_without_a_byte_layer_gets_the_text_of_out(tmp_path):
    out = tmp_path / "artifact"
    assert main(_SHORT + ["--out", str(out)]) == EXIT_OK
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert main(_SHORT) == EXIT_OK
    assert stdout.getvalue().encode() == out.read_bytes()


def test_verify_logs_its_write_time(tmp_path, monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger="gdo")
    _, lines = _verify_log(tmp_path, monkeypatch, caplog, "info")
    (line,) = [line for line in lines if "verify took" in line]
    assert re.fullmatch(r"verify took \d+ ms, write took \d+\.\d\d ms", line)
