import json
import logging
from pathlib import Path

import pytest

from gdo import analytic_spinor, cli, load_config, spectrum_rows
from gdo.cli import EXIT_BAD_INPUT, EXIT_FAILED, EXIT_OK, main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# cot.json solves its numeric levels on the pole-to-pole lattice, morse.json on its grid
@pytest.mark.parametrize("name", ["morse.json", "cot.json"])
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


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_grid, "missing key 'grid' in configuration"),
        (_zero_alpha, "bad 'morse' interaction parameters: morse coupling needs alpha > 0"),
        (_infinite_depth, "bad 'morse' interaction parameters: morse parameter 'D' must be finite"),
    ],
    ids=["no_grid", "alpha_0", "D_inf"],
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
    ],
    ids=["interaction_int", "constants_int", "tolerances_list", "not_utf8", "out_dir_missing",
         "levels_fraction", "levels_bool", "n_points_fraction"],
)
def test_malformed_input_exits_2(tmp_path, capsys, config, out, message):
    path = _write(tmp_path, config)
    out = tmp_path / out
    assert main(["spectrum", "--config", str(path), "--out", str(out)]) == EXIT_BAD_INPUT
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("gdo: ") and message in err
    assert err.count("\n") == 1


_LINEAR = {
    "interaction": {"kind": "linear", "omega": 1.0},
    "grid": {"x_min": -8, "x_max": 8, "n_points": 801},
}


# the linear family has a closed-form spectrum but no closed-form eigenfunctions
@pytest.mark.parametrize(
    "command",
    [["verify"], ["models"], ["wavefunction", "--level", "1"]],
    ids=["verify", "models", "wavefunction"],
)
def test_unsupported_family_exits_2(tmp_path, capsys, command):
    path = _write(tmp_path, _LINEAR)
    out = tmp_path / "artifact"
    assert main(command + ["--config", str(path), "--out", str(out)]) == EXIT_BAD_INPUT
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("gdo: ") and err.count("\n") == 1


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


def _wrong_theta(data):
    data["theta_override"] = 0.3


def _tiny_eigen_rel(data):
    # the singlet fills one component, so |quotient| - delta is only rounding
    # (3.3e-16 for delta = 0.7); exactly 0 for the shipped delta = 1
    data["constants"]["mass"] = 0.7
    data["tolerances"]["eigen_rel"] = 1e-17


@pytest.mark.parametrize(
    "name, edit, command",
    [
        ("morse.json", _wrong_theta, ["check"]),
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


def test_verify_real_line_probes_repeat(tmp_path):
    config = CONFIGS / "cot.json"
    outputs = []
    for run in range(2):
        out = tmp_path / f"real_line_{run}.json"
        argv = ["verify", "--config", str(config), "--mode", "real_line", "--out", str(out)]
        assert main(argv) == EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    probes = json.loads(outputs[0])["real_line_probes"]
    seeds = [row["epsilon"] for row in spectrum_rows(load_config(config))]
    assert [probe["seed"] for probe in probes] == seeds
    assert all(probe["converged"] for probe in probes)


@pytest.mark.parametrize("level", [-1, 1])
def test_wavefunction_csv_matches_per_value_format(tmp_path, level):
    config_path = CONFIGS / "morse.json"
    out = tmp_path / "wavefunction.csv"
    argv = ["wavefunction", "--config", str(config_path), "--level", str(level), "--out", str(out)]
    assert main(argv) == EXIT_OK
    config = load_config(config_path)
    sample = analytic_spinor(config.interaction, level, config.grid, config.constants, model="GDO")
    lines = ["x,re_psi1,im_psi1,re_psi2,im_psi2"]
    for x, psi1, psi2 in zip(config.grid.points, sample.psi1, sample.psi2):
        values = (x, psi1.real, psi1.imag, psi2.real, psi2.imag)
        lines.append(",".join(format(float(v), ".17g") for v in values))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def _lone_call(tmp_path, argv, name):
    # a fresh parser, as in a process that makes no other call
    cli._parser.cache_clear()
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    return out.read_bytes()


@pytest.mark.parametrize(
    "name, first, second",
    [
        ("morse.json", ["spectrum", "--numeric"], ["spectrum"]),
        ("cot.json", ["wavefunction", "--level", "2"], ["wavefunction"]),
    ],
)
def test_consecutive_calls_match_lone_calls(tmp_path, name, first, second):
    # the parser is built once per process; options of one call must not
    # leak into the next
    config = ["--config", str(CONFIGS / name)]
    outputs = []
    for run, argv in enumerate((first, second)):
        out = tmp_path / f"consecutive_{run}"
        assert main(argv + config + ["--out", str(out)]) == EXIT_OK
        outputs.append(out.read_bytes())
    lone = [
        _lone_call(tmp_path, argv + config, f"lone_{run}")
        for run, argv in enumerate((first, second))
    ]
    assert outputs == lone
    assert outputs[0] != outputs[1]


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
