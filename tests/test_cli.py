import json
import logging
from pathlib import Path

import pytest

from gdo import analytic_spinor, load_config, spectrum_rows
from gdo.cli import EXIT_BAD_INPUT, EXIT_FAILED, EXIT_OK, main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# cot.json has a constant potential, so its Sturm counts take the guarded path
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


def test_verify_failing_check_exits_1(tmp_path):
    # at 1000 points the cot eigenvalue deviation is 3.6e-3, above eigen_rel 1e-3
    config = _edited_config(tmp_path, "cot.json", lambda d: d["grid"].update(n_points=1000))
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(config), "--out", str(out)]) == EXIT_FAILED
    payload = json.loads(out.read_bytes())
    assert payload["overall"] is False
    failed = [c for c in payload["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["eigenvalues_numeric"]
    assert failed[0]["measured"] == pytest.approx(3.63e-3, rel=0.01)


def test_verify_config_without_grid_exits_2(tmp_path):
    config = _edited_config(tmp_path, "morse.json", lambda d: d.pop("grid"))
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(config), "--out", str(out)]) == EXIT_BAD_INPUT
    assert not out.exists()


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
