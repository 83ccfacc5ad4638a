import json
import math
import re
import subprocess
import sys
from pathlib import Path

import check_times
import host

SCRIPT = Path(check_times.__file__)


def test_check_times_writes_medians_and_host_to_json(tmp_path):
    out = tmp_path / "times.json"
    subprocess.run(
        [sys.executable, str(SCRIPT), "--cycles", "1", "--rounds", "1", "--json", str(out)],
        check=True, capture_output=True, text=True,
    )
    record = json.loads(out.read_text(encoding="utf-8"))
    assert set(record) == {
        "host", "seed", "cycles", "rounds", "unit", "checks", "kernels", "wavefunction_stages",
    }
    assert (record["seed"], record["cycles"], record["rounds"], record["unit"]) == (7, 1, 1, "ms")
    assert set(record["host"]) == {
        "cpu_model", "nproc", "numpy", "cpu_features", "git_commit", "source_sha256",
    }
    assert record["host"]["nproc"] >= 1 and record["host"]["cpu_features"]
    # the gdo sources the script timed, named with or without git metadata
    assert record["host"]["source_sha256"] == host._source_sha256()
    assert re.fullmatch("[0-9a-f]{64}", record["host"]["source_sha256"])
    tables = {
        "checks": set(check_times.VERIFY_CHECKS) | {"total", "artifact_write"},
        "kernels": set(check_times.KERNELS),
        "wavefunction_stages": {"sample", "format", "write"},
    }
    for table, names in tables.items():
        assert set(record[table]) == names
        for medians in record[table].values():
            assert set(medians) == {"all", "morse", "cot", "min"}
            assert all(math.isfinite(ms) and ms >= 0 for ms in medians.values())
            # with one round each command's least time is its time
            assert medians["min"] == medians["all"]
    # every verify samples its coupling, builds a ladder and seeds its
    # levels in a Schrodinger matrix, so every kernel ran
    assert tables["kernels"] == {
        "stacked_inverse_iteration", "sturm_counts", "sample_coupling", "ladder_pair",
        "assemble_schrodinger",
    }
    assert all(record["kernels"][kernel]["all"] > 0 for kernel in tables["kernels"])
