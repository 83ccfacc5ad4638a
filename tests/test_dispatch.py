"""Verdicts of the shipped configs do not depend on numpy's SIMD dispatch level.

numpy picks its loops for exp, sin, cos and the reductions from the CPU
features it finds, and two paths can differ in the last bit (tests/host.py),
so the rounding-level measurements move between them; the verdicts and the
O(h^2) measurements must not.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import host
from gdo import load_config, verify_all

CONFIGS = host.ROOT / "configs"
TESTS = Path(__file__).resolve().parent

# print the features numpy enabled, then (name, measured, passed) of every
# check of each config named on the command line
_REPORTS = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import host
from gdo import load_config, verify_all
reports = {
    name: [(c.name, c.measured, c.passed) for c in verify_all(load_config(Path(sys.argv[2]) / name)).checks]
    for name in sys.argv[3:]
}
print(json.dumps({"cpu_features": host.cpu_features(), "reports": reports}))
"""


def _assert_verdicts_hold_without(features):
    """The verdicts of a child process with these dispatch targets off match this process's."""
    names = sorted(path.name for path in CONFIGS.glob("*.json"))
    # the setting holds for the child process only
    path = os.pathsep.join(filter(None, [str(host.ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(features), PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", _REPORTS, str(TESTS), str(CONFIGS), *names],
        env=env, capture_output=True, text=True, check=True,
    )
    narrow = json.loads(result.stdout.splitlines()[-1])
    assert not set(features) & set(narrow["cpu_features"])
    for name in names:
        native = verify_all(load_config(CONFIGS / name)).checks
        assert [(c.name, c.passed) for c in native] == [
            (check, passed) for check, _, passed in narrow["reports"][name]
        ]
        for check, (_, measured, _) in zip(native, narrow["reports"][name]):
            if check.name in ("eigenvalues_numeric", "singlet_structure"):
                assert measured == pytest.approx(check.measured, rel=1e-9, abs=0)


def test_verdicts_do_not_depend_on_avx512_dispatch():
    features = host.avx512_dispatch()
    if not features:
        pytest.skip("numpy dispatches no AVX-512 loops on this host")
    _assert_verdicts_hold_without(features)


def test_verdicts_do_not_depend_on_baseline_dispatch():
    # every dispatch target off, X86_V3 (AVX2) included: numpy's baseline loops
    features = host.dispatch_targets()
    if not features:
        pytest.skip("numpy dispatches no loops above its baseline on this host")
    _assert_verdicts_hold_without(features)
