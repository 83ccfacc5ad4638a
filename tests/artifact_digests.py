"""Print the exit code and sha256 of every artifact of a fixed command set.

The set is 35 configs (the shipped ones, then 4 cycles each of the sweep and
artifacts streams of perfbench/workloads.py at seed 7) times 8 commands
(check, spectrum, spectrum --numeric, verify, models, and wavefunction at
levels -1, 1 and 2 in the GJC layout): 280 lines.  Run it on two checkouts
and diff the outputs to see whether a change moves any artifact byte:

    python tests/artifact_digests.py > after.txt

Each line reads "<config> <command> exit=<code> sha256=<digest>", with "-"
for the digest when the command wrote no artifact.  The artifacts go to a
temporary directory that is removed afterwards; the gdo sources used are the
ones of the checkout the script sits in.

The bytes are identical for one numpy version on one CPU dispatch level
(see tests/host.py), so a header line names both before the 280 lines:
compare two lists only when their headers match.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import config_cycles  # noqa: E402  (puts ROOT/src on sys.path)

import gdo.cli  # noqa: E402
from host import dispatch_header  # noqa: E402

SEED = 7
CYCLES = 4
COMMANDS = (
    ("check", ["check"]),
    ("spectrum", ["spectrum"]),
    ("spectrum-numeric", ["spectrum", "--numeric"]),
    ("verify", ["verify"]),
    ("models", ["models"]),
    ("wavefunction-1", ["wavefunction", "--level", "-1"]),
    ("wavefunction1", ["wavefunction", "--level", "1"]),
    ("wavefunction2-gjc", ["wavefunction", "--level", "2", "--model", "gjc"]),
)


def configs(work_dir: Path):
    """(name, path) of every config, the shipped files first."""
    for path in sorted((ROOT / "configs").glob("*.json")):
        yield path.stem, path
    for workload in ("sweep", "artifacts"):
        cycles = itertools.islice(config_cycles(workload, SEED), CYCLES)
        for index, config in enumerate(itertools.chain.from_iterable(cycles)):
            path = work_dir / f"{workload}{index:02d}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            yield path.stem, path


def main() -> int:
    print(dispatch_header())
    with tempfile.TemporaryDirectory() as tmp:
        work_dir = Path(tmp)
        for name, path in configs(work_dir):
            for label, command in COMMANDS:
                out = work_dir / f"{name}.{label}.out"
                # gdo prints its one-line diagnostics to stderr; only the codes matter here
                with contextlib.redirect_stderr(io.StringIO()):
                    code = gdo.cli.main(command + ["--config", str(path), "--out", str(out)])
                digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else "-"
                print(f"{name} {label} exit={code} sha256={digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
