"""Print the median wall time of gdo commands run as fresh processes, with their baselines.

Each command is a subprocess of this interpreter with the checkout's src/
first on PYTHONPATH, timed from spawn to exit, so a time holds the
interpreter start, the imports and the run.  The baselines are `python -c
pass`, `python -c "import numpy"` and `python -c "import gdo.cli"`; the
gdo commands are `gdo verify` and `gdo spectrum --numeric` on each shipped
config, run as the console script runs them (gdo.cli.main) and writing
over one --out path in a temporary directory.  Each round runs every
command once, in a fixed order, so a slow spell of the host falls on all
of them alike; a line gives the median, least and greatest time over the
rounds and the exit code of the command.

The children inherit this process's environment.  With
PYTHONDONTWRITEBYTECODE set, Python writes no bytecode cache, so every
child compiles the gdo modules again: the header line records
sys.dont_write_bytecode, and whether src/gdo holds a cache to read.

    python tests/shell_times.py --rounds 9 --json shell.json

--json writes the medians, the rounds and the host (tests/host.py) to a
file as well.  It is a script, not a test; its numbers depend on the host.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from host import host_facts

ROOT = Path(__file__).resolve().parent.parent
# what the gdo console script runs
GDO = [sys.executable, "-c", "import sys; from gdo.cli import main; sys.exit(main())"]
BASELINES = (
    ("python -c pass", [sys.executable, "-c", "pass"]),
    ("import numpy", [sys.executable, "-c", "import numpy"]),
    ("import gdo.cli", [sys.executable, "-c", "import gdo.cli"]),
)


def commands(out: Path):
    """(label, argv) of every timed command, the baselines first."""
    yield from BASELINES
    for config in sorted((ROOT / "configs").glob("*.json")):
        for label, args in (("verify", ["verify"]), ("spectrum-numeric", ["spectrum", "--numeric"])):
            yield f"{config.stem} {label}", GDO + args + ["--config", str(config), "--out", str(out)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=9, help="runs of every command")
    parser.add_argument("--json", type=Path, help="also write the medians and the host to this file")
    args = parser.parse_args()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cached = any((ROOT / "src" / "gdo" / "__pycache__").glob("*.pyc"))
    print(f"# dont_write_bytecode={sys.dont_write_bytecode} gdo_bytecode_cache={cached}")
    with tempfile.TemporaryDirectory() as tmp:
        todo = list(commands(Path(tmp) / "artifact"))
        times = {label: [] for label, _ in todo}
        codes = {}
        for _ in range(args.rounds):
            for label, argv in todo:
                t0 = perf_counter()
                done = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                times[label].append(perf_counter() - t0)
                codes[label] = done.returncode
    rows = {}
    for label, values in times.items():
        ms = [v * 1000 for v in values]
        rows[label] = {
            "median_ms": statistics.median(ms), "min_ms": min(ms), "max_ms": max(ms), "exit": codes[label],
        }
        print(
            f"{label:32s} median {rows[label]['median_ms']:7.1f} ms  min {min(ms):7.1f}  "
            f"max {max(ms):7.1f}  exit={codes[label]}"
        )
    if args.json is not None:
        record = {
            "host": host_facts(), "dont_write_bytecode": sys.dont_write_bytecode,
            "gdo_bytecode_cache": cached, "rounds": args.rounds, "commands": rows,
        }
        args.json.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
