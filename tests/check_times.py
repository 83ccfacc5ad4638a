"""Print the median wall time of each of the nine verify checks over the sweep stream.

The configs are the first CYCLES cycles of the sweep stream of
perfbench/workloads.py at the given seed (n = 1001), each run through
`gdo verify` in this process ROUNDS times, with GDO_LOG=info.  The times are
the ones verify_all logs on its per-check lines ("check <name> ... took
<ms> ms"), so they are the program's own measurements; the last line gives
the median of the nine summed per verify.  Columns: every config, then the
Morse and the cot configs alone.  Run it on two checkouts to compare them:

    python tests/check_times.py --seed 7 --cycles 8 --rounds 5

It is a script, not a test; its numbers depend on the host.  The gdo
sources used are the ones of the checkout the script sits in.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import os
import statistics
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import VERIFY_CHECKS, config_cycles  # noqa: E402  (puts ROOT/src on sys.path)

import gdo.cli  # noqa: E402

FAMILIES = ("morse", "cot")


class _CheckTimes(logging.Handler):
    """Keeps (check name, ms) of every per-check line of verify_all."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.times = []

    def emit(self, record):
        # the args of verify_all's line: name, measured, threshold, verdict, ms
        if record.msg.startswith("check "):
            self.times.append((record.args[0], record.args[4]))


def check_times(seed: int, cycles: int, rounds: int):
    """{(family, check): [ms, ...]}, with "total" for the nine summed per verify."""
    handler = _CheckTimes()
    logger = logging.getLogger("gdo")
    logger.addHandler(handler)
    # the records go to the handler only, not to the root logger's stderr;
    # the handler drops all but the per-check lines
    logger.propagate = False
    os.environ["GDO_LOG"] = "info"
    samples = defaultdict(list)
    configs = list(itertools.chain.from_iterable(
        itertools.islice(config_cycles("sweep", seed), cycles)
    ))
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for index, config in enumerate(configs):
            path = Path(tmp) / f"sweep{index:02d}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            paths.append((config["interaction"]["kind"], path))
        out = str(Path(tmp) / "verify.json")
        for _ in range(rounds):
            for family, path in paths:
                handler.times.clear()
                gdo.cli.main(["verify", "--config", str(path), "--out", out])
                for name, ms in handler.times:
                    samples[family, name].append(ms)
                samples[family, "total"].append(sum(ms for _, ms in handler.times))
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--cycles", type=int, default=8, help="sweep cycles, four configs each")
    parser.add_argument("--rounds", type=int, default=5, help="verify runs per config")
    args = parser.parse_args()
    samples = check_times(args.seed, args.cycles, args.rounds)
    print(f"median ms per check, sweep seed={args.seed} cycles={args.cycles} rounds={args.rounds}")
    print(f"{'check':<24}{'all':>9}" + "".join(f"{family:>9}" for family in FAMILIES))
    for name in VERIFY_CHECKS + ("total",):
        cells = [samples[family, name] for family in FAMILIES]
        medians = [statistics.median(values) for values in [sum(cells, [])] + cells]
        print(f"{name:<24}" + "".join(f"{ms:9.3f}" for ms in medians))
    return 0


if __name__ == "__main__":
    sys.exit(main())
