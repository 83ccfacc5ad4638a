"""Print the median wall time of each verify check and of each wavefunction CSV stage.

The first table: the configs are the first CYCLES cycles of the sweep stream
of perfbench/workloads.py at the given seed (n = 1001), each run through
`gdo verify` in this process ROUNDS times, with GDO_LOG=info.  The times are
the ones verify_all logs on its per-check lines ("check <name> ... took
<ms> ms"), so they are the program's own measurements; the "total" line
gives the median of the nine summed per verify, and the "artifact_write"
line, outside that total, the write of the verify artifact over its
--out, from verify's own line ("verify took <ms> ms, write took <ms>
ms").  The second table: the first CYCLES cycles of the artifacts stream
(n = 4000), each level the benchmark writes run through `gdo wavefunction`
ROUNDS times, with the sample, format and write times of its log line
("wavefunction ... sample took <ms> ms, format took <ms> ms, write took
<ms> ms").  Every command of a table writes over one --out path, as a
benchmark job does.  Columns: the medians over every config, then over the
Morse and the cot configs alone, and min: the median over the commands
of every config of each one's least time over the rounds.  A slow spell
of the host does not move min once each config's rounds outlast it; the
defaults, 4 cycles and 20 rounds, take about 7 s a run on a 2-vCPU host.
Run it on two checkouts, alternately, to compare them:

    python tests/check_times.py --seed 7 --cycles 4 --rounds 20

A third table gives five kernels of each verify, timed by wrappers around
the names KERNELS lists and summed per verify: the two eigenvalue kernels,
stacked_inverse_iteration and the Sturm counts, and the coupling sample,
the ladder pair and the Schrodinger matrix that the checks build.  With
--json PATH the medians of all three tables go to PATH as well, with the
host they were measured on (tests/host.py: CPU model, nproc, numpy
version, the CPU features numpy enabled, git commit, and a SHA-256 of the
gdo sources, which names the code on an export without git metadata too):

    python tests/check_times.py --seed 7 --json times.json

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
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import (  # noqa: E402  (puts ROOT/src on sys.path)
    VERIFY_CHECKS,
    config_cycles,
    wavefunction_levels,
)

import gdo.cli  # noqa: E402
import gdo.eigensolve  # noqa: E402
import gdo.operators  # noqa: E402
import gdo.verify  # noqa: E402
from host import host_facts  # noqa: E402

FAMILIES = ("morse", "cot")
COLUMNS = ("all",) + FAMILIES + ("min",)
# (modules, name) of each timed kernel, wrapped in every module that looks
# it up: the Sturm counts in gdo.verify, by the certificate, and in
# gdo.eigensolve, by bisection, and the coupling sample in gdo.verify, by the
# checks, and in gdo.operators, by effective_potentials.  No kernel calls
# another
KERNELS = {
    "stacked_inverse_iteration": ((gdo.verify,), "stacked_inverse_iteration"),
    "sturm_counts": ((gdo.verify, gdo.eigensolve), "_sturm_counts"),
    "sample_coupling": ((gdo.verify, gdo.operators), "sample_coupling"),
    "ladder_pair": ((gdo.verify,), "ladder_pair"),
    "assemble_schrodinger": ((gdo.verify,), "assemble_schrodinger"),
}


class _Times(logging.Handler):
    """Keeps (name, ms) of every per-check line of verify_all, the write time of verify's
    own line, and (stage, ms) of every wavefunction line.

    The timed kernels add their (name, ms) through timed().
    """

    def __init__(self):
        super().__init__(logging.INFO)
        self.times = []
        self.kernels = []

    def emit(self, record):
        if record.msg.startswith("check "):
            # name, measured, threshold, verdict, ms
            self.times.append((record.args[0], record.args[4]))
        elif record.msg.startswith("verify took"):
            # verify ms, write ms
            self.times.append(("artifact_write", record.args[1]))
        elif record.msg.startswith("wavefunction "):
            # level, model, n, sample ms, format ms, write ms
            self.times += [("sample", record.args[3]), ("format", record.args[4]), ("write", record.args[5])]

    def timed(self, name, function):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = function(*args, **kwargs)
            self.kernels.append((name, 1e3 * (perf_counter() - start)))
            return result

        return wrapper


def _timed_runs(workload: str, seed: int, cycles: int, rounds: int, commands):
    """{(run, family, name): [ms, ...]}, one ms per round, for each command of commands(config).

    run is (config index, command index).  "total" holds the logged times
    but the artifact write summed per command, and each kernel its calls'
    times summed per command.
    """
    handler = _Times()
    logger = logging.getLogger("gdo")
    logger.addHandler(handler)
    # the records go to the handler only, not to the root logger's stderr;
    # the handler drops all but the timed lines
    logger.propagate = False
    os.environ["GDO_LOG"] = "info"
    originals = {name: getattr(modules[0], attr) for name, (modules, attr) in KERNELS.items()}
    for name, (modules, attr) in KERNELS.items():
        for module in modules:
            setattr(module, attr, handler.timed(name, originals[name]))
    samples = defaultdict(list)
    configs = list(itertools.chain.from_iterable(
        itertools.islice(config_cycles(workload, seed), cycles)
    ))
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for index, config in enumerate(configs):
            path = Path(tmp) / f"{workload}{index:02d}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            paths.append((config, path))
        out = str(Path(tmp) / "artifact")
        for _ in range(rounds):
            for index, (config, path) in enumerate(paths):
                family = config["interaction"]["kind"]
                for command, argv in enumerate(commands(config)):
                    run = (index, command)
                    handler.times.clear()
                    handler.kernels.clear()
                    gdo.cli.main(argv + ["--config", str(path), "--out", out])
                    for name, ms in handler.times:
                        samples[run, family, name].append(ms)
                    samples[run, family, "total"].append(
                        sum(ms for name, ms in handler.times if name != "artifact_write")
                    )
                    for kernel in KERNELS:
                        samples[run, family, kernel].append(
                            sum(ms for name, ms in handler.kernels if name == kernel)
                        )
    for name, (modules, attr) in KERNELS.items():
        for module in modules:
            setattr(module, attr, originals[name])
    logger.removeHandler(handler)
    return samples


def check_times(seed: int, cycles: int, rounds: int):
    """{(run, family, check): [ms, ...]}, with "total" for the nine summed per verify and "artifact_write"."""
    return _timed_runs("sweep", seed, cycles, rounds, lambda config: [["verify"]])


def wavefunction_times(seed: int, cycles: int, rounds: int):
    """{(run, family, "sample", "format" or "write"): [ms, ...]} of every level an artifacts job writes."""
    return _timed_runs(
        "artifacts", seed, cycles, rounds,
        lambda config: [["wavefunction", "--level", str(level)] for level in wavefunction_levels(config)],
    )


def _medians(samples, names):
    """{name: {"all": ms, "morse": ms, "cot": ms, "min": ms}}.

    all, morse and cot are the medians over every round of every command
    and of the commands of each family; min is the median over the commands
    of each one's least time over the rounds.
    """
    table = {}
    for name in names:
        runs = [(family, times) for (_, family, key), times in samples.items() if key == name]
        table[name] = {"all": statistics.median([ms for _, times in runs for ms in times])}
        for family in FAMILIES:
            table[name][family] = statistics.median([ms for f, times in runs if f == family for ms in times])
        table[name]["min"] = statistics.median([min(times) for _, times in runs])
    return table


def _print_table(table, label):
    print(f"{label:<26}" + "".join(f"{column:>9}" for column in COLUMNS))
    for name, medians in table.items():
        print(f"{name:<26}" + "".join(f"{medians[column]:9.3f}" for column in COLUMNS))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--cycles", type=int, default=4, help="sweep and artifacts cycles, four configs each")
    parser.add_argument("--rounds", type=int, default=20, help="verify and wavefunction runs per config")
    parser.add_argument("--json", type=Path, help="also write the medians and the host to this file")
    args = parser.parse_args(argv)
    verify = check_times(args.seed, args.cycles, args.rounds)
    wavefunction = wavefunction_times(args.seed, args.cycles, args.rounds)
    tables = {
        "checks": _medians(verify, VERIFY_CHECKS + ("total", "artifact_write")),
        "kernels": _medians(verify, tuple(KERNELS)),
        "wavefunction_stages": _medians(wavefunction, ("sample", "format", "write")),
    }
    runs = f"seed={args.seed} cycles={args.cycles} rounds={args.rounds}"
    print(f"median ms per check, sweep {runs}")
    _print_table(tables["checks"], "check")
    print(f"median ms per verify in each kernel, sweep {runs}")
    _print_table(tables["kernels"], "kernel")
    print(f"median ms per wavefunction CSV, artifacts {runs}")
    _print_table(tables["wavefunction_stages"], "stage")
    if args.json is not None:
        record = {
            "host": host_facts(), "seed": args.seed, "cycles": args.cycles, "rounds": args.rounds,
            "unit": "ms", **tables,
        }
        args.json.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
