"""Print the inverse-iteration counts of the sweep and probe streams, and their totals.

The streams are the first 16 cycles of perfbench/workloads.py at seeds 7 and
2027, read as they are.  For each sweep config the line gives the iteration
count of every seeded eigenvalues_numeric level, in level order, and the
route the levels took: certified, or bisection when the seeded solve did
not certify them all, or "-" when no level was seeded.  For each probe
config it gives, per seed, the iteration count of the real-line probe,
marked with a trailing "*" when its shift was refreshed to a Rayleigh value
and "!" when its converged flag is False, or "error" when the probe raised.
The last two lines give the totals.  The sweep total counts the slowest
level of each stacked call, since the stack iterates until its last level
converges; the probe total counts every probe, and next to it the
cyclic-reduction factorizations the probes made, one per probe plus one per
refresh.  The output is deterministic, so two checkouts can be diffed:

    python tests/iteration_counts.py > after.txt

It is a script, not a test.  The gdo sources used are the ones of the
checkout the script sits in.
"""

from __future__ import annotations

import itertools
import logging
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import config_cycles  # noqa: E402  (puts ROOT/src on sys.path)

import gdo  # noqa: E402
import gdo.eigensolve  # noqa: E402
import gdo.verify  # noqa: E402
from gdo.config import config_from_dict  # noqa: E402

SEEDS = (7, 2027)
CYCLES = 16


class _SeededLevels(logging.Handler):
    """Keeps (iterations, route, failure) of every level line of gdo.verify's seeded solve."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.levels = []

    def emit(self, record):
        # the args of seeded_eigenvalues' line: level, n, seed, shift,
        # numeric, radius, iterations, route, failure
        if record.msg.startswith("level "):
            self.levels.append(record.args[6:9])


def _configs(workload: str, seed: int):
    cycles = itertools.islice(config_cycles(workload, seed), CYCLES)
    return list(itertools.chain.from_iterable(cycles))


def sweep_lines(handler: _SeededLevels):
    """One line per sweep config; the slowest seeded level of each adds to the total."""
    total = fallbacks = stalls = breakdowns = 0
    for seed in SEEDS:
        for index, config in enumerate(_configs("sweep", seed)):
            handler.levels.clear()
            gdo.spectrum_rows(config_from_dict(config), numeric=True)
            counts = tuple(iterations for iterations, _, _ in handler.levels)
            # every level of one call takes the same route
            route = handler.levels[0][1] if handler.levels else "-"
            fallbacks += route == "bisection"
            stalls += any("stalled" in failure for _, _, failure in handler.levels)
            # a stacked solve that broke down reports "-" for its iterations
            breakdowns += "-" in counts
            if counts and "-" not in counts:
                total += max(counts)
            kind = config["interaction"]["kind"]
            yield f"sweep seed={seed} job={index:02d} {kind} iterations={counts} route={route}"
    yield (
        f"sweep total iterations={total} bisection={fallbacks} stalls={stalls} "
        f"breakdowns={breakdowns}"
    )


class _Probes:
    """Counts the factorizations, and keeps whether each probe's shift was refreshed."""

    def __init__(self):
        self.factorizations = 0
        self.refreshed = []
        self._factor = gdo.eigensolve._cyclic_reduction_factor
        self._probe = gdo.verify.inverse_iteration

    def factor(self, *args):
        self.factorizations += 1
        return self._factor(*args)

    def probe(self, matrix, shift, **kwargs):
        result = self._probe(matrix, shift, **kwargs)
        self.refreshed.append(result.shift != shift)
        return result


def probe_lines():
    """One line per probe config; every probe adds to the totals."""
    total = errors = stalls = 0
    spy = _Probes()
    gdo.eigensolve._cyclic_reduction_factor = spy.factor
    gdo.verify.inverse_iteration = spy.probe
    for seed in SEEDS:
        for index, config in enumerate(_configs("probe", seed)):
            cfg = config_from_dict(config)
            seeds = [row["epsilon"] for row in gdo.spectrum_rows(cfg)]
            spy.refreshed.clear()
            probes = gdo.real_line_probe(
                cfg.interaction, cfg.grid, cfg.constants, seeds, tol=cfg.tolerances.residual
            )
            # a probe that raised returned no result to the spy
            refreshed = iter(spy.refreshed)
            cells = []
            for probe in probes:
                if "error" in probe:
                    errors += 1
                    cells.append("error")
                    continue
                total += probe["iterations"]
                stalls += not probe["converged"]
                marks = ("*" if next(refreshed) else "") + ("" if probe["converged"] else "!")
                cells.append(f"{probe['iterations']}{marks}")
            yield f"probe seed={seed} job={index:02d} iterations=({', '.join(cells)})"
    yield (
        f"probe total iterations={total} factorizations={spy.factorizations} errors={errors} "
        f"unconverged={stalls}"
    )


def main() -> int:
    handler = _SeededLevels()
    logger = logging.getLogger("gdo.verify")
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    # the records go to the handler only, not to the root logger's stderr
    logger.propagate = False
    for line in itertools.chain(sweep_lines(handler), probe_lines()):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
