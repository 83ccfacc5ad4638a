"""Audit in exact arithmetic every window that verify's seeded eigenvalue route certifies.

Every float64 is a rational, so oracles.exact_count counts the eigenvalues
of a tridiagonal at or below a float exactly, in fractions.Fraction, with
no rounding and no pivmin.  gdo.verify.seeded_eigenvalues certifies level
k in the window rho_k -+ (r_k + COUNT_MARGIN atol); the window is sound
when the exact counts at its ends are k and k + 1.  The configs are the
shipped ones at their own n, then the first CYCLES cycles of the sweep
stream of perfbench/workloads.py at seeds 7 and 2027 (n = 1001).  Each
config runs `gdo spectrum --numeric`'s solve (spectrum_rows) once; one line
per certified level gives the window and its two exact counts, a config
whose levels went to bisection gets one line saying so, and the last line
gives the totals.  The output is deterministic, so two checkouts can be
diffed:

    python tests/certificate_audit.py > audit.txt

It takes about 2 minutes on a 2-vCPU host, 916 exact counts.  It is a
script, not a test; tier-1 runs the same audit on fewer configs at n = 401.
The gdo sources used are the ones of the checkout the script sits in.
"""

from __future__ import annotations

import itertools
import logging
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import config_cycles  # noqa: E402  (puts ROOT/src on sys.path)

import gdo.verify  # noqa: E402
from gdo import load_config, spectrum_rows  # noqa: E402
from gdo.config import config_from_dict  # noqa: E402
from gdo.eigensolve import _stebz_bounds  # noqa: E402
from iteration_counts import _SeededLevels  # noqa: E402
from oracles import exact_count  # noqa: E402

SEEDS = (7, 2027)
CYCLES = 16


def configs():
    """(name, RunConfig) of every audited config, the shipped files first."""
    for path in sorted((ROOT / "configs").glob("*.json")):
        yield f"shipped {path.stem}", load_config(path)
    for seed in SEEDS:
        cycles = itertools.islice(config_cycles("sweep", seed), CYCLES)
        for index, config in enumerate(itertools.chain.from_iterable(cycles)):
            yield f"sweep seed={seed} job={index:02d}", config_from_dict(config)


def audit_lines(handler: _SeededLevels):
    """One line per certified level or uncertified config; the last line gives the totals."""
    iterate = gdo.verify.stacked_inverse_iteration
    solves = []

    def recording(bands, shifts, tol):
        solves.append((bands, iterate(bands, shifts, tol)))
        return solves[-1][1]

    windows = held = bisected = 0
    gdo.verify.stacked_inverse_iteration = recording
    try:
        for name, config in configs():
            solves.clear()
            handler.levels.clear()
            spectrum_rows(config, numeric=True)
            n = config.grid.n_points
            # every level of one call takes the same route
            route = handler.levels[0][1] if handler.levels else "-"
            if route != "certified":
                bisected += 1
                yield f"{name} n={n} route={route}"
                continue
            [((e, d, _), results)] = solves
            margin = gdo.verify.COUNT_MARGIN * _stebz_bounds(d, e)[-1]
            for k, result in enumerate(results):
                rho, half = result.eigenvalue.real, result.residual_norm + margin
                counts = (exact_count(d, e, rho - half), exact_count(d, e, rho + half))
                windows += 1
                held += counts == (k, k + 1)
                yield (
                    f"{name} n={n} level {k} window {rho:.12g} -+ {half:.3e} "
                    f"exact counts {counts[0]} {counts[1]} {'holds' if counts == (k, k + 1) else 'MISSES'}"
                )
    finally:
        gdo.verify.stacked_inverse_iteration = iterate
    yield f"total windows={windows} hold={held} miss={windows - held} bisection_configs={bisected}"


def main() -> int:
    handler = _SeededLevels()
    logger = logging.getLogger("gdo.verify")
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    # the records go to the handler only, not to the root logger's stderr
    logger.propagate = False
    for line in audit_lines(handler):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
