"""Seeded job streams for the gdo benchmark, the jobs themselves, and their output checks.

Every job is one parameter set.  The stream cycles through four strata, one
per family and coupling regime; the seed only places each job inside its
stratum.  Each run therefore holds the same mix of regimes, which keeps the
per-run medians steady from seed to seed while the parameters still vary.

The strata are chosen for what they exercise, not so that checks pass:

* morse, s = D/(hbar alpha) in [2.45, 2.55]: the regime of configs/morse.json,
  one bound pair;
* cot, s = A/(hbar alpha) in [0.85, 1.05]: weak coupling next to
  configs/cot.json, where the contour eigenvalue check only passes inside a
  window of grid sizes;
* morse, s in [4.35, 4.45]: three bound pairs;
* cot, s in [2.6, 3.0]: strong coupling.  Between s = 1.5 and 2.6 many
  real-line probes need 50 to 100 iterations or stall, so probe jobs there
  take 0.2 to 3.4 s and a 30 s run cannot give a steady rate; that band is
  left out.

Failing verdicts and stalled probes are outputs the program reports, so they
are counted, not filtered: a job only fails when it raises or when its
artifacts disagree with the exit code, with themselves or with the
independent closed form below.
"""

from __future__ import annotations

import csv
import json
import math
import random
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# the benchmark measures the sources next to it, never an installed copy
if not (ROOT / "src" / "gdo" / "__init__.py").is_file():
    raise ImportError(f"no gdo sources under {ROOT / 'src'}")
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import gdo  # noqa: E402
import gdo.cli  # noqa: E402

WORKLOADS = ("sweep", "probe", "artifacts")

# grid size per workload: at 1001 points one verify takes about 2.5 s with the
# pure-Python eigensolver, so a 30 s sweep run holds three cycles and its
# medians are not set by one slow job; probe and artifacts use the shipped 4000
N_POINTS = {"sweep": 1001, "probe": 4000, "artifacts": 4000}

CONSTANTS = {"hbar": 1.0, "c": 1.0, "mass": 1.0}
TOLERANCES = {"condition": 1e-10, "eigen_rel": 1e-3, "residual": 1e-8}
LEVELS = 4
COT_CLEARANCE = 1e-3

STRATA = (
    ("morse", (2.45, 2.55)),
    ("cot", (0.85, 1.05)),
    ("morse", (4.35, 4.45)),
    ("cot", (2.6, 3.0)),
)
# the eigenvalue deviation of the morse strata grows with s and alpha; narrow
# ranges keep the median of a four-job sweep run within a few percent
ALPHA_RANGE = (0.985, 1.015)
BLOCK = 16

VERIFY_CHECKS = (
    "condition_shift",
    "potential_closed_form",
    "factorization",
    "shape_invariance",
    "eigenvalues_numeric",
    "spinor_coefficients",
    "model_identification",
    "model_duality",
    "singlet_structure",
)

WAVEFUNCTION_HEADER = ["x", "re_psi1", "im_psi1", "re_psi2", "im_psi2"]


def _points(rng: random.Random) -> Iterator[List[float]]:
    """Endless unit-cube points (alpha, s, shape1, shape2) in Latin-hypercube blocks.

    Each block of BLOCK points puts exactly one point in every 1/BLOCK slice
    of every axis.  A run thus covers each range evenly instead of by chance,
    which keeps its medians and counts nearly the same from seed to seed.
    """
    while True:
        slices = [rng.sample(range(BLOCK), BLOCK) for _ in range(4)]
        for j in range(BLOCK):
            yield [(axis[j] + rng.random()) / BLOCK for axis in slices]


def _between(bounds, u: float) -> float:
    lo, hi = bounds
    return lo + (hi - lo) * u


def _interaction(family: str, s_range, u: List[float]) -> dict:
    hbar = CONSTANTS["hbar"]
    alpha = _between(ALPHA_RANGE, u[0])
    s = _between(s_range, u[1])
    if family == "morse":
        return {
            "kind": "morse",
            "D": s * hbar * alpha,
            "A": _between((0.5, 1.5), u[2]),
            "B": _between((-0.8, 0.8), u[3]),
            "alpha": alpha,
        }
    return {
        "kind": "cot",
        "A": s * hbar * alpha,
        "alpha": alpha,
        "a": _between((-0.5, 0.5), u[2]),
        "b": _between((0.1, 0.5), u[3]),
    }


def _grid(interaction: dict, n_points: int) -> dict:
    alpha = interaction["alpha"]
    if interaction["kind"] == "morse":
        # the shipped morse window, scaled with the decay length 1/alpha
        return {"x_min": -6.0 / alpha, "x_max": 20.0 / alpha, "n_points": n_points}
    # one full period of the shifted cot coupling, clear of both poles
    start = interaction["a"] / alpha
    return {
        "x_min": start + COT_CLEARANCE,
        "x_max": start + math.pi / alpha - COT_CLEARANCE,
        "n_points": n_points,
    }


def config_cycles(workload: str, seed: int) -> Iterator[List[dict]]:
    """Endless stream of job cycles; one cycle visits each stratum once.

    The probe workload keeps only the cot jobs of each cycle.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    points = [_points(rng) for _ in STRATA]
    while True:
        cycle = []
        for (family, s_range), stratum in zip(STRATA, points):
            interaction = _interaction(family, s_range, next(stratum))
            if workload == "probe" and family != "cot":
                continue
            cycle.append(
                {
                    "constants": dict(CONSTANTS),
                    "interaction": interaction,
                    "grid": _grid(interaction, N_POINTS[workload]),
                    "tolerances": dict(TOLERANCES),
                    "levels": LEVELS,
                    "mode": "contour",
                }
            )
        yield cycle


def _epsilon(config: dict, k: int) -> float:
    """Closed-form lower-partner level k, written out independently of gdo.

    Morse: D^2 - (D - k hbar alpha)^2; cot: (A + k hbar alpha)^2 - A^2.
    """
    spec = config["interaction"]
    step = config["constants"]["hbar"] * spec["alpha"]
    if spec["kind"] == "morse":
        return spec["D"] ** 2 - (spec["D"] - k * step) ** 2
    return (spec["A"] + k * step) ** 2 - spec["A"] ** 2


def _energy(config: dict, eps: float) -> float:
    consts = config["constants"]
    mc2 = consts["mass"] * consts["c"] ** 2
    return math.sqrt(mc2 * mc2 + consts["c"] ** 2 * eps)


def reference_rows(config: dict) -> List[dict]:
    """Closed-form spectrum lines: the singlet, then pair n with eps = level n + 1.

    Morse pairs stop below floor(D/(hbar alpha)) - 1; both families stop at
    the configured level count.
    """
    spec = config["interaction"]
    mc2 = config["constants"]["mass"] * config["constants"]["c"] ** 2
    pairs = config["levels"] - 1
    if spec["kind"] == "morse":
        pairs = min(pairs, math.floor(spec["D"] / (config["constants"]["hbar"] * spec["alpha"])) - 1)
    rows = [{"n": -1, "epsilon": 0.0, "energy_plus": -mc2, "energy_minus": -mc2}]
    for n in range(pairs):
        eps = _epsilon(config, n + 1)
        energy = _energy(config, eps)
        rows.append({"n": n, "epsilon": eps, "energy_plus": energy, "energy_minus": -energy})
    return rows


def wavefunction_levels(config: dict) -> List[int]:
    """Singlet plus every spinor level the closed forms define for this config.

    Morse levels k >= 1 exist while k < floor(D/(hbar alpha)); the cot family
    is unbounded, so it is capped at the configured level count.
    """
    spec = config["interaction"]
    if spec["kind"] == "morse":
        top = math.floor(spec["D"] / (config["constants"]["hbar"] * spec["alpha"]))
    else:
        top = config["levels"]
    return [-1] + list(range(1, top))


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_rows(rows: List[dict], config: dict) -> Optional[str]:
    """None when the spectrum rows match the closed form, else the first mismatch."""
    expected = reference_rows(config)
    if len(rows) != len(expected):
        return f"{len(rows)} spectrum lines, closed form has {len(expected)}"
    for row, ref in zip(rows, expected):
        if row["n"] != ref["n"]:
            return f"line index {row['n']} where the closed form has {ref['n']}"
        for key in ("epsilon", "energy_plus", "energy_minus"):
            if not _close(float(row[key]), ref[key]):
                return f"line {ref['n']}: {key} {row[key]!r} != closed form {ref[key]!r}"
    return None


@dataclass
class JobResult:
    """What one job cost and produced; the time covers program calls only."""

    seconds: float
    error: Optional[str] = None
    deviations: List[float] = field(default_factory=list)
    failed_checks: List[str] = field(default_factory=list)
    artifact_bytes: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


def _read_json(path: Path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _cli(argv: List[str]) -> int:
    # looked up at call time so a tracer can wrap gdo.cli.main
    return gdo.cli.main(argv)


def _sweep(config_path: Path, config: dict, out_dir: Path, result: JobResult) -> Optional[str]:
    out = out_dir / "verify.json"
    start = perf_counter()
    code = _cli(["verify", "--config", str(config_path), "--out", str(out), "--mode", "contour"])
    result.seconds = perf_counter() - start
    payload = _read_json(out)
    result.artifact_bytes += out.stat().st_size
    checks = {c["name"]: c for c in payload["checks"]}
    if sorted(checks) != sorted(VERIFY_CHECKS) or len(payload["checks"]) != len(VERIFY_CHECKS):
        return f"verify listed {[c['name'] for c in payload['checks']]}"
    overall = all(c["passed"] for c in payload["checks"])
    if payload["overall"] != overall:
        return f"overall {payload['overall']} but checks say {overall}"
    if code != (0 if overall else 1):
        return f"exit code {code} with overall {overall}"
    if not all(math.isfinite(c["measured"]) for c in payload["checks"]):
        return "non-finite measured value"
    result.failed_checks = [c["name"] for c in payload["checks"] if not c["passed"]]
    result.deviations.append(checks["eigenvalues_numeric"]["measured"])
    return None


def _probe(config_path: Path, config: dict, out_dir: Path, result: JobResult) -> Optional[str]:
    start = perf_counter()
    cfg = gdo.load_config(str(config_path))
    rows = gdo.spectrum_rows(cfg)
    seeds = [row["epsilon"] for row in rows]
    probes = gdo.real_line_probe(
        cfg.interaction, cfg.grid, cfg.constants, seeds, tol=cfg.tolerances.residual
    )
    result.seconds = perf_counter() - start
    problem = check_rows(rows, config)
    if problem:
        return problem
    if len(probes) != len(seeds):
        return f"{len(probes)} probes for {len(seeds)} seeds"
    tol = cfg.tolerances.residual
    for probe, seed in zip(probes, seeds):
        if probe["seed"] != seed:
            return f"probe seed {probe['seed']!r} != {seed!r}"
        if "error" in probe:
            continue
        if not probe["converged"] or not probe["residual"] <= tol:
            return f"probe at {seed} returned unconverged with residual {probe['residual']}"
        result.deviations.append(abs(probe["eigenvalue_re"] - seed) / max(1.0, abs(seed)))
    return None


def _artifacts(config_path: Path, config: dict, out_dir: Path, result: JobResult) -> Optional[str]:
    base = ["--config", str(config_path), "--out"]
    levels = wavefunction_levels(config)
    outs = {
        "check": out_dir / "check.json",
        "spectrum": out_dir / "spectrum.json",
        "models": out_dir / "models.json",
    }
    codes = {}
    start = perf_counter()
    for command, out in outs.items():
        codes[command] = _cli([command] + base + [str(out)])
    for level in levels:
        out = out_dir / f"wavefunction_{level}.csv"
        codes[level] = _cli(["wavefunction"] + base + [str(out), "--level", str(level)])
    result.seconds = perf_counter() - start

    check = _read_json(outs["check"])
    if codes["check"] != (0 if check["passed"] else 1):
        return f"check exit code {codes['check']} with passed {check['passed']}"
    if check["passed"] != (check["max_deviation"] <= check["tolerance"]):
        return "check verdict disagrees with its own deviation"
    spec, hbar = config["interaction"], config["constants"]["hbar"]
    if spec["kind"] == "morse":
        theta = 2.0 / (hbar * spec["alpha"]) * math.atan2(spec["B"], spec["A"])
    else:
        theta = 2.0 * spec["b"] / (hbar * spec["alpha"])
    if not _close(check["theta_used"], theta):
        return f"theta {check['theta_used']!r} != closed form {theta!r}"

    if codes["spectrum"] != 0:
        return f"spectrum exit code {codes['spectrum']}"
    problem = check_rows(_read_json(outs["spectrum"]), config)
    if problem:
        return problem

    models = _read_json(outs["models"])
    mc2 = config["constants"]["mass"] * config["constants"]["c"] ** 2
    kinds = [(m["kind"], m["dual_kind"], m["ground_energy"]) for m in models["models"]]
    if kinds != [("gajc", "gjc", -mc2), ("gjc", "gajc", mc2)]:
        return f"models listed {kinds}"
    gaps = [abs(abs(complex(m["rayleigh_quotient_re"], m["rayleigh_quotient_im"])) - mc2)
            for m in models["models"]]
    eigen_rel = config["tolerances"]["eigen_rel"]
    if models["passed"] != all(gap <= eigen_rel for gap in gaps):
        return "models verdict disagrees with its quotients"
    if codes["models"] != (0 if models["passed"] else 1):
        return f"models exit code {codes['models']} with passed {models['passed']}"

    for level in levels:
        if codes[level] != 0:
            return f"wavefunction level {level} exit code {codes[level]}"
        problem = _check_wavefunction(out_dir / f"wavefunction_{level}.csv", config, level, result)
        if problem:
            return problem
    written = list(outs.values()) + [out_dir / f"wavefunction_{level}.csv" for level in levels]
    result.artifact_bytes += sum(path.stat().st_size for path in written)
    return None


def _coupling(spec: dict, x: np.ndarray) -> np.ndarray:
    if spec["kind"] == "morse":
        return spec["D"] - complex(spec["A"], spec["B"]) * np.exp(-spec["alpha"] * x)
    return -spec["A"] / np.tan(spec["alpha"] * x - spec["a"] - 1j * spec["b"])


def dirac_quotient(config: dict, x: np.ndarray, psi1: np.ndarray, psi2: np.ndarray) -> complex:
    """Rayleigh quotient of a sampled spinor under H = [[mc^2, c(p + i f)], [c(p - i f), -mc^2]].

    p is -i hbar times the central difference with zeros outside the grid.
    """
    consts = config["constants"]
    mc2 = consts["mass"] * consts["c"] ** 2
    h = (x[-1] - x[0]) / (x.size - 1)
    f = _coupling(config["interaction"], x)

    def momentum(v):
        ahead = np.append(v[1:], 0.0)
        behind = np.insert(v[:-1], 0, 0.0)
        return -1j * consts["hbar"] / (2.0 * h) * (ahead - behind)

    top = mc2 * psi1 + consts["c"] * (momentum(psi2) + 1j * f * psi2)
    bottom = consts["c"] * (momentum(psi1) - 1j * f * psi1) - mc2 * psi2
    return complex((np.vdot(psi1, top) + np.vdot(psi2, bottom)) / (np.vdot(psi1, psi1) + np.vdot(psi2, psi2)))


def _check_wavefunction(path: Path, config: dict, level: int, result: JobResult) -> Optional[str]:
    grid = config["grid"]
    with open(path, "r", encoding="utf-8", newline="") as handle:
        table = list(csv.reader(handle))
    if table[0] != WAVEFUNCTION_HEADER or len(table) != grid["n_points"] + 1:
        return f"level {level}: {len(table) - 1} rows under header {table[0]}"
    values = np.array(table[1:], dtype=float)
    if not np.all(np.isfinite(values)):
        return f"level {level}: non-finite sample"
    x = values[:, 0]
    if not (_close(x[0], grid["x_min"]) and _close(x[-1], grid["x_max"])):
        return f"level {level}: x runs {x[0]}..{x[-1]}"
    psi1 = values[:, 1] + 1j * values[:, 2]
    psi2 = values[:, 3] + 1j * values[:, 4]
    norm = (x[-1] - x[0]) / (x.size - 1) * float(np.sum(np.abs(psi1) ** 2 + np.abs(psi2) ** 2))
    if abs(norm - 1.0) > 1e-9:
        return f"level {level}: norm {norm}"
    if level == -1:
        if np.any(psi2):
            return "singlet has a nonzero lower component"
        return None
    energy = _energy(config, _epsilon(config, level))
    deviation = abs(dirac_quotient(config, x, psi1, psi2) - energy) / max(1.0, energy)
    if not deviation <= config["tolerances"]["eigen_rel"]:
        return f"level {level}: Rayleigh quotient is {deviation:.3e} off the closed-form energy"
    result.deviations.append(deviation)
    return None


_JOBS = {"sweep": _sweep, "probe": _probe, "artifacts": _artifacts}


def write_config(config: dict, work_dir: Path) -> Path:
    path = work_dir / "config.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config, handle)
    return path


def run_job(workload: str, config: dict, work_dir: Path) -> JobResult:
    """Write the config, run the job, check what it produced.

    Only the program calls are timed.  Any exception counts as a failed job
    and is reported on stderr; the run carries on with the next job.
    """
    result = JobResult(seconds=math.nan)
    config_path = write_config(config, work_dir)
    start = perf_counter()
    try:
        result.error = _JOBS[workload](config_path, config, work_dir, result)
    except Exception:  # a failing job must not end the run
        if math.isnan(result.seconds):
            result.seconds = perf_counter() - start
        result.error = traceback.format_exc()
    if result.error:
        print(f"job failed ({workload}): {json.dumps(config['interaction'])}\n{result.error}",
              file=sys.stderr)
    return result


def warm_up(workload: str, config: dict, work_dir: Path) -> None:
    """Run the job once on a 101-point grid so first-call costs land in set-up.

    Its result is dropped: on so coarse a grid the output checks may not hold.
    """
    small = dict(config, grid=dict(config["grid"], n_points=101))
    _JOBS[workload](write_config(small, work_dir), small, work_dir, JobResult(math.nan))


def count_failed_checks(results: List[JobResult]) -> Dict[str, int]:
    counts = {name: 0 for name in VERIFY_CHECKS}
    for result in results:
        for name in result.failed_checks:
            counts[name] += 1
    return counts
