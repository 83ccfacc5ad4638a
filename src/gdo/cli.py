"""Command-line front end: JSON configs in, JSON/CSV artifacts out.

Exit codes: 0 every requested check passed, 1 a verification or range check
failed, 2 the input could not be understood or the artifact could not be
written.  GDO_LOG in {quiet, info, debug} sets the level of the gdo logger,
whose diagnostics go to stderr, on every call of main; unset, the logger
keeps the level it has (WARNING in a fresh process).  Artifact bytes are
deterministic for a given configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import os
import sys
from time import perf_counter

import numpy as np

from .config import RunConfig, dumps_canonical, load_config
from .errors import ConfigError, GdoError
from .interactions import check_pseudo_hermiticity_condition, default_condition_grid, metric_theta
# ground_state_structure is not called here: perfbench/tracer.py patches gdo.cli's name
from .models import (
    ground_state_structure,
    model_matrix,
    oscillator_models,
    singlet_report,
    spin_flip,
)
from .operators import assemble_ladder
from .spectra import analytic_spinor
# real_line_probe is not called here: perfbench/tracer.py patches gdo.cli's name
from .verify import eigen_deviation, real_line_probe, spectrum_rows, verify_all

log = logging.getLogger("gdo")

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_BAD_INPUT = 2
# 17 significant digits round-trip every float64 bit for bit
_CSV_FLOAT = "%.17g"


def _setup_logging():
    # basicConfig adds a stderr handler only while the root logger has none,
    # so the level is set on the gdo logger, where every call can change it
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    if "GDO_LOG" not in os.environ:
        return
    level_name = os.environ["GDO_LOG"].lower()
    levels = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        print(f"gdo: ignoring unknown GDO_LOG value {level_name!r}", file=sys.stderr)
        level_name = "quiet"
    log.setLevel(levels[level_name])


def _emit(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write artifact {out_path!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_check(config: RunConfig, args) -> int:
    report = check_pseudo_hermiticity_condition(
        config.interaction,
        metric_theta(config.interaction, config.constants),
        default_condition_grid(config.interaction, config.constants),
        config.constants,
        tol=config.tolerances.condition,
    )
    _emit(dumps_canonical(dataclasses.asdict(report)) + "\n", args.out)
    return EXIT_OK if report.passed else EXIT_FAILED


def cmd_spectrum(config: RunConfig, args) -> int:
    rows = spectrum_rows(config, numeric=args.numeric)
    _emit(dumps_canonical(rows) + "\n", args.out)
    if args.numeric:
        worst = eigen_deviation(rows)
        if worst > config.tolerances.eigen_rel:
            log.warning("numeric spectrum deviates by %.3e (scaled)", worst)
            return EXIT_FAILED
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def _x_column(points: bytes) -> tuple:
    """The points of a float64 array, formatted; the CSVs of one run share a grid.

    Float-to-text conversion is most of the cost of a CSV, so the column of
    the last grid written is kept.  The key is the points themselves: grids
    that differ only in the sign of a zero endpoint compare equal, yet print
    0 and -0.
    """
    return tuple(_CSV_FLOAT % x for x in np.frombuffer(points).tolist())


def cmd_wavefunction(config: RunConfig, args) -> int:
    layout = {"gdo": "GDO", "gajc": "GDO", "gjc": "GJC"}[args.model]
    grid = config.grid
    t0 = perf_counter()
    sample = analytic_spinor(config.interaction, args.level, grid, config.constants, model=layout)
    t1 = perf_counter()
    fields, columns = ["%s"], [_x_column(grid.points.tobytes())]
    for values in (sample.psi1.real, sample.psi1.imag, sample.psi2.real, sample.psi2.imag):
        # "%.17g" prints +0.0 as 0, so a column of +0.0 alone is written
        # without converting its values; -0.0 prints -0 and is converted
        if values.any() or np.signbit(values).any():
            fields.append(_CSV_FLOAT)
            columns.append(values.tolist())
        else:
            fields.append("0")
    template = ",".join(fields) + "\n"
    text = "x,re_psi1,im_psi1,re_psi2,im_psi2\n" + "".join([template % row for row in zip(*columns)])
    t2 = perf_counter()
    log.info(
        "wavefunction level %d model %s n %d: sample took %.1f ms, format took %.1f ms",
        args.level, args.model, grid.n_points, (t1 - t0) * 1000, (t2 - t1) * 1000,
    )
    _emit(text, args.out)
    return EXIT_OK


def cmd_verify(config: RunConfig, args) -> int:
    t0 = perf_counter()
    report = verify_all(config)
    runtime = perf_counter() - t0
    payload = {
        "checks": [dataclasses.asdict(c) for c in report.checks],
        "overall": report.overall,
    }
    _emit(dumps_canonical(payload) + "\n", args.out)
    log.info("verify took %d ms", int(runtime * 1000))
    return EXIT_OK if report.overall else EXIT_FAILED


def cmd_models(config: RunConfig, args) -> int:
    spec, grid, consts = config.interaction, config.grid, config.constants
    # both models share one ladder pair and one singlet sample
    ladder = assemble_ladder(spec, grid, consts)
    singlet = analytic_spinor(spec, -1, grid, consts)
    payload = {"models": []}
    ok = True
    for ms in oscillator_models(spec, consts):
        report = singlet_report(ms, model_matrix(ms, ladder), singlet)
        flip = spin_flip(ms)
        payload["models"].append(
            {
                "kind": ms.kind,
                "dual_kind": flip.kind,
                "ground_energy": report.ground_energy,
                "singlet_spin": report.singlet_spin,
                "occupied_component": report.occupied_component,
                "rayleigh_quotient_re": float(report.rayleigh_quotient.real),
                "rayleigh_quotient_im": float(report.rayleigh_quotient.imag),
                "residual": report.residual,
            }
        )
        ok = ok and abs(abs(report.rayleigh_quotient) - ms.delta) <= config.tolerances.eigen_rel
    payload["passed"] = ok
    _emit(dumps_canonical(payload) + "\n", args.out)
    return EXIT_OK if ok else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdo",
        description="Generalized Dirac oscillator with complex couplings: checks, spectra, wavefunctions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("check", "conjugation-shift condition report"),
        ("spectrum", "analytic level table, optionally with the numeric column"),
        ("wavefunction", "two-component bound state as CSV"),
        ("verify", "full verification suite"),
        ("models", "two-level model ground-state reports"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, help="path to a JSON run configuration")
        cmd.add_argument("--out", default=None, help="write the artifact here instead of stdout")
        if name == "spectrum":
            cmd.add_argument("--numeric", action="store_true", help="add the eigensolver column")
        if name == "wavefunction":
            cmd.add_argument("--level", type=int, default=-1, help="-1 for the singlet, k >= 1 for pairs")
            cmd.add_argument("--model", choices=("gdo", "gajc", "gjc"), default="gdo")
        if name == "verify":
            # kept for the command lines that still pass it (ROADMAP item 6)
            cmd.add_argument(
                "--mode", choices=("contour",), help="accepted for old command lines; selects nothing"
            )
    return parser


# parse_args leaves the parser as it found it, so one parser serves every call
_parser = functools.cache(build_parser)

_HANDLERS = {
    "check": cmd_check,
    "spectrum": cmd_spectrum,
    "wavefunction": cmd_wavefunction,
    "verify": cmd_verify,
    "models": cmd_models,
}


def main(argv=None) -> int:
    _setup_logging()
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"gdo: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        return _HANDLERS[args.command](config, args)
    except ConfigError as exc:
        print(f"gdo: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except GdoError as exc:
        print(f"gdo: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
