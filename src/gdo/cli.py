"""Command-line front end: JSON configs in, JSON/CSV artifacts out.

Exit codes: 0 every requested check passed, 1 a verification or range check
failed, 2 the input could not be understood or the artifact could not be
written.  GDO_LOG in {quiet, info, debug} sets the level of the gdo logger,
whose diagnostics go to stderr, on every call of main; unset, the logger
keeps the level it has (WARNING in a fresh process).  Artifact bytes are
deterministic for a given configuration on one numpy version and one CPU
dispatch level: numpy chooses its SIMD loops (exp, log, sin, the reductions)
from the CPU features it finds, and two such paths can differ in the last
bit of a value, so identical bytes across hosts need the same numpy and the
same enabled features.  Every float in a wavefunction CSV is the exact text
of "%.17g" % v, which round-trips each float64 bit for bit.

An artifact is written as bytes.  --out is overwritten in place: opened
without truncation, written from its start, then, if it is a regular file,
cut to the length written.  A re-run onto its own --out therefore skips the
truncate-to-zero that makes some filesystems (ext4 with auto_da_alloc) start
writeback when the file is closed.  A write that fails cuts the file to
length 0, and the run exits 2.  A process killed inside the write can leave
the new bytes followed by the tail of the old file, where a truncating open
would leave a short file; either way its exit status is not 0.  A device,
FIFO or pipe as --out is written as a stream, never cut.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import math
import os
import stat
import sys
from time import perf_counter

import numpy as np

from ._floattext import csv_text
from .config import RunConfig, dumps_canonical, load_config
from .errors import ConfigError, GdoError, NonFiniteError
from .interactions import check_pseudo_hermiticity_condition, default_condition_grid
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


# os.open as open(path, "wb") would call it, but without O_TRUNC
_OUT_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _emit(data: bytes, out_path):
    """Write an artifact over out_path in place (see the module docstring), or to stdout without one."""
    if not out_path:
        sys.stdout.flush()
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:
            # a text stream without a byte layer, such as io.StringIO
            sys.stdout.write(data.decode())
        else:
            buffer.write(data)
        return
    try:
        fd = os.open(out_path, _OUT_FLAGS, 0o666)
        try:
            regular = stat.S_ISREG(os.fstat(fd).st_mode)
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
                if regular:
                    os.ftruncate(fd, len(data))
            except OSError:
                # never leave new bytes followed by the old file's tail
                if regular:
                    os.ftruncate(fd, 0)
                raise
        finally:
            os.close(fd)
    except OSError as exc:
        raise ConfigError(f"cannot write artifact {out_path!r}: {exc}") from exc


def _json_bytes(payload) -> bytes:
    return (dumps_canonical(payload) + "\n").encode()


def cmd_check(config: RunConfig, args) -> int:
    report = check_pseudo_hermiticity_condition(
        config.interaction,
        config.interaction.theta(config.constants),
        default_condition_grid(config.interaction, config.constants),
        config.constants,
        tol=config.tolerances.condition,
    )
    _emit(_json_bytes(dataclasses.asdict(report)), args.out)
    return EXIT_OK if report.passed else EXIT_FAILED


def cmd_spectrum(config: RunConfig, args) -> int:
    rows = spectrum_rows(config, numeric=args.numeric)
    _emit(_json_bytes(rows), args.out)
    if args.numeric:
        worst = eigen_deviation(rows)
        if worst > config.tolerances.eigen_rel:
            log.warning("numeric spectrum deviates by %.3e (scaled)", worst)
            return EXIT_FAILED
    return EXIT_OK


def cmd_wavefunction(config: RunConfig, args) -> int:
    layout = {"gdo": "GDO", "gajc": "GDO", "gjc": "GJC"}[args.model]
    grid = config.grid
    t0 = perf_counter()
    sample = analytic_spinor(config.interaction, args.level, grid, config.constants, model=layout)
    t1 = perf_counter()
    data, fallbacks = csv_text(
        "x,re_psi1,im_psi1,re_psi2,im_psi2\n",
        np.stack([grid.points, sample.psi1.real, sample.psi1.imag, sample.psi2.real, sample.psi2.imag], axis=1),
    )
    t2 = perf_counter()
    _emit(data, args.out)
    t3 = perf_counter()
    log.info(
        "wavefunction level %d model %s n %d: sample took %.1f ms, format took %.1f ms, write took %.1f ms, "
        "%d fallback values",
        args.level, args.model, grid.n_points, (t1 - t0) * 1000, (t2 - t1) * 1000, (t3 - t2) * 1000, fallbacks,
    )
    return EXIT_OK


def cmd_verify(config: RunConfig, args) -> int:
    t0 = perf_counter()
    report = verify_all(config)
    runtime = perf_counter() - t0
    for check in report.checks:
        # a NaN fails its check, but JSON cannot hold it: say which check it was
        if not math.isfinite(check.measured):
            raise NonFiniteError(f"check {check.name} measured {check.measured}, not a finite number")
    payload = {
        "checks": [dataclasses.asdict(c) for c in report.checks],
        "overall": report.overall,
    }
    data = _json_bytes(payload)
    t1 = perf_counter()
    _emit(data, args.out)
    log.info("verify took %d ms, write took %.2f ms", int(runtime * 1000), (perf_counter() - t1) * 1000)
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
    _emit(_json_bytes(payload), args.out)
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
            # kept for the command lines that still pass it (ROADMAP item 18)
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
