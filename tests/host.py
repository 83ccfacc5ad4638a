"""The facts about a host that timings and artifact bytes depend on.

Artifact bytes are identical for one numpy version on one CPU dispatch
level: numpy picks its SIMD loops for exp, log, sin and the reductions from
the CPU features it finds enabled, and two paths can differ in the last
bit.  tests/artifact_digests.py prints these facts in a header line and
tests/check_times.py writes them into its JSON file, so that two lists are
compared only when they come from the same numpy and dispatch level.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _umath():
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    return _multiarray_umath


def cpu_features():
    """The CPU features numpy enabled at import, sorted: its dispatch level."""
    return sorted(name for name, enabled in _umath().__cpu_features__.items() if enabled)


def dispatch_targets():
    """The dispatch targets of numpy's build that are enabled here, in the build's order.

    Each dispatched loop runs its version for the highest of these targets
    it was built for, or its baseline version; so these targets fix which
    SIMD loops run.  NPY_DISABLE_CPU_FEATURES, a space-separated list
    of targets, narrows them for one process.
    """
    enabled = set(cpu_features())
    return [name for name in getattr(_umath(), "__cpu_dispatch__", ()) if name in enabled]


def dispatch_level() -> str:
    """The enabled dispatch targets joined by "+", or "baseline" when none is enabled.

    On numpy 2.4.6's x86-64 build, "X86_V3+X86_V4+AVX512_ICL+AVX512_SPR"
    runs its AVX-512 loops, "X86_V3" its AVX2 loops and "baseline" its
    X86_V2 loops.
    """
    return "+".join(dispatch_targets()) or "baseline"


def avx512_dispatch():
    """The enabled features through which numpy dispatches its AVX-512 loops, sorted.

    These are the dispatch targets of numpy's build (X86_V4, AVX512_ICL,
    AVX512_SPR, ...) that cpu_features reports; NPY_DISABLE_CPU_FEATURES set
    to them, space-separated, makes one process run numpy's AVX2 loops or
    older.  Empty on a host, or a numpy build, without them.
    """
    return sorted(
        name for name in dispatch_targets() if name.startswith("AVX512") or name == "X86_V4"
    )


def dispatch_header() -> str:
    """One line naming the numpy version and its CPU dispatch level."""
    return f"# numpy {np.__version__} cpu_features {','.join(cpu_features())}"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    try:
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return result.stdout.strip()


def host_facts() -> dict:
    """CPU model, usable CPUs, numpy version and dispatch level, and the checkout's git commit.

    The commit carries a "-dirty" suffix when tracked files differ from it.
    """
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "numpy": np.__version__,
        "cpu_features": cpu_features(),
        "git_commit": _git_commit(),
    }
