"""Span tracing for the gdo benchmark, done from outside the package.

Each target is a public function patched at the name its caller looks up
(for example gdo.verify.symtridiag_eigenvalues, the name verify_all calls),
so gdo itself stays untouched.  Spans live in memory while the jobs run and
are written out once at the end.  A layer's self time is its span's duration
minus the part of that interval covered by its child spans.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    job: int
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


def _count_rows(counts, args, result, error):
    counts["eigensolve.symtridiag_eigenvalues.rows"] += len(args[0])


def _count_kept(counts, args, result, error):
    if error is None:
        counts["eigensolve.eigs_used"] += len(result)


def _count_iterations(counts, args, result, error):
    if error is None and result.converged:
        counts["eigensolve.inverse_iteration.iterations"] += result.iterations
    else:
        counts["eigensolve.inverse_iteration.failed"] += 1


Hook = Optional[Callable]

# (span name, owner, attribute, hook): the owner is a module, or a class for
# methods; one span name may sit at several call sites
TARGETS: Tuple[Tuple[str, str, str, Hook], ...] = (
    ("cli.main", "gdo.cli", "main", None),
    ("config.load_config", "gdo.cli", "load_config", None),
    ("config.load_config", "gdo", "load_config", None),
    ("config.dumps_canonical", "gdo.cli", "dumps_canonical", None),
    ("verify.verify_all", "gdo.cli", "verify_all", None),
    ("verify.spectrum_rows", "gdo.cli", "spectrum_rows", None),
    ("verify.spectrum_rows", "gdo", "spectrum_rows", None),
    ("verify.real_line_probe", "gdo.cli", "real_line_probe", None),
    ("verify.real_line_probe", "gdo", "real_line_probe", None),
    ("verify.numeric_epsilons", "gdo.verify", "numeric_epsilons", _count_kept),
    ("eigensolve.symtridiag_eigenvalues", "gdo.verify", "symtridiag_eigenvalues", _count_rows),
    ("eigensolve.inverse_iteration", "gdo.verify", "inverse_iteration", _count_iterations),
    ("operators.factorization_check", "gdo.verify", "factorization_check", None),
    ("operators.assemble", "gdo.verify", "assemble_dirac", None),
    ("operators.assemble", "gdo.verify", "assemble_schrodinger", None),
    ("operators.assemble", "gdo.operators", "assemble_ladder", None),
    ("operators.assemble", "gdo.models", "assemble_ladder", None),
    ("operators.potentials", "gdo.verify", "effective_potentials", None),
    ("operators.potentials", "gdo.verify", "closed_form_potentials", None),
    ("operators.matvec", "gdo.operators:OperatorMatrix", "matvec", None),
    ("interactions.check_pseudo_hermiticity_condition", "gdo.cli",
     "check_pseudo_hermiticity_condition", None),
    ("interactions.check_pseudo_hermiticity_condition", "gdo.verify",
     "check_pseudo_hermiticity_condition", None),
    ("interactions.eval_f", "gdo.interactions", "eval_f", None),
    ("interactions.eval_f", "gdo.operators", "eval_f", None),
    ("spectra.analytic_spinor", "gdo.cli", "analytic_spinor", None),
    ("spectra.analytic_spinor", "gdo.verify", "analytic_spinor", None),
    ("spectra.analytic_spinor", "gdo.models", "analytic_spinor", None),
    ("spectra.dirac_spectrum", "gdo.verify", "dirac_spectrum", None),
    ("polynomials.laguerre", "gdo.spectra", "laguerre", None),
    ("polynomials.jacobi_any", "gdo.spectra", "jacobi_any", None),
    ("models.assemble_model", "gdo.verify", "assemble_model", None),
    ("models.assemble_model", "gdo.models", "assemble_model", None),
    ("models.ground_state_structure", "gdo.cli", "ground_state_structure", None),
    ("models.ground_state_structure", "gdo.verify", "ground_state_structure", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _, _ in TARGETS))
COUNT_NAMES = (
    "eigensolve.symtridiag_eigenvalues.rows",
    "eigensolve.inverse_iteration.iterations",
    "eigensolve.inverse_iteration.failed",
)


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Duration of each span minus the part of it its children cover."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered = union_length(
            [(max(c.start, span.start), min(c.end, span.end)) for c in children[index]]
        )
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    """Wraps the targets while installed and records one span per call."""

    def __init__(self):
        # a slot is None only while its call is still running
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        self.job = 0
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, func, hook: Hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            result = error = None
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(self.job, name, start, end, parent)
                if hook is not None:
                    hook(counts, args, result, error)

        return traced

    def install(self) -> None:
        for name, owner_path, attr, hook in TARGETS:
            owner = _owner(owner_path)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))

    def uninstall(self) -> bool:
        """Put every original back; True when each one is in place again."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original for owner, attr, original in self._saved)
        self._saved.clear()
        return restored

    def layer_metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per span name: self time, inclusive time and calls; then the counters."""
        self_s: Counter = Counter()
        calls: Counter = Counter()
        intervals = defaultdict(list)
        for span, own in zip(self.spans, self_times(self.spans)):
            self_s[span.name] += own
            calls[span.name] += 1
            intervals[span.name].append((span.start, span.end))
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = (self_s[name], "s")
            out[f"{name}.total_s"] = (union_length(intervals[name]), "s")
            out[f"{name}.calls"] = (calls[name], "count")
        for name in COUNT_NAMES:
            out[name] = (self.counts[name], "count")
        rows = self.counts["eigensolve.symtridiag_eigenvalues.rows"]
        kept = self.counts["eigensolve.eigs_used"]
        out["eigensolve.eigs_used_ratio"] = (kept / rows if rows else 0.0, "ratio")
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
