"""Tests for the benchmark's own code: stream, closed-form reference, spans, tracer."""

import json
import math
from itertools import islice

import pytest

import workloads
from tracer import Span, Tracer, TARGETS, _owner, self_times, union_length

import gdo
from gdo.config import config_from_dict

SHIPPED = [workloads.ROOT / "configs" / name for name in ("morse.json", "cot.json")]


def _take(workload, seed, cycles=3):
    return list(islice(workloads.config_cycles(workload, seed), cycles))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_stream(workload):
    assert _take(workload, 7) == _take(workload, 7)
    assert _take(workload, 7) != _take(workload, 8)


def test_cycles_follow_the_strata():
    for cycle in _take("artifacts", 3, cycles=5):
        assert len(cycle) == len(workloads.STRATA)
        for config, (family, (lo, hi)) in zip(cycle, workloads.STRATA):
            spec = config["interaction"]
            assert spec["kind"] == family
            s = (spec["D"] if family == "morse" else spec["A"]) / spec["alpha"]
            assert lo <= s <= hi
    for cycle in _take("probe", 3):
        assert [c["interaction"]["kind"] for c in cycle] == ["cot", "cot"]
        assert all(c["grid"]["n_points"] == 4000 for c in cycle)
    assert all(c["grid"]["n_points"] == 1001 for cycle in _take("sweep", 3) for c in cycle)


def test_generated_requests_are_valid():
    for cycle in _take("artifacts", 11, cycles=6):
        for config in cycle:
            small = dict(config, grid=dict(config["grid"], n_points=101))
            cfg = config_from_dict(small)
            assert workloads.check_rows(gdo.spectrum_rows(cfg), small) is None
            levels = workloads.wavefunction_levels(small)
            for level in levels:
                gdo.analytic_spinor(cfg.interaction, level, cfg.grid, cfg.constants)
            if config["interaction"]["kind"] == "morse":
                # the level bound computed here is tight: one more is rejected
                with pytest.raises(gdo.LevelOutOfRangeError):
                    gdo.analytic_spinor(cfg.interaction, levels[-1] + 1, cfg.grid, cfg.constants)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_closed_form_reference_matches_shipped_configs(path):
    with open(path, encoding="utf-8") as handle:
        config = json.load(handle)
    rows = gdo.spectrum_rows(gdo.load_config(str(path)))
    assert workloads.check_rows(rows, config) is None
    rows[-1]["epsilon"] *= 1.0 + 1e-9
    assert workloads.check_rows(rows, config) is not None


def test_closed_form_reference_values():
    consts = {"hbar": 1.0, "c": 1.0, "mass": 1.0}
    morse = {"constants": consts, "levels": 4,
             "interaction": {"kind": "morse", "D": 2.5, "A": 1.0, "B": 0.5, "alpha": 1.0}}
    assert [r["epsilon"] for r in workloads.reference_rows(morse)] == [0.0, 2.5**2 - 1.5**2]
    cot = {"constants": consts, "levels": 3, "interaction": {"kind": "cot", "A": 1.0, "alpha": 1.0}}
    rows = workloads.reference_rows(cot)
    assert [r["epsilon"] for r in rows] == [0.0, 3.0, 8.0]
    assert rows[2]["energy_plus"] == pytest.approx(3.0)


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert union_length([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)


def test_self_time_is_duration_minus_covered_child_time():
    spans = [
        Span(0, "root", 0.0, 10.0, -1),
        Span(0, "a", 1.0, 4.0, 0),
        Span(0, "leaf", 2.0, 3.0, 1),
        Span(0, "b", 6.0, 8.0, 0),
        Span(0, "late", 9.0, 12.0, 0),  # runs past its parent: only 1 s is covered
        Span(1, "other", 20.0, 21.0, -1),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 2.0 - 1.0, 2.0, 1.0, 2.0, 3.0, 1.0])


def test_tracer_records_nested_spans_and_restores_every_target():
    originals = [(owner, attr, vars(_owner(owner))[attr]) for _, owner, attr, _ in TARGETS]
    cfg = gdo.load_config(str(SHIPPED[1]))
    tracer = Tracer()
    tracer.install()
    try:
        rows = gdo.spectrum_rows(cfg)
        gdo.real_line_probe(cfg.interaction, cfg.grid, cfg.constants, [rows[1]["epsilon"]])
    finally:
        assert tracer.uninstall()
    for owner, attr, original in originals:
        assert vars(_owner(owner))[attr] is original

    names = [span.name for span in tracer.spans]
    assert names[:2] == ["verify.spectrum_rows", "spectra.dirac_spectrum"]
    assert tracer.spans[1].parent == 0
    probe = names.index("verify.real_line_probe")
    iteration = names.index("eigensolve.inverse_iteration")
    assert tracer.spans[iteration].parent == probe
    metrics = tracer.layer_metrics()
    assert metrics["eigensolve.inverse_iteration.calls"] == (1, "count")
    assert metrics["eigensolve.inverse_iteration.iterations"][0] >= 1
    assert metrics["eigensolve.symtridiag_eigenvalues.calls"] == (0, "count")
    assert metrics["operators.matvec.calls"][0] >= 1
    # self times partition the two root spans
    roots = metrics["verify.spectrum_rows.total_s"][0] + metrics["verify.real_line_probe.total_s"][0]
    selfs = sum(value for name, (value, _) in metrics.items() if name.endswith(".self_s"))
    assert math.isclose(roots, selfs, rel_tol=1e-9)
