import dataclasses
from pathlib import Path

import numpy as np

from gdo import assemble_schrodinger, effective_potentials, load_config, real_line_probe, spectrum_rows

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_real_line_probe_matches_dense_eigenvalues():
    config = load_config(CONFIGS / "cot.json")
    grid = dataclasses.replace(config.grid, n_points=400)
    tol = config.tolerances.residual
    seeds = [row["epsilon"] for row in spectrum_rows(config)]
    probes = real_line_probe(config.interaction, grid, config.constants, seeds, tol=tol)
    assert [p["seed"] for p in probes] == seeds
    sample = effective_potentials(config.interaction, grid, config.constants)
    dense = np.linalg.eigvals(assemble_schrodinger(sample.v_minus, grid, config.constants).to_dense())
    converged = [p for p in probes if p.get("converged")]
    assert len(converged) == len(seeds)
    for probe in converged:
        assert probe["residual"] <= tol
        value = complex(probe["eigenvalue_re"], probe["eigenvalue_im"])
        nearest = dense[np.argmin(np.abs(dense - value))]
        assert abs(value - nearest) <= 1e-8 * max(1.0, abs(nearest))
