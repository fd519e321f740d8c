"""Test helpers shared by the test modules."""

import numpy as np

from fracheat.grids import ParabolicGrid, ScalarField


def sample_scalar(grid: ParabolicGrid, fn) -> ScalarField:
    """Evaluate fn(t, x..., y) on the grid lattice."""
    mesh = grid.meshgrid()
    return ScalarField(grid, np.asarray(fn(*mesh), dtype=float)
                       * np.ones(grid.shape))
