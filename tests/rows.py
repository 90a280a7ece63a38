"""Configurations as (N, 9) parameter rows, columns in MODEL_FIELDS order:
the tests' oracle for the batch form ModelColumns, which src/ uses alone.
A ModelColumns evaluates bit for bit as its rows wrapped by `columns`."""

import numpy as np

from mzsloppy.model import MODEL_FIELDS, ModelColumns
from mzsloppy.optimize import GAMMA_GRID

ALPHA, LAM1 = MODEL_FIELDS.index("alpha"), MODEL_FIELDS.index("lam1")


def parameters(configs) -> np.ndarray:
    """The configs as an (N, 9) array, one row each."""
    rows = [[getattr(config, name) for name in MODEL_FIELDS] for config in configs]
    return np.array(rows, dtype=float).reshape(-1, len(MODEL_FIELDS))


def columns(rows: np.ndarray) -> ModelColumns:
    """(N, 9) rows as ModelColumns, one (N,) column per field."""
    return ModelColumns(dict(zip(MODEL_FIELDS, np.asarray(rows, dtype=float).T)))


def phased_rows(rows: np.ndarray) -> np.ndarray:
    """Each row at every phase of GAMMA_GRID (alpha = gamma, lam1 = 0), a
    row's phases consecutive."""
    phased = np.repeat(rows, len(GAMMA_GRID), axis=0)
    phased[:, ALPHA] = np.tile(GAMMA_GRID, len(rows))
    phased[:, LAM1] = 0.0
    return phased
