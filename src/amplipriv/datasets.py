"""Complete and incomplete datasets, masks, and the substitute-one neighbor relation.

A mask is bool, True where a feature is missing; ``MaskMatrix`` holds a dataset's as one array.

Missing cells are tagged values (``None``), never a sentinel float: NaN poisoning
would silently break the convention that a missing cell contributes 0 to sums.
All indices are 0-based.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import DimensionError

Cell = Optional[float]  # None encodes NA


@dataclass(frozen=True)
class CompleteDataset:
    """An n x d real matrix, optionally with a declared entry-magnitude bound."""

    rows: tuple
    bound_B: Optional[float] = None

    def __post_init__(self):
        rows = tuple(tuple(float(v) for v in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) < 1:
            raise DimensionError("dataset needs at least one row")
        d = len(rows[0])
        if d < 1:
            raise DimensionError("dataset needs at least one feature")
        if any(len(r) != d for r in rows):
            raise DimensionError("all rows must share the same length")
        if any(not math.isfinite(v) for r in rows for v in r):
            raise ValueError("dataset entries must be finite reals; NA is a tag, not a float")
        if self.bound_B is not None:
            if not 0 <= self.bound_B < math.inf:  # a NaN bound is refused too
                raise ValueError(f"bound_B: must be finite and nonnegative, got {self.bound_B!r}")
            worst = max(abs(v) for r in rows for v in r)
            if worst > self.bound_B:
                raise ValueError(
                    f"entry magnitude {worst} exceeds declared bound {self.bound_B}"
                )

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def d(self) -> int:
        return len(self.rows[0])

    def to_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=float)

    def as_incomplete(self) -> "IncompleteDataset":
        """View with no missing entries."""
        return IncompleteDataset(self.rows)

    def substitute(self, index: int, new_row: Sequence[float]) -> "CompleteDataset":
        """Return a copy with one row replaced (the canonical neighbor move)."""
        if not 0 <= index < self.n:
            raise IndexError(f"row index {index} out of range for n={self.n}")
        new_row = tuple(float(v) for v in new_row)
        if len(new_row) != self.d:
            raise DimensionError("replacement row has wrong length")
        rows = list(self.rows)
        rows[index] = new_row
        return CompleteDataset(tuple(rows), bound_B=self.bound_B)


def mask_bits(bits) -> tuple:
    """One mask's bits as a tuple of 0/1 ints, 1 marking a missing feature."""
    raw = tuple(bits)
    # checked before int(), which would truncate 1.5 or -0.5 to a valid bit
    if any(b not in (0, 1) for b in raw):
        raise ValueError(f"mask bits must be 0 or 1, got {raw!r}")
    if len(raw) < 1:
        raise DimensionError("mask needs at least one bit")
    return tuple(int(b) for b in raw)


@dataclass(frozen=True, eq=False)  # an ndarray field: compared and hashed by identity
class MaskMatrix:
    """The dataset-level mask: ``bits``, an (n, d) bool array, True where a
    cell is missing. Built from such an array or from n rows of 0/1 bits."""

    bits: np.ndarray

    def __post_init__(self):
        bits = self.bits
        if not (isinstance(bits, np.ndarray) and bits.dtype == bool and bits.ndim == 2):
            rows = [mask_bits(r) for r in bits]
            if any(len(r) != len(rows[0]) for r in rows):
                raise DimensionError("all mask rows must share the same length")
            bits = np.array(rows, dtype=bool).reshape(len(rows), -1 if rows else 0)
        if not bits.size:  # no row, or rows of no bit
            raise DimensionError("mask needs at least one bit" if len(bits)
                                 else "mask matrix needs at least one row")
        object.__setattr__(self, "bits", bits.copy())
        self.bits.setflags(write=False)

    @property
    def n(self) -> int:
        return self.bits.shape[0]

    @property
    def d(self) -> int:
        return self.bits.shape[1]

    def bits_tuple(self) -> tuple:
        return tuple(map(tuple, self.bits.astype(int).tolist()))


class IncompleteDataset:
    """An n x d grid of tagged cells, each a real value or NA (``None``).

    Built by masking a complete dataset; immutable after construction. The
    arrays behind ``values_filled`` / ``na_mask`` are materialized once so
    queries can evaluate without re-walking the cell grid.
    """

    __slots__ = ("cells", "_values", "_na")

    def __init__(self, cells: Iterable[Iterable[Cell]]):
        grid = tuple(
            tuple(None if c is None else float(c) for c in row) for row in cells
        )
        if len(grid) < 1:
            raise DimensionError("dataset needs at least one row")
        d = len(grid[0])
        if d < 1 or any(len(r) != d for r in grid):
            raise DimensionError("cell grid must be rectangular with d >= 1")
        if any(c is not None and not math.isfinite(c) for r in grid for c in r):
            raise ValueError("real cells must be finite; NA is a tag, not a float")
        object.__setattr__(self, "cells", grid)
        values = np.array(
            [[0.0 if c is None else c for c in row] for row in grid], dtype=float
        )
        na = np.array([[c is None for c in row] for row in grid], dtype=bool)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_na", na)
        values.setflags(write=False)
        na.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("IncompleteDataset is immutable")

    @property
    def n(self) -> int:
        return len(self.cells)

    @property
    def d(self) -> int:
        return len(self.cells[0])

    @property
    def values_filled(self) -> np.ndarray:
        """Cell values with NA replaced by 0.0 (the contribute-nothing convention)."""
        return self._values

    @property
    def na_mask(self) -> np.ndarray:
        """Boolean n x d array, True where the cell is NA."""
        return self._na

    def __repr__(self):
        return f"IncompleteDataset(n={self.n}, d={self.d})"


@dataclass(frozen=True)
class NeighborPair:
    """Two datasets at substitute-one distance <= 1."""

    left: object
    right: object


def apply_mask(
    dataset: Union[CompleteDataset, IncompleteDataset], mask: MaskMatrix
) -> IncompleteDataset:
    """Mask a dataset: cell (i, j) becomes NA iff mask bit (i, j) is 1.

    Accepts an already-incomplete dataset so masking is idempotent in the mask
    support; on a complete dataset the result cell is NA exactly when the bit
    is 1 and the original value otherwise.
    """
    grid = dataset.rows if isinstance(dataset, CompleteDataset) else dataset.cells
    if len(grid) != mask.n or len(grid[0]) != mask.d:
        raise DimensionError(
            f"dataset is {len(grid)}x{len(grid[0])} but mask is {mask.n}x{mask.d}"
        )
    return IncompleteDataset(tuple(None if bit else cell for cell, bit in zip(row, mrow))
                             for row, mrow in zip(grid, mask.bits.tolist()))


# --- CSV interchange -------------------------------------------------------
#
# Header f1,...,fd; the literal token NA marks missing cells. Values render
# with shortest round-trip decimals (repr), so load(save(x)) is bit-exact.

NA_TOKEN = "NA"


def _render(v: float) -> str:
    return repr(v)


def save_dataset_csv(
    dataset: Union[CompleteDataset, IncompleteDataset], path
) -> None:
    grid = dataset.rows if isinstance(dataset, CompleteDataset) else dataset.cells
    d = len(grid[0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j + 1}" for j in range(d)])
        for row in grid:
            writer.writerow([NA_TOKEN if c is None else _render(c) for c in row])


def load_dataset_csv(path) -> Union[CompleteDataset, IncompleteDataset]:
    """Parse a dataset CSV; returns CompleteDataset when no cell is NA."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or any(
            h.strip() != f"f{j + 1}" for j, h in enumerate(header)
        ):
            raise ValueError(f"{path}: expected header f1,...,fd, got {header}")
        d = len(header)
        rows = []
        has_na = False
        for lineno, raw in enumerate(reader, start=2):
            if len(raw) != d:
                raise DimensionError(f"{path}:{lineno}: expected {d} cells")
            row = []
            for tok in raw:
                tok = tok.strip()
                if tok == NA_TOKEN:
                    row.append(None)
                    has_na = True
                else:
                    row.append(float(tok))
            rows.append(tuple(row))
    if has_na:
        return IncompleteDataset(tuple(rows))
    return CompleteDataset(tuple(rows))
