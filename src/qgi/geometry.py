"""Plane partitioning, scene rasterization, and the classical oracle.

The plane is an rows x cols grid of cells numbered row-major from 1 at
the top-left.  A party's private graph is whatever set of cell serials
its shapes cover.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .registers import QUBIT_BUDGET


@dataclass(frozen=True)
class GridConfig:
    rows: int
    cols: int

    def __post_init__(self):
        for name, value in vars(self).items():
            _integer(value, f"grid.{name}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid needs rows, cols >= 1, got {self.rows}x{self.cols}")

    @property
    def total_cells(self) -> int:
        return self.rows * self.cols

    @property
    def value_bits(self) -> int:
        """Data-register width for serials on this grid; one bit minimum.

        Serial 0 stays reserved, so on a power-of-two grid the single
        highest serial does not fit and scenes covering it are rejected
        at table-building time.
        """
        return max(1, math.ceil(math.log2(self.total_cells)))


@dataclass(frozen=True)
class Rect:
    """Axis-aligned cell-aligned rectangle, inclusive corners, 0-based."""

    r0: int
    c0: int
    r1: int
    c1: int

    def __post_init__(self):
        for name, value in vars(self).items():
            _integer(value, f"rect.{name}")
        if self.r0 > self.r1 or self.c0 > self.c1:
            raise ValueError(f"rectangle corners out of order: {self}")
        if self.r0 < 0 or self.c0 < 0:
            raise ValueError(f"rectangle extends outside the grid: {self}")


@dataclass(frozen=True)
class Scene:
    """A grid plus the shapes (rectangles and/or explicit cells) on it."""

    grid: GridConfig
    rects: tuple[Rect, ...] = ()
    cells: tuple[int, ...] = ()

    def __post_init__(self):
        for rect in self.rects:
            if rect.r1 >= self.grid.rows or rect.c1 >= self.grid.cols:
                raise ValueError(
                    f"rectangle {rect} extends outside the "
                    f"{self.grid.rows}x{self.grid.cols} grid")
        for k, cell in enumerate(self.cells):
            if not 1 <= _integer(cell, f"cells[{k}]") <= self.grid.total_cells:
                raise ValueError(
                    f"cell serial {cell} outside [1, {self.grid.total_cells}]")


@dataclass(frozen=True)
class GridSet:
    """Sorted unique cell serials; may be empty only as an intersection result."""

    serials: tuple[int, ...] = field(default=())

    def __post_init__(self):
        serials = self.serials
        if list(serials) != sorted(set(serials)):
            raise ValueError("serials must be sorted and unique")
        if serials and serials[0] < 1:
            raise ValueError(f"serials start at 1, got {serials[0]}")

    def __len__(self) -> int:
        return len(self.serials)


def grid_serial(row: int, col: int, grid: GridConfig) -> int:
    """Row-major serial of a cell, starting at 1 in the top-left corner."""
    if not (0 <= row < grid.rows and 0 <= col < grid.cols):
        raise ValueError(
            f"cell ({row}, {col}) outside the {grid.rows}x{grid.cols} grid")
    return row * grid.cols + col + 1


def serial_cell(serial: int, grid: GridConfig) -> tuple[int, int]:
    """Inverse of grid_serial."""
    if not 1 <= serial <= grid.total_cells:
        raise ValueError(f"serial {serial} outside [1, {grid.total_cells}]")
    return (serial - 1) // grid.cols, (serial - 1) % grid.cols


def rasterize(scene: Scene) -> GridSet:
    """Sorted serials of all shape cells; refuses empty and over-budget scenes."""
    listed = len(scene.cells) + sum((r.r1 - r.r0 + 1) * (r.c1 - r.c0 + 1) for r in scene.rects)
    if listed > 1 << QUBIT_BUDGET:
        raise ValueError(f"scene shapes list {listed} cells, exceeding the cap "
                         f"of {1 << QUBIT_BUDGET}")
    dtype = np.int64 if scene.grid.total_cells < 1 << 63 else object  # no wrapping
    covered = set(scene.cells)
    for rect in scene.rects:
        rows = np.arange(rect.r0, rect.r1 + 1, dtype=dtype)[:, None] * scene.grid.cols
        cols = np.arange(rect.c0 + 1, rect.c1 + 2, dtype=dtype)
        covered.update((rows + cols).ravel().tolist())
    if not covered:
        raise ValueError("scene covers no cells; the protocol needs a nonempty set")
    return GridSet(tuple(sorted(covered)))


def classical_intersect(a: GridSet, b: GridSet) -> tuple[bool, GridSet]:
    """Exact set intersection of the two serial sets."""
    common = tuple(sorted(set(a.serials) & set(b.serials)))
    return bool(common), GridSet(common)


class SceneFormatError(ValueError):
    """Scene file or document does not match the expected structure."""


def _require(condition: bool, message: str):
    if not condition:
        raise SceneFormatError(message)


def _integer(value, path: str) -> int:
    """A JSON integer, or a scene value; booleans, floats and strings are
    rejected, not coerced."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise SceneFormatError(
            f"{path} must be an integer, got {json.dumps(value, default=repr)}")
    return value


def _integers(values, path: str) -> list[int]:
    return [_integer(v, f"{path}[{k}]") for k, v in enumerate(values)]


def _known_fields(doc: dict, allowed: tuple[str, ...], path: str):
    """Refuse a field the scene format does not define, such as a misspelt one."""
    for key in doc:
        if key not in allowed:
            raise SceneFormatError(f"{path} has unknown field {json.dumps(key)}; "
                                   f"expected {', '.join(allowed)}")


def scene_from_dict(doc: dict) -> Scene:
    """Build a scene from its JSON document form.

    Expected shape::

        {"grid": {"rows": 4, "cols": 4},
         "shapes": [{"rect": [0, 0, 1, 1]}, {"cells": [7, 12]}],
         "cells": [3]}

    ``grid`` is mandatory; at least one of ``shapes`` / ``cells`` must
    produce a cell.  Every number must be a JSON integer.  A field the
    format does not define, and a shape with both ``rect`` and ``cells``,
    are refused.
    """
    _require(isinstance(doc, dict), "scene document must be a JSON object")
    _known_fields(doc, ("grid", "shapes", "cells"), "scene")
    _require("grid" in doc, 'scene is missing the "grid" field')
    grid_doc = doc["grid"]
    _require(isinstance(grid_doc, dict) and {"rows", "cols"} <= set(grid_doc),
             '"grid" must be an object with "rows" and "cols"')
    _known_fields(grid_doc, ("rows", "cols"), "grid")
    rows = _integer(grid_doc["rows"], "grid.rows")
    cols = _integer(grid_doc["cols"], "grid.cols")
    try:
        grid = GridConfig(rows, cols)
    except ValueError as exc:
        raise SceneFormatError(f'bad "grid": {exc}') from None

    shapes = doc.get("shapes", [])
    _require(isinstance(shapes, list), '"shapes" must be a list of shape objects')
    rects: list[Rect] = []
    cells: list[int] = []
    for k, shape in enumerate(shapes):
        _require(isinstance(shape, dict), f"shapes[{k}] must be an object")
        _known_fields(shape, ("rect", "cells"), f"shapes[{k}]")
        _require(not ("rect" in shape and "cells" in shape),
                 f'shapes[{k}] has both "rect" and "cells"; give one per shape')
        if "rect" in shape:
            corners = shape["rect"]
            _require(isinstance(corners, list) and len(corners) == 4,
                     f'shapes[{k}].rect must be [r0, c0, r1, c1]')
            corners = _integers(corners, f"shapes[{k}].rect")
            try:
                rects.append(Rect(*corners))
            except ValueError as exc:
                raise SceneFormatError(f"shapes[{k}].rect: {exc}") from None
        elif "cells" in shape:
            _require(isinstance(shape["cells"], list),
                     f"shapes[{k}].cells must be a list of serials")
            cells.extend(_integers(shape["cells"], f"shapes[{k}].cells"))
        else:
            raise SceneFormatError(
                f'shapes[{k}] needs a "rect" or a "cells" field')
    if "cells" in doc:
        _require(isinstance(doc["cells"], list), '"cells" must be a list of serials')
        cells.extend(_integers(doc["cells"], "cells"))
    try:
        return Scene(grid, tuple(rects), tuple(sorted(set(cells))))
    except ValueError as exc:
        raise SceneFormatError(str(exc)) from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's fields, refusing a key given twice."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise SceneFormatError(f"duplicate key {json.dumps(key)}")
        doc[key] = value
    return doc


def load_scene(path: str) -> Scene:
    """Parse a scene file, reporting the offending line or field on failure."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise SceneFormatError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}") from None
        except RecursionError:
            raise SceneFormatError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:  # a duplicate key, or an over-long integer
            raise SceneFormatError(f"{path}: {exc}") from None
    try:
        return scene_from_dict(doc)
    except SceneFormatError as exc:
        raise SceneFormatError(f"{path}: {exc}") from None
