import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgi import (DataTable, GridConfig, GridSet, PreparationSpec, Rect, Scene,
                 SceneFormatError, classical_intersect, exact_count,
                 grid_serial, load_scene, prepare_joint, rasterize,
                 scene_from_dict, serial_cell)
from support import MALFORMED_SCENES


class TestGridSerial:
    def test_top_left_is_one(self, grid4):
        assert grid_serial(0, 0, grid4) == 1

    def test_row_major_interior_cell(self, grid4):
        assert grid_serial(1, 1, grid4) == 6

    def test_last_cell(self, grid4):
        assert grid_serial(3, 3, grid4) == 16

    def test_out_of_grid_rejected(self, grid4):
        with pytest.raises(ValueError, match="outside"):
            grid_serial(4, 0, grid4)
        with pytest.raises(ValueError, match="outside"):
            grid_serial(0, -1, grid4)

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 9), cols=st.integers(1, 9))
    def test_serials_biject_with_cells(self, rows, cols):
        grid = GridConfig(rows, cols)
        serials = {grid_serial(r, c, grid)
                   for r in range(rows) for c in range(cols)}
        assert serials == set(range(1, rows * cols + 1))
        for serial in serials:
            r, c = serial_cell(serial, grid)
            assert grid_serial(r, c, grid) == serial


class TestRasterize:
    def test_top_left_square(self, grid4):
        scene = Scene(grid4, rects=(Rect(0, 0, 1, 1),))
        assert rasterize(scene).serials == (1, 2, 5, 6)

    def test_center_square(self, grid4):
        scene = Scene(grid4, rects=(Rect(1, 1, 2, 2),))
        assert rasterize(scene).serials == (6, 7, 10, 11)

    def test_overlapping_shapes_deduplicate(self, grid4):
        scene = Scene(grid4, rects=(Rect(0, 0, 1, 1), Rect(1, 1, 2, 2)),
                      cells=(6,))
        assert rasterize(scene).serials == (1, 2, 5, 6, 7, 10, 11)

    def test_full_grid(self, grid4):
        scene = Scene(grid4, rects=(Rect(0, 0, 3, 3),))
        assert rasterize(scene).serials == tuple(range(1, 17))

    def test_empty_scene_rejected(self, grid4):
        with pytest.raises(ValueError, match="nonempty"):
            rasterize(Scene(grid4))

    def test_scene_validates_bounds(self, grid4):
        with pytest.raises(ValueError, match="outside"):
            Scene(grid4, rects=(Rect(0, 0, 4, 1),))
        with pytest.raises(ValueError, match="outside"):
            Scene(grid4, cells=(17,))

    # Each would coerce silently if built: Rect(0, 0, 1.5, 1) rasterizes a
    # third row, GridConfig(2.5, 4) has 10.0 cells, GridConfig(4, 4.0) fails
    # only in a run on its table, and a cell True rasterizes to (True,).  A
    # grid or rectangle given as a plain tuple raised AttributeError.  Rects
    # and cells must be tuples: a list would leave the scene unhashable.
    @pytest.mark.parametrize("build, reason", [
        (lambda: Rect(0, 0, 1.5, 1), "rect.r1 must be an integer"),
        (lambda: GridConfig(2.5, 4), "grid.rows must be an integer"),
        (lambda: GridConfig(4, 4.0), "grid.cols must be an integer"),
        (lambda: Scene(GridConfig(4, 4), cells=(True,)), "cells[0] must be an integer"),
        (lambda: Scene(GridConfig(4, 4), rects=((0, 0, 1, 1),)),
         "rects[0] must be a Rect, got (0, 0, 1, 1)"),
        (lambda: Scene((4, 4), cells=(3,)), "grid must be a GridConfig, got (4, 4)"),
        (lambda: Scene((4, 4), rects=(Rect(0, 0, 1, 1),)),
         "grid must be a GridConfig, got (4, 4)"),
        (lambda: Scene(GridConfig(4, 4), rects=Rect(0, 0, 1, 1)),
         "rects must be a tuple, got Rect(r0=0, c0=0, r1=1, c1=1)"),
        (lambda: Scene(GridConfig(4, 4), cells=3), "cells must be a tuple, got 3"),
        (lambda: Scene(GridConfig(4, 4), cells=[3]), "cells must be a tuple, got [3]"),
    ], ids=["rect-float", "grid-float-rows", "grid-float-cols", "cell-bool",
            "rect-tuple", "grid-tuple-cells", "grid-tuple-rects", "rects-one-rect",
            "cells-int", "cells-list"])
    def test_scene_values_must_be_ints(self, build, reason):
        with pytest.raises(ValueError, match=rf"^{re.escape(reason)}"):
            build()


class TestClassicalIntersect:
    def test_single_shared_cell(self):
        hit, common = classical_intersect(GridSet((1, 2, 5, 6)),
                                          GridSet((6, 7, 10, 11)))
        assert hit is True
        assert common.serials == (6,)

    def test_disjoint(self):
        hit, common = classical_intersect(GridSet((1, 2)), GridSet((3, 4)))
        assert hit is False
        assert common.serials == ()

    def test_self_intersection(self):
        own = GridSet((2, 9, 14))
        hit, common = classical_intersect(own, own)
        assert hit is True
        assert common.serials == own.serials

    @settings(max_examples=50, deadline=None)
    @given(a=st.frozensets(st.integers(1, 30), min_size=1),
           b=st.frozensets(st.integers(1, 30), min_size=1))
    def test_symmetric_and_idempotent(self, a, b):
        set_a = GridSet(tuple(sorted(a)))
        set_b = GridSet(tuple(sorted(b)))
        hit_ab, common_ab = classical_intersect(set_a, set_b)
        hit_ba, common_ba = classical_intersect(set_b, set_a)
        assert hit_ab == hit_ba == bool(a & b)
        assert common_ab.serials == common_ba.serials == tuple(sorted(a & b))
        again_hit, again = classical_intersect(common_ab, common_ab)
        assert again.serials == common_ab.serials
        assert again_hit == bool(common_ab.serials)

    def test_common_size_matches_quantum_count(self, rng):
        for _ in range(15):
            size_a, size_b = rng.integers(1, 5, size=2)
            serials_a = sorted(rng.choice(np.arange(1, 16), size_a, replace=False))
            serials_b = sorted(rng.choice(np.arange(1, 16), size_b, replace=False))
            spec = PreparationSpec(DataTable.from_serials(serials_a, 4),
                                   DataTable.from_serials(serials_b, 4))
            _, common = classical_intersect(GridSet(tuple(int(s) for s in serials_a)),
                                            GridSet(tuple(int(s) for s in serials_b)))
            assert exact_count(prepare_joint(spec)) == len(common)


def test_gridset_validates_order_and_uniqueness():
    with pytest.raises(ValueError, match="sorted"):
        GridSet((3, 1))
    with pytest.raises(ValueError, match="sorted"):
        GridSet((2, 2))
    with pytest.raises(ValueError, match="start at 1"):
        GridSet((0, 4))


class TestSceneParsing:
    def test_rect_document(self):
        scene = scene_from_dict({"grid": {"rows": 4, "cols": 4},
                                 "shapes": [{"rect": [0, 0, 1, 1]}]})
        assert rasterize(scene).serials == (1, 2, 5, 6)

    def test_cells_document(self):
        scene = scene_from_dict({"grid": {"rows": 4, "cols": 4},
                                 "cells": [6, 1, 6]})
        assert rasterize(scene).serials == (1, 6)

    def test_shapes_may_mix_rects_and_cells(self):
        scene = scene_from_dict({"grid": {"rows": 4, "cols": 4},
                                 "shapes": [{"rect": [0, 0, 0, 0]},
                                            {"cells": [16]}]})
        assert rasterize(scene).serials == (1, 16)

    def test_missing_grid_is_reported(self):
        with pytest.raises(SceneFormatError, match='"grid"'):
            scene_from_dict({"cells": [1, 2]})

    def test_bad_shape_entry_names_its_index(self):
        with pytest.raises(SceneFormatError, match=r"shapes\[1\]"):
            scene_from_dict({"grid": {"rows": 4, "cols": 4},
                             "shapes": [{"rect": [0, 0, 0, 0]}, {"oops": 1}]})

    def test_bad_rect_arity(self):
        with pytest.raises(SceneFormatError, match=r"shapes\[0\].rect"):
            scene_from_dict({"grid": {"rows": 4, "cols": 4},
                             "shapes": [{"rect": [0, 0, 1]}]})

    @pytest.mark.parametrize("doc, path", [
        ({"grid": {"rows": 4, "cols": 4}, "cells": [None]}, r"cells\[0\]"),
        ({"grid": {"rows": 4, "cols": 4}, "cells": [1, True]}, r"cells\[1\]"),
        ({"grid": {"rows": 4, "cols": 4}, "cells": [2.7]}, r"cells\[0\]"),
        ({"grid": {"rows": 4, "cols": 4}, "cells": ["3"]}, r"cells\[0\]"),
        ({"grid": {"rows": "4", "cols": 4}, "cells": [1]}, r"grid\.rows"),
        ({"grid": {"rows": 4, "cols": 4.0}, "cells": [1]}, r"grid\.cols"),
        ({"grid": {"rows": 4, "cols": 4},
          "shapes": [{"rect": [0, 0, 0, 0]}, {"rect": [0, 0, None, 1]}]},
         r"shapes\[1\]\.rect\[2\]"),
        ({"grid": {"rows": 4, "cols": 4}, "shapes": [{"cells": [1, False]}]},
         r"shapes\[0\]\.cells\[1\]"),
    ])
    def test_non_integer_values_name_their_field(self, doc, path):
        with pytest.raises(SceneFormatError, match=path + " must be an integer"):
            scene_from_dict(doc)

    def test_a_valid_document_formats_no_error_text(self, tmp_path,
                                                    monkeypatch):
        # Error messages are built only on failure.
        dumped = []
        original = json.dumps

        def counted(*args, **kwargs):
            dumped.append(args)
            return original(*args, **kwargs)
        doc = {"grid": {"rows": 8, "cols": 8},
               "shapes": [{"rect": [0, 0, 1, 1]}, {"cells": [7, 12]}],
               "cells": [3, 30]}
        path = tmp_path / "scene.json"
        path.write_text(original(doc))
        monkeypatch.setattr(json, "dumps", counted)
        for scene in (scene_from_dict(doc), load_scene(str(path))):
            assert rasterize(scene).serials == (1, 2, 3, 7, 9, 10, 12, 30)
        assert dumped == []

    @pytest.mark.parametrize("doc, message", MALFORMED_SCENES + [
        ({"grid": {"rows": 4, "cols": 4}, "cells": [None]},
         "cells[0] must be an integer, got null"),
        ({"grid": {"rows": 4, "cols": 4}, "cells": [1, True]},
         "cells[1] must be an integer, got true"),
        ({"grid": {"rows": "4", "cols": 4}, "cells": [1]},
         'grid.rows must be an integer, got "4"'),
        ({"grid": {"rows": 4, "cols": 4}, "shapes": [{"cells": [2.5]}]},
         "shapes[0].cells[0] must be an integer, got 2.5"),
        ({"grid": {"rows": 4, "cols": 4}, "cells": [{1}]},
         'cells[0] must be an integer, got "{1}"'),
        ({"grid": {"rows": 4, "cols": 4}, "shapes": [{"rect": [2, 0, 1, 1]}]},
         "shapes[0].rect: rectangle corners out of order: Rect(r0=2, c0=0, r1=1, c1=1)"),
        ({"grid": {"rows": 4, "cols": 4}, "shapes": [{"rect": [0, -1, 1, 1]}]},
         "shapes[0].rect: rectangle extends outside the grid: "
         "Rect(r0=0, c0=-1, r1=1, c1=1)"),
        ({"grid": {"rows": 4, "cols": 4}, "shapes": [{}]},
         'shapes[0] needs a "rect" or a "cells" field'),
        ({"grid": {"rows": 4, "cols": 4}, "cells": [0]},
         "cell serial 0 outside [1, 16]"),
        ({"grid": {"rows": 0, "cols": 4}, "cells": [1]},
         'bad "grid": grid needs rows, cols >= 1, got 0x4'),
    ])
    def test_refusals_give_their_whole_message(self, doc, message):
        with pytest.raises(SceneFormatError) as exc:
            scene_from_dict(doc)
        assert str(exc.value) == message

    def test_shapes_must_be_a_list(self):
        with pytest.raises(SceneFormatError, match='"shapes" must be a list'):
            scene_from_dict({"grid": {"rows": 4, "cols": 4}, "shapes": 5})

    def test_load_scene_reports_json_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"grid": {"rows": 4,\n "cols": }}\n')
        with pytest.raises(SceneFormatError, match="line 2"):
            load_scene(str(path))

    def test_load_scene_round_trip(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"grid": {"rows": 2, "cols": 3},
                                    "shapes": [{"rect": [0, 0, 1, 0]}]}))
        assert rasterize(load_scene(str(path))).serials == (1, 4)


def test_value_bits_reserves_zero(grid4):
    assert grid4.value_bits == 4
    assert GridConfig(1, 1).value_bits == 1
    assert GridConfig(3, 4).value_bits == 4
    assert GridConfig(8, 8).value_bits == 6
