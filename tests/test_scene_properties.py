"""Random scene documents: the parser, rasterization and protocol verdicts.

A document either parses or raises ``SceneFormatError``; a parsed scene
on a 4x4 or 8x8 grid either is refused by the protocol (no cells, or a
serial that does not fit the data register) or gets the classical verdict.
Rectangle pairs on grids up to 64x64 get the classical count or are
refused on the qubit budget.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgi import (CountingConfig, GridConfig, Rect, Scene, SceneFormatError,
                 classical_intersect, grid_serial, rasterize, run_protocol,
                 scene_from_dict)
from support import MALFORMED_SCENES

# Mostly small integers, plus the JSON values the parser must refuse.
values = st.one_of(st.integers(-1, 9), st.integers(-1, 9), st.booleans(),
                   st.floats(-1, 9), st.text(max_size=2), st.none())
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text()),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=10)


def shapes(number):
    return st.one_of(
        st.fixed_dictionaries({"rect": st.lists(number, min_size=4, max_size=4)}),
        st.fixed_dictionaries({"rect": st.lists(number, max_size=5)}),
        st.fixed_dictionaries({"cells": st.lists(number, max_size=4)}),
        st.just({}), number)


@st.composite
def documents(draw):
    """Documents of the right overall shape with any values in them."""
    doc = {}
    if draw(st.booleans()):
        doc["grid"] = draw(st.one_of(
            st.fixed_dictionaries({"rows": values, "cols": values}), values))
    if draw(st.booleans()):
        doc["shapes"] = draw(st.one_of(st.lists(shapes(values), max_size=3), values))
    if draw(st.booleans()):
        doc["cells"] = draw(st.one_of(st.lists(values, max_size=4), values))
    return doc


@st.composite
def scene_documents(draw, rows, cols):
    """Well-formed documents on a rows x cols grid, possibly covering no cell."""
    cell = st.integers(1, rows * cols)
    row, col = st.integers(0, rows - 1), st.integers(0, cols - 1)
    rect = st.tuples(row, col, row, col).map(
        lambda c: [min(c[0], c[2]), min(c[1], c[3]), max(c[0], c[2]), max(c[1], c[3])])
    shape = st.one_of(st.fixed_dictionaries({"rect": rect}),
                      st.fixed_dictionaries({"cells": st.lists(cell, max_size=4)}))
    doc = {"grid": {"rows": rows, "cols": cols},
           "shapes": draw(st.lists(shape, max_size=2))}
    if draw(st.booleans()):
        doc["cells"] = draw(st.lists(cell, max_size=4))
    return doc


def with_examples(docs):
    def decorate(test):
        for doc in docs:
            test = example(doc=doc)(test)
        return test
    return decorate


@with_examples([doc for doc, _ in MALFORMED_SCENES])
@settings(max_examples=200, deadline=None)
@given(doc=st.one_of(documents(), json_values))
def test_a_document_parses_or_raises_a_format_error(doc):
    try:
        scene = scene_from_dict(doc)
    except SceneFormatError:
        return
    assert isinstance(scene, Scene)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), rows=st.integers(1, 9), cols=st.integers(1, 9))
def test_rasterize_is_the_union_of_shape_cells(data, rows, cols):
    scene = scene_from_dict(data.draw(scene_documents(rows, cols)))
    covered = set(scene.cells) | {
        grid_serial(row, col, scene.grid)
        for rect in scene.rects
        for row in range(rect.r0, rect.r1 + 1)
        for col in range(rect.c0, rect.c1 + 1)}
    if not covered:
        with pytest.raises(ValueError, match="covers no cells"):
            rasterize(scene)
    else:
        assert rasterize(scene).serials == tuple(sorted(covered))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), side=st.sampled_from([4, 8]))
def test_parsed_scenes_get_the_classical_verdict(data, side):
    scene_a = scene_from_dict(data.draw(scene_documents(side, side)))
    scene_b = scene_from_dict(data.draw(scene_documents(side, side)))
    sets = []
    for scene in (scene_a, scene_b):
        try:
            sets.append(rasterize(scene))
        except ValueError:
            return
    if max(s.serials[-1] for s in sets) == side * side:
        # Serial 0 is reserved, so the last cell of a 2^k grid does not fit.
        with pytest.raises(ValueError, match="does not fit"):
            run_protocol(scene_a, scene_b)
        return
    hit, common = classical_intersect(*sets)
    transcript = run_protocol(scene_a, scene_b)
    assert transcript.verdict.value == ("INTERSECT" if hit else "DISJOINT")
    assert transcript.estimate.t_rounded == len(common)


# A rectangle of at most SMALL_AREA cells per party keeps K <= 324^2 and
# the counting register at <= 20 qubits; at least LARGE_AREA cells per
# party puts K above 2^21, so the default register of ceil(log2 K) + 3
# qubits exceeds the 24-qubit budget of a sample-mode run, which builds
# all 2^bits outcome probabilities.  An exact run counts such pairs (the
# 128x128 and 512x512 rungs are pinned in test_cli.py); its state
# pipeline alone would spend up to seconds and a gigabyte per example.
SMALL_AREA = 18 * 18
LARGE_AREA = math.isqrt(1 << 21) + 1


@st.composite
def rects(draw, side, min_area, max_area):
    height = draw(st.integers(max(1, -(-min_area // side)), min(side, max_area)))
    width = draw(st.integers(max(1, -(-min_area // height)),
                             min(side, max_area // height)))
    r0 = draw(st.integers(0, side - height))
    c0 = draw(st.integers(0, side - width))
    return Rect(r0, c0, r0 + height - 1, c0 + width - 1)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), large=st.booleans())
def test_rectangle_pairs_get_the_classical_count_or_a_budget_refusal(data, large):
    if large:
        side = data.draw(st.integers(math.isqrt(LARGE_AREA - 1) + 1, 64))
        area = (LARGE_AREA, side * side)
    else:
        side = data.draw(st.integers(1, 64))
        area = (1, SMALL_AREA)
    grid = GridConfig(side, side)
    scenes = [Scene(grid, rects=(data.draw(rects(side, *area)),)) for _ in "ab"]
    sets = [rasterize(scene) for scene in scenes]
    if max(s.serials[-1] for s in sets) >= 1 << grid.value_bits:
        # Serial 0 is reserved, so the last cell of a 2^k grid does not fit.
        with pytest.raises(ValueError, match="does not fit"):
            run_protocol(*scenes)
    elif large:
        with pytest.raises(ValueError, match="outcome distribution of 2[5-7] "
                                             "qubits exceeds the cap of 24"):
            run_protocol(*scenes, CountingConfig(mode="sample"), seed=0)
    else:
        _, common = classical_intersect(*sets)
        assert run_protocol(*scenes).estimate.t_rounded == len(common)
