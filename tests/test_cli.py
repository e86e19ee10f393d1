import collections
import decimal
import enum
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgi
from qgi import cli, protocol
from qgi.cli import main
from qgi.counting import CountingConfig
from qgi.geometry import load_scene
from qgi.protocol import HONEST, AdversaryStrategy, Attack, detection_probability
from support import MALFORMED_SCENES


@pytest.fixture
def scene_files(tmp_path):
    alice = tmp_path / "alice.json"
    bob = tmp_path / "bob.json"
    alice.write_text(json.dumps(
        {"grid": {"rows": 4, "cols": 4}, "shapes": [{"rect": [0, 0, 1, 1]}]}))
    bob.write_text(json.dumps(
        {"grid": {"rows": 4, "cols": 4}, "shapes": [{"rect": [1, 1, 2, 2]}]}))
    return str(alice), str(bob)


def grid_files(tmp_path, side, shapes_a, shapes_b):
    paths = []
    for name, shapes in (("alice", shapes_a), ("bob", shapes_b)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"grid": {"rows": side, "cols": side}, **shapes}))
        paths.append(str(path))
    return paths


def cell_files(tmp_path, side, cells_a, cells_b):
    return grid_files(tmp_path, side, {"cells": list(cells_a)}, {"cells": list(cells_b)})


def rect_files(tmp_path, side, rect_a, rect_b):
    return grid_files(tmp_path, side, {"shapes": [{"rect": rect_a}]},
                      {"shapes": [{"rect": rect_b}]})


@pytest.fixture
def disjoint_files(tmp_path):
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    one.write_text(json.dumps({"grid": {"rows": 4, "cols": 4}, "cells": [1, 2]}))
    two.write_text(json.dumps({"grid": {"rows": 4, "cols": 4}, "cells": [3, 4]}))
    return str(one), str(two)


class TestRun:
    def test_intersecting_scenes(self, scene_files, capsys):
        code = main(["run", "--alice", scene_files[0], "--bob", scene_files[1]])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict=INTERSECT t=1" in out
        assert "success_prob=" in out
        assert "qubits: A->B 6, B->A 12, total 18" in out

    def test_disjoint_scenes(self, disjoint_files, capsys):
        code = main(["run", "--alice", disjoint_files[0],
                     "--bob", disjoint_files[1]])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict=DISJOINT t=0" in out

    def test_tamper_adversary_aborts(self, scene_files, capsys):
        code = main(["run", "--alice", scene_files[0], "--bob", scene_files[1],
                     "--adversary", "bob-tamper:1"])
        out = capsys.readouterr().out
        assert code == 2
        assert "ABORT: cheat check failed" in out

    def test_trace_files_are_byte_identical(self, scene_files, tmp_path, capsys):
        t1 = tmp_path / "t1.json"
        t2 = tmp_path / "t2.json"
        for path in (t1, t2):
            code = main(["run", "--alice", scene_files[0],
                         "--bob", scene_files[1], "--mode", "sample",
                         "--seed", "42", "--trace", str(path)])
            assert code == 0
        capsys.readouterr()
        assert t1.read_bytes() == t2.read_bytes()
        doc = json.loads(t1.read_text())
        assert doc["transcript"]["verdict"] == "INTERSECT"
        assert doc["config"]["seed"] == 42

    def test_verbose_trace_contains_distribution(self, scene_files, tmp_path,
                                                 capsys):
        trace = tmp_path / "trace.json"
        main(["run", "--alice", scene_files[0], "--bob", scene_files[1],
              "--trace", str(trace), "--verbose"])
        capsys.readouterr()
        doc = json.loads(trace.read_text())
        dist = doc["transcript"]["estimate"]["distribution"]
        assert len(dist) == 2 ** 7
        assert abs(sum(dist) - 1.0) < 1e-9

    @pytest.mark.parametrize("target", [".", "missing/trace.json"],
                             ids=["directory", "missing-directory"])
    def test_unwritable_trace_is_a_one_line_error(self, scene_files, tmp_path,
                                                  capsys, target):
        code = main(["run", "--alice", scene_files[0], "--bob", scene_files[1],
                     "--trace", str(tmp_path / target)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_sample_mode_requires_seed(self, scene_files, capsys):
        code = main(["run", "--alice", scene_files[0], "--bob", scene_files[1],
                     "--mode", "sample"])
        err = capsys.readouterr().err
        assert code == 1
        assert "seed" in err

    def test_missing_scene_file(self, scene_files, capsys):
        code = main(["run", "--alice", "/nonexistent.json",
                     "--bob", scene_files[1]])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_json_reports_position(self, scene_files, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"grid": {"rows": 4,\n "cols": }}')
        code = main(["run", "--alice", str(bad), "--bob", scene_files[1]])
        err = capsys.readouterr().err
        assert code == 1
        assert "line 2" in err

    def test_missing_grid_reports_field(self, scene_files, tmp_path, capsys):
        bad = tmp_path / "nogrid.json"
        bad.write_text('{"cells": [1, 2]}')
        code = main(["run", "--alice", str(bad), "--bob", scene_files[1]])
        err = capsys.readouterr().err
        assert code == 1
        assert "grid" in err

    def test_non_integer_cell_is_a_one_line_error(self, scene_files, tmp_path,
                                                  capsys):
        bad = tmp_path / "null.json"
        bad.write_text('{"grid": {"rows": 4, "cols": 4}, "cells": [null]}')
        code = main(["run", "--alice", str(bad), "--bob", scene_files[1]])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1
        assert err.startswith("error:")
        assert "cells[0] must be an integer, got null" in err

    def test_counting_bits_above_the_cap_exit_at_once(self, scene_files, capsys):
        code = main(["run", "--alice", scene_files[0], "--bob", scene_files[1],
                     "--counting-bits", "28"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1
        assert "counting register of 28 qubits exceeds the cap of 27" in err

    @pytest.mark.parametrize("bits", ["0", "-1"])
    def test_counting_bits_below_one_is_a_one_line_error(self, scene_files, capsys,
                                                         bits):
        code = main(["run", "--alice", scene_files[0], "--bob", scene_files[1],
                     "--counting-bits", bits])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: --counting-bits must be >= 1\n"

    @pytest.mark.parametrize("adversary", ["bob-measure-all",
                                           "alice-measure-result"])
    def test_disturbed_runs_beyond_the_circuit_cap(self, tmp_path, capsys,
                                                   adversary):
        # 18 data + 9 counting qubits: too many for the circuit engine.
        alice, bob = cell_files(tmp_path, 8, range(1, 9), range(5, 13))
        code = main(["run", "--alice", alice, "--bob", bob,
                     "--adversary", adversary, "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bits=9 engine=reduced" in out

    def test_large_grid_with_few_cells(self, tmp_path, capsys):
        # 26 qubits of registers, but only 4 branches in the joint state.
        alice, bob = cell_files(tmp_path, 64, [1, 2], [2, 3])
        code = main(["run", "--alice", alice, "--bob", bob])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict=INTERSECT t=1" in out

    def test_large_sets_give_the_classical_count(self, tmp_path, capsys):
        rng = random.Random(5)
        cells_a = rng.sample(range(1, 256 * 256), 256)
        cells_b = rng.sample(range(1, 256 * 256), 200) + rng.sample(cells_a, 56)
        expected = len(set(cells_a) & set(cells_b))
        alice, bob = cell_files(tmp_path, 256, sorted(cells_a), sorted(set(cells_b)))
        code = main(["run", "--alice", alice, "--bob", bob])
        out = capsys.readouterr().out
        assert code == 0
        assert f"verdict=INTERSECT t={expected}\n" in out
        assert "engine=reduced" in out

    @pytest.mark.parametrize("side, rect_a, rect_b, message", [
        (128, [0, 0, 63, 127], [63, 0, 126, 127],
         "8192 x 8192 = 67108864 table-row pairs exceed the cap of 16777216"),
        (65536, [0, 0, 0, 0], [0, 1, 0, 1],
         "layout requires 66 qubits, exceeding the 63"),
        # One column past the 2^24 pairs of the largest rung, which is counted.
        (512, [0, 0, 63, 63], [1, 1, 64, 65],
         "4096 x 4160 = 17039360 table-row pairs exceed the cap of 16777216"),
        (65536, [0, 0, 65535, 65535], [0, 1, 0, 1],
         "scene shapes list 4294967296 cells, exceeding the cap of 16777216"),
    ])
    def test_over_budget_inputs_exit_before_allocating(self, tmp_path, capsys,
                                                       side, rect_a, rect_b,
                                                       message):
        alice, bob = rect_files(tmp_path, side, rect_a, rect_b)
        tracemalloc.start()
        try:
            code = main(["run", "--alice", alice, "--bob", bob])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert message in captured.err
        assert peak < 32 << 20

    def test_one_cell_per_party_on_a_grid_above_the_budget(self, tmp_path, capsys):
        # 2^26 cells: measurements list only the outcomes present, so no
        # table over the 26-qubit data register is built.
        alice, bob = rect_files(tmp_path, 8192, [0, 0, 0, 0], [0, 1, 0, 1])
        code = main(["run", "--alice", alice, "--bob", bob])
        assert code == 0
        assert "verdict=DISJOINT t=0" in capsys.readouterr().out
        code = main(["analyze", "--alice", alice, "--bob", bob])
        out = capsys.readouterr().out
        assert code == 0
        assert "honest               detection_probability=0.0" in out
        assert "bob-tamper:1         detection_probability=1.0" in out

    @pytest.mark.parametrize("k, expected", [(18, 289), (24, 529)])
    def test_shifted_squares_pass_the_norm_check(self, tmp_path, capsys, k,
                                                 expected):
        # k*k branches per party: the norm sums must stay within 1e-12.
        alice, bob = rect_files(tmp_path, 64, [0, 0, k - 1, k - 1], [1, 1, k, k])
        code = main(["run", "--alice", alice, "--bob", bob])
        assert code == 0
        assert f"verdict=INTERSECT t={expected}\n" in capsys.readouterr().out

    def test_the_128x128_rung_is_counted_on_the_peaks(self, tmp_path, capsys):
        # K = 2^20 pairs at 23 counting bits.  Of the two mirror peaks the
        # lower is taken, y = 80,848, not 2^23 - 80,848.
        alice, bob = rect_files(tmp_path, 128, [0, 0, 31, 31], [1, 1, 32, 32])
        code = main(["run", "--alice", alice, "--bob", bob])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict=INTERSECT t=961\n" in out
        assert "y=80848 bits=23 engine=reduced" in out

    def test_the_largest_search_space_is_counted(self, tmp_path, capsys):
        # K = 2^24 pairs, the most a spec admits, at the default 27 bits.
        alice, bob = rect_files(tmp_path, 512, [0, 0, 63, 63], [1, 1, 64, 64])
        code = main(["run", "--alice", alice, "--bob", bob])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict=INTERSECT t=3969\n" in out
        success = float(out.split("success_prob=")[1].split()[0])
        assert success >= 8 / math.pi ** 2

    @pytest.mark.parametrize("extra", [[], ["--verbose"]])
    def test_run_rasterizes_each_scene_once(self, scene_files, monkeypatch,
                                            capsys, extra):
        calls = []
        original = protocol.rasterize

        def counted(scene):
            calls.append(scene)
            return original(scene)

        monkeypatch.setattr(protocol, "rasterize", counted)
        code = main(["run", "--alice", scene_files[0], "--bob", scene_files[1], *extra])
        capsys.readouterr()
        assert code == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("extra", [["--verbose"],
                                       ["--mode", "sample", "--seed", "1"]])
    def test_reading_every_outcome_is_refused_above_the_budget(self, tmp_path,
                                                               capsys, extra):
        # The verbose trace and a sampled outcome need all 2^27 outcomes.
        alice, bob = rect_files(tmp_path, 512, [0, 0, 63, 63], [1, 1, 64, 64])
        tracemalloc.start()
        try:
            code = main(["run", "--alice", alice, "--bob", bob, *extra])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("error: outcome distribution of 27 qubits "
                                "exceeds the cap of 24\n")
        assert peak < 32 * 2 ** 20

    @pytest.mark.parametrize("extra", [
        ["--mode", "sample", "--seed", "-3"],
        ["--adversary", "bob-measure-all", "--seed", "-3"],
    ])
    def test_negative_seed_names_the_flag(self, scene_files, capsys, extra):
        code = main(["run", "--alice", scene_files[0], "--bob", scene_files[1],
                     *extra])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: --seed must be >= 0\n"

    def test_deeply_nested_json_is_a_one_line_error(self, scene_files,
                                                    tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        code = main(["run", "--alice", str(deep), "--bob", scene_files[1]])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {deep}: JSON nested too deeply\n"

    def test_unknown_adversary(self, scene_files, capsys):
        code = main(["run", "--alice", scene_files[0], "--bob", scene_files[1],
                     "--adversary", "eve"])
        assert code == 1
        assert "unknown adversary" in capsys.readouterr().err

    # int() would read " 1", "1_0", "+1" and a full-width digit as masks.
    @pytest.mark.parametrize("mask", ["abc", "1e3", " 1", "1_0", "+1", "-1",
                                      "\uff101"])
    def test_non_integer_tamper_mask_is_a_one_line_error(self, scene_files,
                                                         capsys, mask):
        code = main(["run", "--alice", scene_files[0], "--bob", scene_files[1],
                     "--adversary", f"bob-tamper:{mask}"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (f"error: bob-tamper mask must be an integer, "
                                f"got {mask!r}\n")

    @pytest.mark.parametrize("name", ["honest", "bob-measure-all"])
    def test_empty_adversary_argument_is_a_one_line_error(self, scene_files,
                                                          capsys, name):
        code = main(["run", "--alice", scene_files[0], "--bob", scene_files[1],
                     "--adversary", f"{name}:"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {name} does not take an argument\n"

    def test_duplicate_scene_key_is_a_one_line_error(self, scene_files,
                                                     tmp_path, capsys):
        dup = tmp_path / "dup.json"
        dup.write_text('{"grid": {"rows": 4, "cols": 4}, '
                       '"grid": {"rows": 8, "cols": 8}, "cells": [1]}')
        code = main(["run", "--alice", str(dup), "--bob", scene_files[1]])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f'error: {dup}: duplicate key "grid"\n'

    @pytest.mark.parametrize("party, scene, message", [
        ("bob", {"shapes": []},
         "scene covers no cells; the protocol needs a nonempty set"),
        ("alice", {"cells": [16]},
         "entry 16 does not fit in 4 value bits (0 is reserved, max 15)"),
    ])
    def test_scene_content_errors_name_the_party(self, scene_files, tmp_path,
                                                 capsys, party, scene, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"grid": {"rows": 4, "cols": 4}, **scene}))
        files = {"alice": scene_files[0], "bob": scene_files[1], party: str(bad)}
        code = main(["run", "--alice", files["alice"], "--bob", files["bob"]])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {party}: {message}\n"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no integer-string digit limit")
    def test_overlong_scene_integer_is_a_one_line_error(self, scene_files,
                                                        tmp_path, capsys):
        digits = sys.get_int_max_str_digits() + 1
        big = tmp_path / "big.json"
        big.write_text('{"grid": {"rows": 4, "cols": %s}, "cells": [1]}'
                       % ("9" * digits))
        code = main(["run", "--alice", str(big), "--bob", scene_files[1]])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {big}: ")
        assert captured.err.count("\n") == 1


class TestRasterize:
    def test_worked_scene(self, scene_files, capsys):
        code = main(["rasterize", scene_files[0]])
        out = capsys.readouterr().out
        assert code == 0
        assert "cells=[1,2,5,6] M=4 m=2 r=4" in out

    def test_full_grid(self, tmp_path, capsys):
        scene = tmp_path / "full.json"
        scene.write_text(json.dumps({"grid": {"rows": 4, "cols": 4},
                                     "shapes": [{"rect": [0, 0, 3, 3]}]}))
        code = main(["rasterize", str(scene)])
        out = capsys.readouterr().out
        assert code == 0
        assert f"cells=[{','.join(str(i) for i in range(1, 17))}]" in out

    def test_serials_beyond_int64(self, tmp_path, capsys):
        side = 10 ** 10
        scene = tmp_path / "huge.json"
        scene.write_text(json.dumps({
            "grid": {"rows": side, "cols": side}, "cells": [side * side, 5],
            "shapes": [{"rect": [side - 1, side - 2, side - 1, side - 1]}]}))
        code = main(["rasterize", str(scene)])
        assert code == 0
        assert f"cells=[5,{side * side - 1},{side * side}] M=3" in capsys.readouterr().out

    def test_empty_shape_list_is_an_input_error(self, tmp_path, capsys):
        scene = tmp_path / "empty.json"
        scene.write_text(json.dumps({"grid": {"rows": 4, "cols": 4},
                                     "shapes": []}))
        code = main(["rasterize", str(scene)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {scene}: scene covers no cells; "
            f"the protocol needs a nonempty set\n")

    @pytest.mark.parametrize("doc, message", MALFORMED_SCENES)
    def test_unknown_fields_and_mixed_shapes_are_one_line_errors(
            self, tmp_path, capsys, doc, message):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(doc))
        code = main(["rasterize", str(scene)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {scene}: {message}\n"


class TestAnalyze:
    def test_all_sections_by_default(self, scene_files, capsys):
        code = main(["analyze", "--alice", scene_files[0],
                     "--bob", scene_files[1]])
        out = capsys.readouterr().out
        assert code == 0
        assert "== cost ==" in out
        assert "== leakage ==" in out
        assert "== attacks ==" in out
        assert "qubits: A->B 6, B->A 12, total 18 (nominal formula: 22)" in out
        assert "atallah=1024 bits, qin=1024 bits" in out
        assert "ensemble entropy 2.000000 bits" in out
        assert "log2(M*R) = 6.000000 bits" in out
        assert "bob-tamper:1" in out

    def test_attack_section_flags_the_discrepancy(self, scene_files, capsys):
        code = main(["analyze", "--alice", scene_files[0],
                     "--bob", scene_files[1], "--attacks"])
        out = capsys.readouterr().out
        assert code == 0
        assert "honest" in out
        assert "detection_probability=0.0" in out
        assert "detection_probability=1.0" in out
        assert "measurement attacks pass the uncompute check exactly" in out
        assert "== cost ==" not in out

    @pytest.mark.parametrize("pair", ["scene_files", "disjoint_files"])
    def test_attack_lines_match_detection_probability(self, request, pair,
                                                      capsys):
        alice, bob = request.getfixturevalue(pair)
        strategies = [HONEST,
                      AdversaryStrategy(Attack.BOB_MEASURE_ALL),
                      AdversaryStrategy(Attack.BOB_MEASURE_DATA),
                      AdversaryStrategy(Attack.BOB_TAMPER, 1)]
        scene_a, scene_b = load_scene(alice), load_scene(bob)
        expected = [f"{s.label:<20} detection_probability="
                    f"{detection_probability(scene_a, scene_b, s)}"
                    for s in strategies]
        code = main(["analyze", "--alice", alice, "--bob", bob, "--attacks"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[1:5] == expected

    def test_attacks_run_one_check_per_tamper_mask(self, scene_files,
                                                   monkeypatch, capsys):
        calls = []
        check = protocol.cheat_check

        def counted(*args, **kwargs):
            calls.append(1)
            return check(*args, **kwargs)

        monkeypatch.setattr(protocol, "cheat_check", counted)
        code = main(["analyze", "--alice", scene_files[0],
                     "--bob", scene_files[1], "--attacks"])
        capsys.readouterr()
        assert code == 0
        assert len(calls) == 2

    def test_cost_flag_only(self, scene_files, capsys):
        code = main(["analyze", "--alice", scene_files[0],
                     "--bob", scene_files[1], "--cost"])
        out = capsys.readouterr().out
        assert code == 0
        assert "== cost ==" in out
        assert "== leakage ==" not in out


    def test_all_sections_on_a_large_grid(self, tmp_path, capsys):
        alice, bob = cell_files(tmp_path, 64, [1, 2], [2, 3])
        code = main(["analyze", "--alice", alice, "--bob", bob])
        out = capsys.readouterr().out
        assert code == 0
        assert "ensemble entropy 1.000000 bits" in out
        assert "bob-tamper:1         detection_probability=1.0" in out

    def test_leakage_of_one_row_prints_no_negative_zero(self, tmp_path,
                                                        capsys):
        alice, bob = cell_files(tmp_path, 4, [6], [6])
        code = main(["analyze", "--alice", alice, "--bob", bob, "--leakage"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ensemble entropy 0.000000 bits" in out
        assert "holevo bound 0.000000 bits" in out
        assert "-0.000000" not in out

    def test_leakage_of_a_large_ensemble(self, tmp_path, capsys):
        # 32 rows on 8 value bits: a 2^13-square density matrix, a 32-square Gram.
        alice, bob = cell_files(tmp_path, 16, range(1, 33), [1, 2])
        code = main(["analyze", "--alice", alice, "--bob", bob, "--leakage"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ensemble entropy 5.000000 bits" in out

    def test_a_failing_section_prints_no_partial_report(self, tmp_path,
                                                        capsys):
        # Cost and leakage succeed; the attacks section's joint layout needs
        # 126 qubits, more than a packed basis index holds.
        alice, bob = cell_files(tmp_path, 1 << 31, [1], [2])
        code = main(["analyze", "--alice", alice, "--bob", bob])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "layout requires 126 qubits, exceeding the 63" in captured.err

    def test_leakage_has_no_cap_on_the_ensemble_size(self, tmp_path, capsys):
        alice, bob = cell_files(tmp_path, 128, range(1, 4098), [1])
        code = main(["analyze", "--alice", alice, "--bob", bob])
        out = capsys.readouterr().out
        assert code == 0
        assert "ensemble entropy 12.000352 bits" in out


def test_argument_errors_exit_one(capsys):
    code = None
    try:
        code = main(["run", "--alice-only-bad-flag"])
    except SystemExit as exc:
        code = exc.code
    assert code == 1


class TestRepeatedMain:
    def run_args(self, scene_files, trace, *extra):
        return ["run", "--alice", scene_files[0], "--bob", scene_files[1],
                "--trace", str(trace), *extra]

    def test_parser_is_built_once_and_keeps_no_state(self, scene_files,
                                                     tmp_path, monkeypatch,
                                                     capsys):
        roots = []
        init = cli._Parser.__init__

        def counted(self, *args, **kwargs):
            if kwargs.get("prog") == "qgi":
                roots.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
        assert main(self.run_args(scene_files, t1, "--verbose")) == 0
        with pytest.raises(SystemExit) as exc:
            main(["run", "--alice", scene_files[0], "--no-such-flag"])
        assert exc.value.code == 1
        assert main(self.run_args(scene_files, t2)) == 0
        capsys.readouterr()
        assert len(roots) <= 1
        assert "distribution" in json.loads(t1.read_text())["transcript"]["estimate"]
        doc = json.loads(t2.read_text())
        assert "distribution" not in doc["transcript"]["estimate"]
        assert doc["config"]["verbose"] is False

    def test_repeated_call_writes_the_subprocess_trace(self, scene_files,
                                                       tmp_path, capsys):
        in_process = tmp_path / "in.json"
        child = tmp_path / "child.json"
        extra = ["--mode", "sample", "--seed", "5"]
        # The plain runs write over a longer verbose trace, which must be
        # cut to the new length; a device cannot be cut and is written
        # through.
        assert main(self.run_args(scene_files, in_process, *extra,
                                  "--verbose")) == 0
        longer = in_process.stat().st_size
        for _ in range(2):
            assert main(self.run_args(scene_files, in_process, *extra)) == 0
        assert main(self.run_args(scene_files, os.devnull, *extra)) == 0
        capsys.readouterr()
        src = str(Path(qgi.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-m", "qgi.cli",
                        *self.run_args(scene_files, child, *extra)],
                       env=env, check=True, capture_output=True)
        assert child.stat().st_size < longer
        assert in_process.read_bytes() == child.read_bytes()


def encoded(doc) -> str:
    parts = []
    cli._encode(doc, "\n", parts.append)
    return "".join(parts)


# Text with non-ASCII (astral and lone surrogates too), control characters,
# quotes and backslashes; ints beyond 64 bits; the floats json spells apart.
trace_text = st.text(st.characters() | st.sampled_from(
    '"\\/\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600'), max_size=8)
trace_ints = (st.integers() | st.integers(min_value=2 ** 64)
              | st.integers(max_value=-2 ** 64))
trace_floats = st.floats() | st.sampled_from(
    [-0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf])
trace_docs = st.recursive(
    st.none() | st.booleans() | trace_ints | trace_floats | trace_text,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(trace_text, inner, max_size=4),
    max_leaves=24)


class Colour(enum.IntEnum):
    RED = 1


class Name(str, enum.Enum):
    ALICE = "alice"


class Tally(int):
    def __repr__(self):
        return "Tally()"

    __str__ = __repr__


class TestTraceEncoding:
    @settings(max_examples=200, deadline=None)
    @given(trace_docs)
    def test_encoder_matches_json_dumps_indent_2(self, doc):
        assert encoded(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("value, as_json", [
        ((1, "two", [3.0]), True),
        (collections.OrderedDict(b=1, a=[]), True),
        (Colour.RED, True),
        (Tally(3), True),
        (Name.ALICE, True),
        (np.float64(0.1), True),
        (np.float64("nan"), True),
        ({1: "one"}, False),
        ({None: 1}, False),
        ({(1, 2): 1}, False),
        (np.int64(3), False),
        (np.bool_(True), False),
        (np.array([1.0]), False),
        ({1, 2}, False),
        (b"bytes", False),
        (decimal.Decimal("1.5"), False),
        (1j, False),
        (object(), False),
    ], ids=lambda v: type(v).__name__)
    def test_other_types_encode_as_json_or_raise_type_error(self, value, as_json):
        for doc in (value, [value], {"a": {"b": value}}):
            if as_json:
                assert encoded(doc) == json.dumps(doc, indent=2)
            else:
                with pytest.raises(TypeError):
                    encoded(doc)

    @pytest.mark.parametrize("adversary", [
        "honest", "bob-measure-all", "bob-measure-data", "bob-tamper:1",
        "alice-measure-result"])
    def test_traces_are_json_indent_2_text(self, scene_files, tmp_path, capsys,
                                           adversary):
        for extra in ([], ["--verbose"], ["--mode", "sample", "--seed", "3"]):
            trace = tmp_path / "trace.json"
            main(["run", "--alice", scene_files[0], "--bob", scene_files[1],
                  "--adversary", adversary, "--trace", str(trace), *extra])
            text = trace.read_text(encoding="ascii")
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
        capsys.readouterr()

    def test_verbose_distribution_is_written_in_bounded_memory(self, scene_files,
                                                               tmp_path):
        # 2^16 outcomes make about 2 MB of text, which must never be held
        # whole.  The document is built before measuring.
        trace = tmp_path / "trace.json"
        args = cli.build_parser().parse_args([
            "run", "--alice", scene_files[0], "--bob", scene_files[1],
            "--counting-bits", "16", "--verbose", "--trace", str(trace)])
        transcript = protocol.run_protocol(
            load_scene(args.alice), load_scene(args.bob), CountingConfig(bits=16))
        doc = transcript.to_dict(verbose=True)
        tracemalloc.start()
        try:
            cli._write_trace(args, SimpleNamespace(to_dict=lambda verbose: doc))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = trace.read_text(encoding="ascii")
        dist = json.loads(text)["transcript"]["estimate"]["distribution"]
        assert len(dist) == 2 ** 16
        assert peak < len(text) / 4
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_readme_worked_pair_output(scene_files, capsys):
    """The README's worked-pair result lines are what ``qgi run`` prints."""
    expected = ["verdict=INTERSECT t=1",
                "y=10 bits=7 engine=circuit theta_hat=0.490874 t_hat=0.944630 "
                "success_prob=0.949044"]
    assert main(["run", "--alice", scene_files[0], "--bob", scene_files[1]]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == expected
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    for line in expected:
        assert f"# {line}\n" in text
