"""Seeded workloads of the qgi benchmark.

Each workload turns its seed into a fixed pool of ops and the run cycles
over that pool.  The pool's composition (grid, cells per party, op kinds)
is fixed per workload, so its cost profile does not depend on the seed;
the seed only picks which rectangles or cells each party holds and how
much the two sets overlap.  The program receives only these generated
inputs.  Every op checks its own output and returns a digest line
covering verdicts, ``y``, ``t_rounded``, abort status, and probabilities
and entropies rounded to 1e-9 (never the engine name).

Each pool has an odd multiple of 5 ops that complete (15x15, 15 and 25),
so over whole passes p50 and p90 fall inside the samples of one op
rather than on the edge between the samples of two.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

# sweep-4x4: rectangles of at most 4 cells per side, by cell count.  The
# shares follow the 15/22/14/14 split of the 65 encodable rectangles.
SWEEP_PICKS = {1: 4, 2: 5, 3: 3, 4: 3}
# ladder-dense: (grid side, cells of Alice, cells of Bob).  Every pair is
# large enough for ``auto`` to pick the reduced engine.
LADDER_PAIRS = ((8, 1, 8), (8, 2, 5), (8, 3, 3), (8, 4, 6), (8, 5, 2),
                (8, 6, 7), (8, 7, 4), (8, 8, 8), (8, 2, 4), (8, 8, 1),
                (16, 1, 1), (16, 1, 3), (16, 2, 4), (16, 4, 2), (16, 4, 4))
# adversary-analyze: the 8x8 pair with 8 cells per party needs 27 qubits
# on the circuit engine, so its two disturbed runs are refused today.
ADVERSARY_PAIRS = ((4, 3, 4), (8, 4, 4), (8, 8, 8))
DETECTION_ATTACKS = ("honest", "bob-measure-all", "bob-measure-data",
                     "bob-tamper:1")
# Each pair also gets one honest run, the reference for the attacked ones.
RUN_ATTACKS = ("bob-measure-all", "alice-measure-result", "bob-tamper:1")
ENTROPY_TOL = 1e-9


@dataclass(frozen=True)
class Outcome:
    correct: bool
    digest: str
    success_prob: float | None = None


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], Outcome]


@dataclass
class Workload:
    ops: list[Op]
    # Ops of one fixed stratum, run once in set-up so lazy imports and
    # caches settle; fixed so that set-up time does not depend on the seed.
    warm: list[Op]

    def warm_up(self):
        for op in self.warm:
            op.run()


def _p(x: float) -> str:
    return f"{x:.9f}"


def _encodable(side: int) -> list[int]:
    """Serials of a side x side grid that fit its data register (0 is reserved)."""
    top = (1 << max(1, math.ceil(math.log2(side * side)))) - 1
    return list(range(1, min(top, side * side) + 1))


def _pair_cells(rng: random.Random, side: int, size_a: int, size_b: int):
    """Two seeded cell sets of the given sizes with a seeded overlap."""
    pool = _encodable(side)
    overlap = rng.randint(0, min(size_a, size_b))
    cells_a = rng.sample(pool, size_a)
    taken = set(cells_a)
    cells_b = (rng.sample(cells_a, overlap)
               + rng.sample([c for c in pool if c not in taken], size_b - overlap))
    return sorted(cells_a), sorted(cells_b)


def _true_count(qgi, cells_a, cells_b) -> int:
    """|A ∩ B| from the program's classical oracle, checked against set algebra."""
    geometry = qgi.geometry
    hit, common = geometry.classical_intersect(
        geometry.GridSet(tuple(cells_a)), geometry.GridSet(tuple(cells_b)))
    count = len(set(cells_a) & set(cells_b))
    if hit != (count > 0) or len(common) != count:
        raise RuntimeError(f"classical oracle disagrees on {cells_a} vs {cells_b}")
    return count


def _check_honest(verdict: str, y, t_rounded, success_prob, true_t: int) -> Outcome:
    """Verdict equals the classical oracle and the count rounds to |A ∩ B|."""
    expected = "INTERSECT" if true_t else "DISJOINT"
    if verdict == "ABORT":
        return Outcome(False, "ABORT")
    correct = (verdict == expected and t_rounded == true_t
               and success_prob is not None)
    prob = _p(success_prob) if success_prob is not None else "none"
    return Outcome(correct, f"{verdict} y={y} t={t_rounded} p={prob}",
                   success_prob)


def _honest_run(qgi, scene_a, scene_b, true_t: int) -> Outcome:
    transcript = qgi.protocol.run_protocol(scene_a, scene_b)
    est = transcript.estimate
    if est is None:
        return Outcome(False, f"{transcript.verdict.value} no estimate")
    return _check_honest(transcript.verdict.value, est.y, est.t_rounded,
                         est.success_prob, true_t)


def sweep(qgi, seed: int, workdir: Path) -> Workload:
    geometry = qgi.geometry
    grid = geometry.GridConfig(4, 4)
    top = _encodable(4)[-1]
    by_size: dict[int, list] = {}
    for r0 in range(4):
        for r1 in range(r0, 4):
            for c0 in range(4):
                for c1 in range(c0, 4):
                    cells = [r * 4 + c + 1 for r in range(r0, r1 + 1)
                             for c in range(c0, c1 + 1)]
                    if len(cells) <= 4 and max(cells) <= top:
                        by_size.setdefault(len(cells), []).append(
                            ((r0, c0, r1, c1), cells))
    rng = random.Random(seed)

    def side():
        return [item for size, k in SWEEP_PICKS.items()
                for item in rng.sample(by_size[size], k)]

    ops = []
    for rect_a, cells_a in side():
        for rect_b, cells_b in side():
            scene_a = geometry.Scene(grid, rects=(geometry.Rect(*rect_a),))
            scene_b = geometry.Scene(grid, rects=(geometry.Rect(*rect_b),))
            ops.append(Op("run_protocol", partial(
                _honest_run, qgi, scene_a, scene_b,
                _true_count(qgi, cells_a, cells_b))))
    warm = ops[-1:]  # 4 cells against 4 cells
    rng.shuffle(ops)
    return Workload(ops, warm)


def _cli_run(qgi, alice: Path, bob: Path, trace: Path, true_t: int) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qgi.cli.main(["run", "--alice", str(alice), "--bob", str(bob),
                             "--trace", str(trace)])
    if code != 0:
        raise RuntimeError(f"qgi run exited {code}: {err.getvalue().strip()}")
    with open(trace, encoding="utf-8") as fh:
        transcript = json.load(fh)["transcript"]
    est = transcript["estimate"] or {}
    return _check_honest(transcript["verdict"], est.get("y"),
                         est.get("t_rounded"), est.get("success_prob"), true_t)


def ladder(qgi, seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    trace = workdir / "trace.json"
    ops = []
    for k, (side, size_a, size_b) in enumerate(LADDER_PAIRS):
        cells_a, cells_b = _pair_cells(rng, side, size_a, size_b)
        paths = []
        for party, cells in (("alice", cells_a), ("bob", cells_b)):
            path = workdir / f"{k:02d}-{party}.json"
            path.write_text(json.dumps(
                {"grid": {"rows": side, "cols": side}, "cells": cells}),
                encoding="utf-8")
            paths.append(path)
        ops.append(Op("cli.run", partial(
            _cli_run, qgi, paths[0], paths[1], trace,
            _true_count(qgi, cells_a, cells_b))))
    warm = ops[:1]
    rng.shuffle(ops)
    return Workload(ops, warm)


def _detection(qgi, scene_a, scene_b, strategy, expected: float) -> Outcome:
    prob = qgi.protocol.detection_probability(scene_a, scene_b, strategy)
    return Outcome(prob == expected, f"detection={_p(prob)}")


def _leakage(qgi, table, total_cells: int) -> Outcome:
    report = qgi.protocol.leakage_report(table, total_cells)
    entropy = report.ensemble_entropy_bits
    correct = abs(entropy - math.log2(table.size)) <= ENTROPY_TOL
    return Outcome(correct, f"entropy={_p(entropy)} "
                            f"holevo={_p(report.holevo_bound_bits)}")


def _attacked_run(qgi, scene_a, scene_b, strategy, seed: int) -> Outcome:
    transcript = qgi.protocol.run_protocol(scene_a, scene_b,
                                           adversary=strategy, seed=seed)
    verdict = transcript.verdict.value
    if transcript.estimate is None:
        digest = verdict
    else:
        digest = (f"{verdict} y={transcript.estimate.y} "
                  f"t={transcript.estimate.t_rounded}")
    # A tampered message must fail the check; a measured one is expected
    # to pass it, and its count is then undefined.
    if strategy.label.startswith("bob-tamper"):
        return Outcome(verdict == "ABORT", digest)
    return Outcome(verdict in ("INTERSECT", "DISJOINT"), digest)


def adversary(qgi, seed: int, workdir: Path) -> Workload:
    geometry, protocol, oracles = qgi.geometry, qgi.protocol, qgi.oracles
    rng = random.Random(seed)
    ops = []
    for side, size_a, size_b in ADVERSARY_PAIRS:
        grid = geometry.GridConfig(side, side)
        cells_a, cells_b = _pair_cells(rng, side, size_a, size_b)
        scene_a = geometry.Scene(grid, cells=tuple(cells_a))
        scene_b = geometry.Scene(grid, cells=tuple(cells_b))
        true_t = _true_count(qgi, cells_a, cells_b)
        for label in DETECTION_ATTACKS:
            strategy = protocol.AdversaryStrategy.parse(label)
            expected = 1.0 if label.startswith("bob-tamper") else 0.0
            ops.append(Op("detection_probability", partial(
                _detection, qgi, scene_a, scene_b, strategy, expected)))
        table = oracles.DataTable.from_serials(cells_a, grid.value_bits)
        ops.append(Op("leakage_report", partial(
            _leakage, qgi, table, grid.total_cells)))
        ops.append(Op("run_protocol", partial(
            _honest_run, qgi, scene_a, scene_b, true_t)))
        for label in RUN_ATTACKS:
            ops.append(Op("run_protocol", partial(
                _attacked_run, qgi, scene_a, scene_b,
                protocol.AdversaryStrategy.parse(label), rng.randrange(1 << 31))))
    warm = ops[:len(ops) // len(ADVERSARY_PAIRS)]  # every op of the 4x4 pair
    return Workload(ops, warm)


BUILDERS = {"sweep-4x4": sweep, "ladder-dense": ladder,
            "adversary-analyze": adversary}
