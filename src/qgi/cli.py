"""Command-line surface: run the protocol, rasterize scenes, analyze costs.

Exit codes: 0 for a completed run (including a DISJOINT verdict), 1 for
input errors, 2 when the protocol aborts on a failed check.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys

from .counting import CountingConfig, Verdict, plan_counting
from .geometry import SceneFormatError, load_scene, rasterize
from .oracles import address_bits
from .protocol import (HONEST, AdversaryStrategy, Attack, CostSummary,
                       ProtocolTranscript, build_preparation, comm_cost,
                       _detection, _run, leakage_report)


# The ``run`` flags a trace records under "config", in this order.
TRACE_CONFIG = ("alice", "bob", "counting_bits", "mode", "seed", "adversary",
                "verbose")


def _cost_lines(cost: CostSummary) -> list[str]:
    return [
        f"qubits: A->B {cost.alice_to_bob_qubits}, "
        f"B->A {cost.bob_to_alice_qubits}, total {cost.total_qubits} "
        f"(nominal formula: {cost.nominal_total_qubits})",
        f"classical baselines: atallah={cost.baseline_bits['atallah']} bits, "
        f"qin={cost.baseline_bits['qin']} bits",
    ]


_ascii = json.encoder.encode_basestring_ascii  # json's own string escaper
_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's spelling


def _encode(o, nl: str, write) -> None:
    """Write ``json.dumps(o, indent=2)`` for ``o``, indented after ``nl``, token by
    token.  Types json refuses, and non-str keys it would convert, raise TypeError."""
    if isinstance(o, str):
        write(_ascii(o))
    elif o is None or isinstance(o, int):
        write("null" if o is None else "true" if o is True else
              "false" if o is False else int.__repr__(o))
    elif isinstance(o, float):
        write(_FLOATS.get(text := float.__repr__(o), text))
    elif isinstance(o, dict):
        inner, sep = nl + "  ", "," + nl + "  "
        for i, (key, value) in enumerate(o.items()):
            write((sep if i else "{" + inner) + _ascii(key) + ": ")
            _encode(value, inner, write)
        write(nl + "}" if o else "{}")
    elif isinstance(o, (list, tuple)):
        inner, sep = nl + "  ", "," + nl + "  "
        for i, item in enumerate(o):
            write(sep if i else "[" + inner)
            _encode(item, inner, write)
        write(nl + "]" if o else "[]")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _write_trace(args: argparse.Namespace, transcript: ProtocolTranscript):
    if args.trace is None:
        return
    doc = {"config": {key: getattr(args, key) for key in TRACE_CONFIG},
           "transcript": transcript.to_dict(verbose=args.verbose)}
    # Written over the old bytes and cut to length, not truncated first:
    # truncating an existing trace makes the filesystem free (and, where
    # mounted with discard, discard) its blocks on every run.  Pipes and
    # devices such as /dev/stdout cannot be cut and are written through.
    with open(os.open(args.trace, os.O_WRONLY | os.O_CREAT, 0o666), "w",
              encoding="utf-8") as fh:
        _encode(doc, "\n", fh.write)
        fh.write("\n")
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def cmd_run(args: argparse.Namespace) -> int:
    if args.mode == "sample" and args.seed is None:
        raise ValueError("sample mode needs --seed for reproducible runs")
    if args.counting_bits is not None and args.counting_bits < 1:
        raise ValueError("--counting-bits must be >= 1")
    if args.seed is not None and args.seed < 0:
        raise ValueError("--seed must be >= 0")
    scene_a = load_scene(args.alice)
    scene_b = load_scene(args.bob)
    adversary = AdversaryStrategy.parse(args.adversary)
    counting = CountingConfig(bits=args.counting_bits, mode=args.mode)
    spec = build_preparation(scene_a, scene_b)
    if args.verbose:  # the trace lists every outcome's probability
        plan_counting(spec, counting, distribution=True)
    transcript = _run(spec, scene_a.grid.total_cells, counting, adversary, args.seed)
    _write_trace(args, transcript)
    aborted = transcript.verdict is Verdict.ABORT
    if aborted:
        print("ABORT: cheat check failed")
    else:
        est = transcript.estimate
        print(f"verdict={transcript.verdict} t={est.t_rounded}")
        line = (f"y={est.y} bits={est.bits} engine={est.engine} "
                f"theta_hat={est.theta_hat:.6f} t_hat={est.t_hat:.6f}")
        if est.success_prob is not None:
            line += f" success_prob={est.success_prob:.6f}"
        print(line)
        for text in _cost_lines(transcript.cost):
            print(text)
    if args.trace:
        print(f"trace written to {args.trace}")
    return 2 if aborted else 0


def cmd_rasterize(path: str) -> int:
    scene = load_scene(path)
    try:
        cells = rasterize(scene)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    serials = ",".join(str(s) for s in cells.serials)
    print(f"cells=[{serials}] M={len(cells)} m={address_bits(len(cells))} "
          f"r={scene.grid.value_bits}")
    return 0


def cmd_analyze(alice: str, bob: str, show_cost: bool, show_leakage: bool,
                show_attacks: bool) -> int:
    if not (show_cost or show_leakage or show_attacks):
        show_cost = show_leakage = show_attacks = True
    scene_a = load_scene(alice)
    scene_b = load_scene(bob)
    spec = build_preparation(scene_a, scene_b)
    total_cells = scene_a.grid.total_cells
    # Every section is computed before any is printed, so a section that
    # fails leaves no partial report behind its one-line error.
    lines = []
    if show_cost:
        cost = comm_cost(spec.table_a.size, spec.table_b.size, total_cells)
        lines.append("== cost ==")
        lines.extend(_cost_lines(cost))
        lines.append(f"note: the nominal formula (2m+n+4r) exceeds the message "
                     f"total (2m+n+3r) by r={cost.value_bits} qubits")
    if show_leakage:
        report = leakage_report(spec.table_a, total_cells)
        lines.append("== leakage ==")
        lines.append(f"ensemble entropy {report.ensemble_entropy_bits:.6f} bits "
                     f"(nominal bound log2(M*R) = "
                     f"{report.nominal_bound_bits:.6f} bits)")
        lines.append(f"holevo bound {report.holevo_bound_bits:.6f} bits")
        lines.append("note: the computed ensemble entropy is log2(M); "
                     "the nominal log2(M*R) bound is larger by log2(R)")
    if show_attacks:
        lines.append("== attacks ==")
        strategies = [
            HONEST,
            AdversaryStrategy(Attack.BOB_MEASURE_ALL),
            AdversaryStrategy(Attack.BOB_MEASURE_DATA),
            AdversaryStrategy(Attack.BOB_TAMPER, 1),
        ]
        # The untampered strategies share one check pipeline (see
        # detection_probability), so each distinct tamper mask runs once.
        detection = {mask: _detection(spec, mask)
                     for mask in {strat.tamper_mask for strat in strategies}}
        for strat in strategies:
            lines.append(f"{strat.label:<20} "
                         f"detection_probability={detection[strat.tamper_mask]}")
        lines.append("note: measurement attacks pass the uncompute check exactly "
                     "(detection 0.0); the nominal claim that they are caught does "
                     "not hold in exact simulation")
    print("\n".join(lines))
    return 0


class _Parser(argparse.ArgumentParser):
    # Input errors exit 1; exit 2 is reserved for protocol aborts.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qgi`` parser, built once per process (parses share no state)."""
    parser = _Parser(prog="qgi",
                     description="Quantum two-party geometric-intersection simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[], help="execute the protocol on two scenes")
    run.add_argument("--alice", required=True, help="path to Alice's scene file")
    run.add_argument("--bob", required=True, help="path to Bob's scene file")
    run.add_argument("--counting-bits", type=int, default=None,
                     help="counting-register width (default: ceil(log2 K) + 3)")
    run.add_argument("--mode", choices=("exact", "sample"), default="exact")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--adversary", default="honest",
                     help="honest, bob-measure-all, bob-measure-data, "
                          "bob-tamper:MASK, alice-measure-result")
    run.add_argument("--trace", default=None, help="write the transcript here")
    run.add_argument("--verbose", action="store_true",
                     help="include the outcome distribution in the trace")

    rast = sub.add_parser("rasterize", help="print the grid set of one scene")
    rast.add_argument("scene", help="path to a scene file")

    ana = sub.add_parser("analyze", help="cost, leakage, and attack reports")
    ana.add_argument("--alice", required=True)
    ana.add_argument("--bob", required=True)
    ana.add_argument("--cost", action="store_true")
    ana.add_argument("--leakage", action="store_true")
    ana.add_argument("--attacks", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "rasterize":
            return cmd_rasterize(args.scene)
        return cmd_analyze(args.alice, args.bob,
                           args.cost, args.leakage, args.attacks)
    except (SceneFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
