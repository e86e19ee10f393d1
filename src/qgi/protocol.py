"""Two-party protocol driver: honest runs, adversary runs, analytics.

The five steps: Alice prepares and sends her encoded registers; Bob
tensors on his own encoded registers, XORs his data register with hers,
and sends everything back; Alice uncomputes her table and measures her
data register (a nonzero outcome aborts the run); Alice counts matching
pairs with phase estimation; Alice announces the verdict.  A party's
registers are built as one branch list, table loaded; every later step
is an array map on whatever state arrives.

Party objects hold only their own table; everything a party computes
before the final count touches its own table alone.  The counting step's
Grover iterate reflects about the joint preparation (``prepare_joint``:
the parties' steps without the measurement and the shared oracle access
the counting algorithm assumes), whose count and size are read from the
two tables, never built.  Every run counts the state Alice holds after
the cheat check in one call: where it equals that preparation branch for
branch, as on every undisturbed run, it is counted as the preparation;
otherwise it is counted against the tables.

Steps 1 and 2 and Alice's check are written once, in ``_exchange``.  A
protocol run resolves adversarial measurements there by drawing once
from the seeded generator, even in exact mode, because a cheater's
projective measurement happens once per execution.
``detection_probability`` is one minus the exchange's pass probability,
sampling-free and with no branch per outcome: every step between Bob's
measurement and Alice's check only moves branches, so the measurement is
deferred and the exchange runs once on the unmeasured message.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .counting import (CountEstimate, CountingConfig, Verdict,
                       decide_intersection, phase_estimate, plan_counting)
from .geometry import Scene, rasterize
from .oracles import (ADDR_A, DATA_A, DATA_B, DataTable, PreparationSpec,
                      address_bits, cheat_check, prepare_encoded, respond)
from .state import QuantumState, measure_register, xor_register


class Attack(str, enum.Enum):
    HONEST = "honest"
    BOB_MEASURE_ALL = "bob-measure-all"
    BOB_MEASURE_DATA = "bob-measure-data"
    BOB_TAMPER = "bob-tamper"
    ALICE_MEASURE_RESULT = "alice-measure-result"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def _missing_(cls, value):
        """``Attack(name)`` refuses an unknown name by listing the known ones."""
        raise ValueError(f"unknown adversary {value!r}; choose from "
                         f"{[a.value for a in cls]}")


@dataclass(frozen=True)
class AdversaryStrategy:
    attack: Attack = Attack.HONEST
    tamper_mask: int = 0

    def __post_init__(self):
        object.__setattr__(self, "attack", Attack(self.attack))
        if type(self.tamper_mask) is not int:
            raise ValueError(f"tamper mask must be an int, got {self.tamper_mask!r}")
        if self.attack is Attack.BOB_TAMPER:
            if self.tamper_mask == 0:
                raise ValueError("bob-tamper needs a nonzero mask")
        elif self.tamper_mask != 0:
            raise ValueError(f"{self.attack} does not take a mask")

    @classmethod
    def parse(cls, text: str) -> "AdversaryStrategy":
        name, colon, arg = text.partition(":")
        attack = Attack(name)
        if attack is Attack.BOB_TAMPER:
            if not arg:
                raise ValueError("bob-tamper needs a mask, e.g. bob-tamper:1")
            # int() alone would also take spaces, signs, underscores and
            # non-ASCII digits.
            if not (arg.isascii() and arg.isdigit()):
                raise ValueError(f"bob-tamper mask must be an integer, got {arg!r}")
            return cls(attack, int(arg))
        if colon:
            raise ValueError(f"{name} does not take an argument")
        return cls(attack)

    @property
    def label(self) -> str:
        if self.attack is Attack.BOB_TAMPER:
            return f"{self.attack.value}:{self.tamper_mask}"
        return self.attack.value


HONEST = AdversaryStrategy()


@dataclass(frozen=True)
class CostSummary:
    """Qubit counts of both messages plus classical baselines in bits.

    ``total_qubits`` adds up the two transferred layouts (2m + n + 3r).
    ``nominal_total_qubits`` is the protocol's commonly quoted total
    (2m + n + 4r); the two differ by r, which the analyzer flags.
    """

    set_size_a: int
    set_size_b: int
    total_cells: int
    address_bits_a: int
    address_bits_b: int
    value_bits: int
    alice_to_bob_qubits: int
    bob_to_alice_qubits: int
    total_qubits: int
    nominal_total_qubits: int
    baseline_bits: dict[str, int]

    def to_dict(self) -> dict:
        # Shallow: asdict would deep-copy every field.
        return dict(vars(self), baseline_bits=dict(self.baseline_bits))


def comm_cost(set_size_a: int, set_size_b: int, total_cells: int) -> CostSummary:
    """Message sizes for given set sizes and grid size; widths are 1 minimum."""
    if min(set_size_a, set_size_b, total_cells) < 1:
        raise ValueError("set sizes and cell count must be >= 1")
    m, n, r = (address_bits(x) for x in (set_size_a, set_size_b, total_cells))
    return CostSummary(
        set_size_a=set_size_a, set_size_b=set_size_b, total_cells=total_cells,
        address_bits_a=m, address_bits_b=n, value_bits=r,
        alice_to_bob_qubits=m + r,
        bob_to_alice_qubits=m + n + 2 * r,
        total_qubits=2 * m + n + 3 * r,
        nominal_total_qubits=2 * m + n + 4 * r,
        baseline_bits={
            "atallah": 4 * set_size_a ** 2 * total_cells,
            "qin": 2 * (set_size_a ** 2 + set_size_b ** 2) * total_cells,
        })


@dataclass(frozen=True)
class LeakageReport:
    """Entropy accounting for the ensemble an eavesdropper on the first
    message would hold."""

    set_size: int
    total_cells: int
    ensemble_entropy_bits: float
    mean_state_entropy_bits: float
    holevo_bound_bits: float
    nominal_bound_bits: float


def leakage_report(table: DataTable, total_cells: int) -> LeakageReport:
    """Holevo accounting for the equal-weight ensemble of encoded rows.

    Each row i contributes the pure state |i>|table[i]>, whose own entropy
    is 0.  The rows differ in their address, so they are orthonormal and
    the ensemble average is I/M on their span (Nielsen & Chuang section
    11.3): its entropy, and so the Holevo bound, is exactly log2(M) for
    every M.  The nominal bound log2(M * total_cells) is reported
    alongside.
    """
    ensemble = math.log2(table.size)
    return LeakageReport(
        set_size=table.size, total_cells=total_cells,
        ensemble_entropy_bits=ensemble,
        mean_state_entropy_bits=0.0,
        holevo_bound_bits=ensemble,
        nominal_bound_bits=math.log2(table.size * total_cells))


@dataclass
class StepRecord:
    step: int
    actor: str
    action: str
    qubits_sent: int | None = None
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        doc: dict[str, Any] = {"step": self.step, "actor": self.actor,
                               "action": self.action}
        if self.qubits_sent is not None:
            doc["qubits_sent"] = self.qubits_sent
        if self.detail:
            doc["detail"] = self.detail
        return doc


@dataclass
class ProtocolTranscript:
    steps: list[StepRecord]
    verdict: Verdict
    estimate: CountEstimate | None
    cost: CostSummary
    adversary: str
    seed: int | None
    mode: str
    complete: bool = True

    def validate(self):
        ids = [rec.step for rec in self.steps]
        if ids != sorted(ids) or any(not 1 <= i <= 5 for i in ids):
            raise ValueError(f"step records out of protocol order: {ids}")
        checks = [rec for rec in self.steps if rec.action == "uncompute_and_check"]
        if self.verdict is Verdict.ABORT:
            if not checks or checks[-1].detail.get("passed"):
                raise ValueError("aborted transcript lacks a failed check record")
            if any(rec.step > 3 for rec in self.steps):
                raise ValueError("abort must end the run at step 3")
            if self.estimate is not None:
                raise ValueError("aborted run must not carry a count estimate")
        else:
            if {1, 2, 3, 4, 5} - set(ids):
                raise ValueError(f"completed run is missing steps: {ids}")

    def to_dict(self, verbose: bool = False) -> dict:
        return {
            "steps": [rec.to_dict() for rec in self.steps],
            "verdict": self.verdict.value,
            "estimate": (self.estimate.to_dict(include_distribution=verbose)
                         if self.estimate is not None else None),
            "cost": self.cost.to_dict(),
            "adversary": self.adversary,
            "seed": self.seed,
            "mode": self.mode,
            "complete": self.complete,
        }


class AliceParty:
    """Holds only Alice's table; prepares, checks, and counts."""

    def __init__(self, table: DataTable):
        self.table = table

    def prepare_message(self) -> QuantumState:
        return prepare_encoded(self.table, ADDR_A, DATA_A)


class BobParty:
    """Holds only Bob's table; entangles his registers onto the message."""

    def __init__(self, table: DataTable):
        self.table = table

    def respond(self, incoming: QuantumState) -> QuantumState:
        return respond(incoming, self.table)


def build_preparation(scene_a: Scene, scene_b: Scene) -> PreparationSpec:
    """Rasterize both scenes on their shared grid into a preparation spec.

    An error in one party's scene content (no cells, or a serial too
    large for the data register) names that party.
    """
    if scene_a.grid != scene_b.grid:
        raise ValueError(
            f"parties must share one grid partition, got "
            f"{scene_a.grid.rows}x{scene_a.grid.cols} vs "
            f"{scene_b.grid.rows}x{scene_b.grid.cols}")
    bits = scene_a.grid.value_bits
    tables = []
    for party, scene in (("alice", scene_a), ("bob", scene_b)):
        try:
            tables.append(DataTable.from_serials(rasterize(scene).serials, bits))
        except ValueError as exc:
            raise ValueError(f"{party}: {exc}") from None
    return PreparationSpec(*tables)


def run_protocol(scene_a: Scene, scene_b: Scene,
                 cfg: CountingConfig | None = None,
                 adversary: AdversaryStrategy = HONEST,
                 seed: int | None = None) -> ProtocolTranscript:
    """Execute one protocol run and return its transcript.

    ``seed`` starts the run's one generator, which drives every sampled
    choice: adversarial measurements, and in sample mode the check (one
    Bernoulli draw on its exact pass probability) and the counting
    outcome.  Identical inputs give identical transcripts.
    """
    return _run(build_preparation(scene_a, scene_b), scene_a.grid.total_cells,
                cfg, adversary, seed)


def _run(spec: PreparationSpec, total_cells: int, cfg: CountingConfig | None,
         adversary: AdversaryStrategy, seed: int | None) -> ProtocolTranscript:
    """``run_protocol`` on the spec of two scenes of ``total_cells`` cells."""
    cfg = cfg or CountingConfig()
    # Refuse an over-budget register before any state.
    plan_counting(spec, cfg)
    # An exact honest run draws nothing.
    rng = (np.random.default_rng(0 if seed is None else seed)
           if cfg.mode == "sample" or adversary.attack is not Attack.HONEST else None)
    steps: list[StepRecord] = []
    pass_prob, alice_state = _exchange(spec, adversary, rng, steps)
    if cfg.mode == "exact":
        passed = pass_prob >= 0.5
        check_detail: dict[str, Any] = {"pass_probability": float(pass_prob),
                                        "passed": passed}
    else:
        passed = rng.random() < pass_prob
        check_detail = {"passed": passed}
    steps.append(StepRecord(3, "alice", "uncompute_and_check",
                            detail=check_detail))

    verdict, estimate = Verdict.ABORT, None
    if passed:
        if adversary.attack is Attack.ALICE_MEASURE_RESULT:
            learned, alice_state = measure_register(alice_state, DATA_B, rng)
            steps.append(StepRecord(
                4, "alice", "attack:alice-measure-result",
                detail={"measured_xor_value": learned,
                        "note": "one address-pair xor; the raw serial stays hidden"}))
        estimate = phase_estimate(spec, cfg, initial_state=alice_state, rng=rng)
        verdict = decide_intersection(estimate)
        steps.append(StepRecord(
            4, "alice", "quantum_count",
            detail=dict(estimate.to_dict(),
                        note="counting runs on alice's side; she learns the count")))
        steps.append(StepRecord(5, "alice", "announce_verdict",
                                detail={"verdict": verdict.value}))

    transcript = ProtocolTranscript(
        steps=steps, verdict=verdict, estimate=estimate,
        cost=comm_cost(spec.table_a.size, spec.table_b.size, total_cells),
        adversary=adversary.label, seed=seed, mode=cfg.mode)
    transcript.validate()
    return transcript


def _exchange(spec: PreparationSpec, adversary: AdversaryStrategy,
              rng: np.random.Generator | None, steps: list[StepRecord]
              ) -> tuple[float, QuantumState | None]:
    """Steps 1 and 2, recorded in ``steps``, and Alice's check: its exact
    pass probability and the state Alice holds after it (``cheat_check``).
    A measurement draws from ``rng``; an over-wide mask is refused first."""
    mask = adversary.tamper_mask
    if adversary.attack is Attack.BOB_TAMPER and not 1 <= mask < 1 << spec.value_bits:
        raise ValueError(f"tamper mask {mask} does not fit in {spec.value_bits} data bits")
    alice = AliceParty(spec.table_a)
    message = alice.prepare_message()
    steps.append(StepRecord(1, "alice", "prepare_and_send",
                            qubits_sent=message.layout.total_qubits))

    if adversary.attack in (Attack.BOB_MEASURE_ALL, Attack.BOB_MEASURE_DATA):
        detail: dict[str, Any] = {}
        if adversary.attack is Attack.BOB_MEASURE_ALL:
            outcome, message = measure_register(message, ADDR_A, rng)
            detail["address_outcome"] = outcome
        outcome, message = measure_register(message, DATA_A, rng)
        detail["data_outcome"] = outcome
        steps.append(StepRecord(2, "bob", f"attack:{adversary.attack.value}",
                                detail=detail))

    joint = BobParty(spec.table_b).respond(message)
    if adversary.attack is Attack.BOB_TAMPER:
        joint = xor_register(joint, DATA_A, mask)
        steps.append(StepRecord(2, "bob", "attack:bob-tamper", detail={"mask": mask}))
    steps.append(StepRecord(2, "bob", "entangle_and_send",
                            qubits_sent=joint.layout.total_qubits))
    return cheat_check(joint, alice.table)


def detection_probability(scene_a: Scene, scene_b: Scene,
                          adversary: AdversaryStrategy = HONEST) -> float:
    """Exact probability that the data check catches the strategy.

    It is one minus the pass probability of the run's own exchange
    (``_exchange``) on the unmeasured message, honest or tampered.  A
    measurement attack needs no branch of its own: a computational-basis
    measurement followed only by steps that move branches can be deferred
    to the end (Nielsen & Chuang, section 4.4).  Tensoring, XOR loads and
    tampering send distinct branches to distinct indices (``xor_register``
    refuses a collision), so the images of the measurement's outcome
    branches stay disjoint and the check's failure mass on the whole
    message is the sum over outcomes of their Born weight times their
    failure probability.  Nothing is sampled.
    """
    return _detection(build_preparation(scene_a, scene_b), adversary.tamper_mask)


def _detection(spec: PreparationSpec, tamper_mask: int) -> float:
    """Failure probability of the run's own check under ``HONEST``, or under
    ``bob-tamper:tamper_mask`` when the mask is nonzero."""
    adversary = AdversaryStrategy(Attack.BOB_TAMPER, tamper_mask) if tamper_mask else HONEST
    return 1.0 - _exchange(spec, adversary, None, [])[0]
