"""Shared helpers for the test suite."""

import math
from typing import Mapping

import numpy as np

from qgi import (ADDR_A, ADDR_B, DATA_A, DATA_B, HONEST, Attack, DataTable,
                 PreparationSpec, QuantumState, RegisterLayout,
                 build_preparation, cheat_check, oracle_load, oracle_xor,
                 prepare_joint)
from qgi.protocol import AliceParty, BobParty, _check_mask, _tamper
from qgi.state import project, reflect, register_distribution


# Scene documents the parser refuses, with the reason it gives: a field
# the format does not define, and a shape that is both a rectangle and a
# cell list.
GRID4 = {"rows": 4, "cols": 4}
MALFORMED_SCENES = [
    ({"grid": GRID4, "shapes": [{"rect": [0, 0, 0, 0], "cells": [7]}],
      "colour": "red"},
     'scene has unknown field "colour"; expected grid, shapes, cells'),
    ({"grid": GRID4, "cell": [7]},
     'scene has unknown field "cell"; expected grid, shapes, cells'),
    ({"grid": dict(GRID4, colour="red"), "cells": [7]},
     'grid has unknown field "colour"; expected rows, cols'),
    ({"grid": GRID4, "shapes": [{"rect": [0, 0, 0, 0]}, {"cell": [7]}]},
     'shapes[1] has unknown field "cell"; expected rect, cells'),
    ({"grid": GRID4, "shapes": [{"rect": [0, 0, 0, 0], "cells": [7]}]},
     'shapes[0] has both "rect" and "cells"; give one per shape'),
]


def dense_state(layout, amplitudes) -> QuantumState:
    """State holding the nonzero entries of a dense amplitude vector."""
    amplitudes = np.asarray(amplitudes, dtype=np.complex128)
    support = np.flatnonzero(amplitudes)
    return QuantumState.from_branches(layout, support, amplitudes[support])


def random_state(layout, rng) -> QuantumState:
    vec = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return dense_state(layout, vec / np.linalg.norm(vec))


def random_spec(rng, value_bits=4, max_size=4) -> PreparationSpec:
    top = (1 << value_bits) - 1
    size_a = int(rng.integers(1, max_size + 1))
    size_b = int(rng.integers(1, max_size + 1))
    entries_a = rng.choice(np.arange(1, top + 1), size=size_a, replace=False)
    entries_b = rng.choice(np.arange(1, top + 1), size=size_b, replace=False)
    return PreparationSpec(DataTable.from_serials(entries_a, value_bits),
                           DataTable.from_serials(entries_b, value_bits))


def xor_pairs(entries_a, entries_b) -> dict[tuple[int, int], int]:
    """Brute-force table of a[i] ^ b[j] over every address pair."""
    return {(i, j): a ^ b
            for i, a in enumerate(entries_a)
            for j, b in enumerate(entries_b)}


def basis_state(layout: RegisterLayout,
                assignment: Mapping[str, int] | None = None) -> QuantumState:
    """Computational basis state; unassigned registers default to 0."""
    return QuantumState.from_branches(layout, [layout.pack(assignment or {})], [1.0])


def prepare_uniform(state: QuantumState, reg: str, count: int) -> QuantumState:
    """Spread a cleared register uniformly over its first ``count`` values."""
    layout = state.layout
    register = layout.register(reg)
    if count < 1:
        raise ValueError(f"cannot prepare a superposition over {count} values")
    if count > (1 << register.width):
        raise ValueError(
            f"count {count} exceeds the {1 << register.width} values of "
            f"register {reg}")
    cleared = state.register_values(reg) == 0
    residual = np.sum(state.branch_probabilities()[~cleared])
    if residual > 1e-12:
        raise ValueError(
            f"register {reg} must be 0 in every branch before preparation "
            f"(found probability mass {residual!r} elsewhere)")
    # Spread-major: sorted already when the register lies above the branches' set bits.
    spread = np.arange(count, dtype=np.int64) << register.offset
    indices = spread[:, None] | state.indices[cleared][None, :]
    values = np.empty(indices.shape, dtype=np.complex128)
    values[:] = state.values[cleared] / math.sqrt(count)
    return QuantumState.from_branches(layout, indices.ravel(), values.ravel())


def staged_encoded(table: DataTable, addr: str, data: str) -> QuantumState:
    """A party's message by the literal staging: the cleared registers,
    a uniform superposition of the first M addresses, then the table
    loaded beside them.  The address lies above the data."""
    layout = RegisterLayout([(data, table.value_bits), (addr, table.address_bits)])
    state = prepare_uniform(basis_state(layout), addr, table.size)
    return oracle_load(state, addr, data, table)


def staged_joint(spec: PreparationSpec) -> QuantumState:
    """The joint preparation by the literal seven-step staging on one layout."""
    state = basis_state(spec.layout())
    state = prepare_uniform(state, ADDR_A, spec.table_a.size)
    state = oracle_load(state, ADDR_A, DATA_A, spec.table_a)
    state = prepare_uniform(state, ADDR_B, spec.table_b.size)
    state = oracle_load(state, ADDR_B, DATA_B, spec.table_b)
    state = oracle_xor(state, DATA_A, DATA_B)
    return oracle_load(state, ADDR_A, DATA_A, spec.table_a)


def dense_circuit_distribution(spec, bits, initial) -> np.ndarray:
    """Phase-estimation outcome distribution from the literal dense circuit.

    Every row G^z |initial> spans all 2^data basis states: S is a dense
    sign vector over the layout and the reflection uses the dense
    preparation.  The inverse Fourier transform acts on the counting index.
    """
    size = 1 << bits
    layout = spec.layout()
    axis = prepare_joint(spec).amplitudes
    signs = np.where(layout.index_values(DATA_B) == 0, -1.0, 1.0)
    rows = np.empty((size, layout.dim), dtype=np.complex128)
    current = initial.amplitudes.copy()
    for z in range(size):
        rows[z] = current
        if z + 1 < size:
            flipped = current * signs
            current = 2.0 * np.vdot(axis, flipped) * axis - flipped
    transformed = np.fft.fft(rows, axis=0) / size
    return np.sum(np.abs(transformed) ** 2, axis=1)


def loop_circuit_distribution(iterate, bits, initial) -> np.ndarray:
    """The ``circuit`` engine with H = Q^H G Q built one column at a time.

    Each column of the basis Q is flipped and reflected on its own, then
    the columns are stacked: the per-column form of the engine's one
    matrix-valued reflection.
    """
    size = 1 << bits
    _, current, axis, signs = iterate.on_support(initial)
    head = min(size, 4)
    head_rows = np.empty((len(current), head), dtype=np.complex128)
    head_rows[:, 0] = current
    for z in range(1, head):
        head_rows[:, z] = current = reflect(current * signs, axis)
    basis, head_coords = np.linalg.qr(head_rows)
    coords = np.zeros((size, basis.shape[1]), dtype=np.complex128)
    coords[:head] = head_coords.T
    if size > head:
        step = basis.conj().T @ np.column_stack(
            [reflect(column * signs, axis) for column in basis.T])
        power = step @ step
        for j in range(2, bits):
            power = power @ power
            coords[1 << j:2 << j] = coords[:1 << j] @ power.T
    return (np.abs(np.fft.fft(coords, axis=0)) ** 2).sum(axis=1) / size ** 2


def encoded_gram(table: DataTable) -> np.ndarray:
    """Gram matrix sqrt(p_i p_j) <psi_i|psi_j> of the equal-weight
    ensemble of encoded rows |i>|table[i]>.

    It has the nonzero spectrum of the ensemble average (Jozsa & Schlienz,
    Phys. Rev. A 62, 012301), so its entropy is the ensemble's.
    """
    layout = RegisterLayout([(ADDR_A, table.address_bits),
                             (DATA_A, table.value_bits)])
    rows = np.array([layout.pack({ADDR_A: i, DATA_A: entry})
                     for i, entry in enumerate(table.entries)])
    return (rows[:, None] == rows[None, :]) / table.size


def gram_entropy(table: DataTable) -> float:
    """Ensemble entropy in bits from the dense Gram spectrum: the reference
    for ``leakage_report``.  Eigenvalues at or below 1e-12 are dropped."""
    eig = np.linalg.eigvalsh(encoded_gram(table))
    eig = eig[eig > 1e-12]
    # 0.0 - x, not -x: a pure state's sum is +0.0 and must not print as -0.0.
    return float(0.0 - np.sum(eig * np.log2(eig)))


def measure_distribution(state, reg) -> dict[int, tuple[float, QuantumState]]:
    """Probability and collapsed state of every outcome whose collapse is
    defined (probability at or above ``COLLAPSE_FLOOR``)."""
    outcomes, _ = register_distribution(state, reg)
    reachable = {}
    for outcome in outcomes.tolist():
        prob, post = project(state, reg, outcome)
        if post is not None:
            reachable[outcome] = (prob, post)
    return reachable


def expanded_detection_probability(scene_a, scene_b, adversary=HONEST) -> float:
    """Detection probability by literal branch expansion.

    Bob's measurements split the message into every outcome branch with
    its Born weight, and Bob's response and Alice's check run once per
    branch.  ``detection_probability`` must equal this sum.
    """
    spec, _, _ = build_preparation(scene_a, scene_b)
    alice = AliceParty(spec.table_a)
    bob = BobParty(spec.table_b)
    branches = [(1.0, alice.prepare_message())]
    if adversary.attack in (Attack.BOB_MEASURE_ALL, Attack.BOB_MEASURE_DATA):
        regs = ([ADDR_A, DATA_A] if adversary.attack is Attack.BOB_MEASURE_ALL
                else [DATA_A])
        for reg in regs:
            branches = [(prob * sub_prob, sub)
                        for prob, st in branches
                        for sub_prob, sub in measure_distribution(st, reg).values()]
    if adversary.attack is Attack.BOB_TAMPER:
        _check_mask(adversary.tamper_mask, spec.value_bits)
    failure = 0.0
    for prob, st in branches:
        joint = bob.respond(st)
        if adversary.attack is Attack.BOB_TAMPER:
            joint = _tamper(joint, adversary.tamper_mask)
        pass_prob, _ = cheat_check(joint, spec.table_a)
        failure += prob * (1.0 - pass_prob)
    return failure
