"""Reversible data-loading and XOR oracles, and the joint-state pipeline.

A party's private set is a table of distinct grid serials.  Loading XORs
``table[i]`` into a data register addressed by ``i``; a second load
uncomputes it.  A party's message is built as one branch list with its
table already loaded.  ``prepare_joint`` is the parties' steps without
the measurement; Bob's data register holds the XOR of every pair, so a
zero there marks a matching pair of serials.

The joint layout, from low bits to high, is ``data_b, addr_b, data_a,
addr_a``: each party's address sits above its data, and Bob's registers
below Alice's.  With that order no step of a run reorders its branches,
for tables in any order.  A message's index is ``i << r | table[i]``,
increasing in i.  Bob's XOR changes only the lowest register, under a
distinct ``(addr_b, data_a, addr_a)`` per branch, and Alice's uncompute
or a tampering XOR changes ``data_a``, which is one value within each
``addr_a``.  So every map keeps the indices strictly increasing and
``QuantumState`` never sorts them.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .registers import QUBIT_BUDGET, RegisterLayout
from .state import QuantumState, project, tensor, xor_register

ADDR_A = "addr_a"
DATA_A = "data_a"
ADDR_B = "addr_b"
DATA_B = "data_b"


def address_bits(count: int) -> int:
    """Qubits needed to address ``count`` table rows; one qubit minimum."""
    if count < 1:
        raise ValueError(f"need at least one table entry, got {count}")
    return max(1, math.ceil(math.log2(count)))


def _serial(value) -> int:
    """A serial of any integer type, numpy's included, as an ``int``."""
    if type(value) is not bool:  # numpy's bool has no __index__
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"table entry {value!r} is not an integer")


@dataclass(frozen=True)
class DataTable:
    """Distinct grid serials, each representable in ``value_bits`` bits.

    Value 0 is reserved as the cleared marker, so entries live in
    [1, 2**value_bits - 1].  Each entry must be a Python ``int``; a float,
    string or bool is refused, not truncated.  ``size``, ``address_bits``
    and the read-only ``lookup`` are built with the table.
    """

    entries: tuple[int, ...]
    value_bits: int
    size: int = field(init=False, repr=False, compare=False)
    address_bits: int = field(init=False, repr=False, compare=False)
    lookup: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.value_bits < 1:
            raise ValueError(f"value_bits must be >= 1, got {self.value_bits}")
        entries = self.entries
        if len(entries) < 1:
            raise ValueError("a data table needs at least one entry")
        if set(map(type, entries)) != {int}:
            bad = next(e for e in entries if type(e) is not int)
            raise ValueError(f"table entry {bad!r} is not an integer")
        if len(set(entries)) != len(entries):
            raise ValueError("table entries must be pairwise distinct")
        top = (1 << self.value_bits) - 1
        if min(entries) < 1 or max(entries) > top:
            bad = next(e for e in entries if not 1 <= e <= top)
            raise ValueError(
                f"entry {bad} does not fit in {self.value_bits} value bits "
                f"(0 is reserved, max {top})")
        size = len(entries)
        bits = address_bits(size)
        # Addresses beyond the table hold 0.  Serials wider than int64 fit
        # no packed layout; held as Python ints, such a table still
        # reports its size and leakage.
        lookup = np.zeros(1 << bits, dtype=np.int64 if self.value_bits < 64 else object)
        lookup[:size] = entries
        lookup.flags.writeable = False
        self.__dict__.update(size=size, address_bits=bits, lookup=lookup)  # frozen

    @classmethod
    def from_serials(cls, serials, value_bits: int) -> "DataTable":
        """Table from serials of any integer type, numpy's included."""
        return cls(tuple(map(_serial, serials)), value_bits)


@dataclass(frozen=True)
class PreparationSpec:
    """Both parties' tables plus the register layout they load into."""

    table_a: DataTable
    table_b: DataTable

    def __post_init__(self):
        if self.table_a.value_bits != self.table_b.value_bits:
            raise ValueError(
                f"tables disagree on value bits: {self.table_a.value_bits} "
                f"vs {self.table_b.value_bits}")
        if self.size_k > 1 << QUBIT_BUDGET:  # one joint-state branch per pair
            raise ValueError(f"{self.table_a.size} x {self.table_b.size} = {self.size_k} "
                             f"table-row pairs exceed the cap of {1 << QUBIT_BUDGET}")

    @property
    def value_bits(self) -> int:
        return self.table_a.value_bits

    @property
    def size_k(self) -> int:
        """Search-space size: number of (i, j) table-row pairs."""
        return self.table_a.size * self.table_b.size

    def layout(self) -> RegisterLayout:
        return self._layout

    @functools.cached_property
    def _layout(self) -> RegisterLayout:
        # Built on first use, not with the spec: a spec whose layout
        # exceeds the packed-index width still reports its costs.
        r = self.value_bits
        return RegisterLayout(
            [(DATA_B, r), (ADDR_B, self.table_b.address_bits),
             (DATA_A, r), (ADDR_A, self.table_a.address_bits)])


def oracle_load(state: QuantumState, addr: str, data: str,
                table: DataTable) -> QuantumState:
    """XOR ``table[i]`` into the data register on every branch with address i.

    Addresses beyond the table pass through unchanged.  Self-inverse, so the
    same call also uncomputes a previously loaded table.
    """
    layout = state.layout
    if layout.width(addr) != table.address_bits:
        raise ValueError(
            f"register {addr} has width {layout.width(addr)}, table with "
            f"{table.size} entries needs {table.address_bits}")
    if layout.width(data) != table.value_bits:
        raise ValueError(
            f"register {data} has width {layout.width(data)}, table values "
            f"need {table.value_bits}")
    return xor_register(state, data, table.lookup[state.register_values(addr)])


def oracle_xor(state: QuantumState, src: str, dst: str) -> QuantumState:
    """XOR the source register into the destination on every branch."""
    layout = state.layout
    if layout.width(src) != layout.width(dst):
        raise ValueError(
            f"register widths differ: {src} is {layout.width(src)}, "
            f"{dst} is {layout.width(dst)}")
    if src == dst:
        raise ValueError(f"cannot XOR register {src} into itself")
    return xor_register(state, dst, state.register_values(src))


def prepare_encoded(table: DataTable, addr: str, data: str) -> QuantumState:
    """A party's message (1/sqrt(M)) sum_i |i>|table[i]> as one branch list: bit
    for bit what loading the table into a uniform superposition of M addresses gives.

    The address register lies above the data, so the indices
    ``i << r | table[i]`` increase with i for a table in any order.
    """
    r = table.value_bits
    layout = RegisterLayout([(data, r), (addr, table.address_bits)])
    indices = table.lookup[:table.size] | (np.arange(table.size) << r)
    values = np.empty(table.size, dtype=np.complex128)
    values.fill(1 / math.sqrt(table.size))
    return QuantumState.from_branches(layout, indices, values)


def respond(message: QuantumState, table_b: DataTable) -> QuantumState:
    """Bob's step: his own message tensored below the one that arrives,
    then Alice's data register XORed into his.

    The XOR changes Bob's data register, the lowest, and each branch
    holds a distinct value of the registers above it, so the branches
    keep their order.
    """
    own = prepare_encoded(table_b, ADDR_B, DATA_B)
    return oracle_xor(tensor(own, message), DATA_A, DATA_B)


def prepare_joint(spec: PreparationSpec) -> QuantumState:
    """The parties' steps without the measurement: every address pair (i, j)
    at amplitude 1/sqrt(size_k), Alice's data register cleared and Bob's
    holding table_a[i] ^ table_b[j]."""
    message = prepare_encoded(spec.table_a, ADDR_A, DATA_A)
    # Nested, so no K-branch state outlives the step it feeds.
    return oracle_load(respond(message, spec.table_b), ADDR_A, DATA_A, spec.table_a)


def cheat_check(state: QuantumState, table_a: DataTable
                ) -> tuple[float, QuantumState | None]:
    """Uncompute Alice's data register and measure it; 0 means clean.

    Returns the exact pass probability and the state collapsed onto the
    passing outcome (``None`` if passing is impossible); no other outcome
    is collapsed.  A sampled check is one Bernoulli(pass probability)
    draw, which the caller makes.
    """
    return project(oracle_load(state, ADDR_A, DATA_A, table_a), DATA_A, 0)


__all__ = [
    "ADDR_A", "DATA_A", "ADDR_B", "DATA_B",
    "DataTable", "PreparationSpec", "address_bits",
    "oracle_load", "oracle_xor", "prepare_encoded", "respond",
    "prepare_joint", "cheat_check",
]
