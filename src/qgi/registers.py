"""Named qubit registers packed into one basis-index space.

Packing convention (used by every module in this package): the first
register in a layout occupies the least-significant bits of a basis
index, and each subsequent register the next ``width`` bits up.  A
register of width w holding value v contributes ``v << offset`` to the
index, with ``offset`` the sum of the widths of all earlier registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

QUBIT_BUDGET = 24  # qubits a dense array may span: up to 2**24 entries
PACKED_QUBITS = 63  # basis indices are packed into int64


def check_budget(qubits: int, what: str):
    """Refuse an array of 2**qubits entries above the budget."""
    if qubits > QUBIT_BUDGET:
        raise ValueError(f"{what} of {qubits} qubits exceeds the cap of {QUBIT_BUDGET}")


@dataclass(frozen=True)
class Register:
    name: str
    width: int
    offset: int

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1


class RegisterLayout:
    """Ordered, non-overlapping named registers with fixed bit offsets.

    Interned: the same ``(name, width)`` pairs give one object, equal only to itself."""

    _interned: dict[tuple[tuple[str, int], ...], "RegisterLayout"] = {}

    def __new__(cls, registers: Iterable[tuple[str, int]]):
        key = tuple(registers)
        for name, width in key:  # before the cache: 2.0 and True hash as 2 and 1
            if type(width) is not int or width < 1:
                raise ValueError(f"register {name!r} needs a width >= 1, got {width!r}")
        interned = cls._interned.get(key)
        if interned is not None:
            return interned
        regs = []
        offset = 0
        seen = set()
        for name, width in key:
            if name in seen:
                raise ValueError(f"duplicate register name {name!r}")
            seen.add(name)
            regs.append(Register(name, width, offset))
            offset += width
        if not regs:
            raise ValueError("a layout needs at least one register")
        if offset > PACKED_QUBITS:
            raise ValueError(f"layout requires {offset} qubits, exceeding the "
                             f"{PACKED_QUBITS} that int64 basis indices hold")
        self = super().__new__(cls)
        self._key = key
        self._registers: tuple[Register, ...] = tuple(regs)
        self._by_name = {r.name: r for r in regs}
        self.total_qubits = offset
        self.dim = 1 << offset
        return cls._interned.setdefault(key, self)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self._registers)

    def register(self, name: str) -> Register:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no register named {name!r}; have {list(self.names)}") from None

    def width(self, name: str) -> int:
        return self.register(name).width

    def offset(self, name: str) -> int:
        return self.register(name).offset

    def extract(self, index, name: str):
        """Value of a register inside a basis index (scalar or ndarray)."""
        reg = self.register(name)
        return (index >> reg.offset if reg.offset else index) & reg.mask

    def pack(self, assignment: Mapping[str, int]) -> int:
        """Basis index for the given register values; omitted registers are 0."""
        index = 0
        for name, value in assignment.items():
            reg = self.register(name)
            if not 0 <= value <= reg.mask:
                raise ValueError(
                    f"value {value} exceeds register {name} width {reg.width}")
            index |= value << reg.offset
        return index

    def concat(self, other: "RegisterLayout") -> "RegisterLayout":
        """Layout with ``other``'s registers above this layout's."""
        return RegisterLayout(self._key + other._key)

    def index_values(self, name: str) -> np.ndarray:
        """Register value at every basis index, as an int64 array of length dim."""
        check_budget(self.total_qubits, "dense view")
        return self.extract(np.arange(self.dim, dtype=np.int64), name)

    def __repr__(self) -> str:
        inner = ", ".join(f"{r.name}:{r.width}" for r in self._registers)
        return f"RegisterLayout({inner})"
