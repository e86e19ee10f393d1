import re

import numpy as np
import pytest

from qgi import RegisterLayout
from support import basis_state, unpack


def test_first_register_takes_least_significant_bits():
    layout = RegisterLayout([("addr_a", 2), ("data_a", 4), ("addr_b", 2)])
    assert layout.offset("addr_a") == 0
    assert layout.offset("data_a") == 2
    assert layout.offset("addr_b") == 6
    assert layout.total_qubits == 8
    assert layout.dim == 256


def test_pack_and_unpack_round_trip():
    layout = RegisterLayout([("a", 2), ("b", 3)])
    for index in range(layout.dim):
        assert layout.pack(unpack(layout, index)) == index


def test_pack_rejects_out_of_range_value():
    layout = RegisterLayout([("a", 2)])
    with pytest.raises(ValueError, match="value 7 exceeds register a width 2"):
        layout.pack({"a": 7})


def test_extract_is_vectorized():
    layout = RegisterLayout([("a", 2), ("b", 2)])
    values = layout.extract(np.arange(16), "b")
    assert list(values) == [i >> 2 for i in range(16)]
    assert list(layout.index_values("a")) == [i & 3 for i in range(16)]


def test_duplicate_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        RegisterLayout([("a", 2), ("a", 3)])


def test_zero_width_rejected():
    with pytest.raises(ValueError, match="width"):
        RegisterLayout([("a", 0)])


def test_qubit_cap_enforced():
    # Packed int64 indices bound the layout; the budget bounds dense views.
    with pytest.raises(ValueError, match="64 qubits"):
        RegisterLayout([("a", 32), ("b", 32)])
    RegisterLayout([("a", 31), ("b", 32)])
    state = basis_state(RegisterLayout([("a", 25)]), {"a": 3})
    with pytest.raises(ValueError, match="dense view of 25 qubits exceeds the cap of 24"):
        state.amplitudes


def test_unknown_register_lookup():
    layout = RegisterLayout([("a", 2)])
    with pytest.raises(KeyError, match="no register named 'b'"):
        layout.width("b")


def test_concat_preserves_order():
    layout = RegisterLayout([("a", 2), ("b", 3)])
    other = RegisterLayout([("c", 1)])
    combined = layout.concat(other)
    assert combined.names == ("a", "b", "c")
    assert combined.offset("c") == 5


def test_layout_equality():
    one = RegisterLayout([("a", 2), ("b", 1)])
    two = RegisterLayout([("a", 2), ("b", 1)])
    assert one == two
    assert one != RegisterLayout([("b", 1), ("a", 2)])


def test_layouts_are_interned():
    layout = RegisterLayout([("a", 2), ("b", 1)])
    assert RegisterLayout([("a", 2), ("b", 1)]) is layout
    assert RegisterLayout([("a", 2)]).concat(RegisterLayout([("b", 1)])) is layout
    assert RegisterLayout([("a", 2), ("b", 2)]) is not layout


def test_interning_does_not_bypass_validation():
    # 2.0 == 2 would find the interned layout; a layout that fails stays out.
    RegisterLayout([("a", 2)])
    with pytest.raises(ValueError, match="needs a width >= 1, got 2.0"):
        RegisterLayout([("a", 2.0)])
    # True == 1 would find a 1-qubit layout; np.int64(2) is no Python int.
    RegisterLayout([("zz", 1)])
    for bad in ([("zz", True)], [("a", np.int64(2))]):
        with pytest.raises(ValueError, match=re.escape(f"got {bad[0][1]!r}")):
            RegisterLayout(bad)
    for bad in ([("x", 2), ("x", 3)], [("x", 32), ("y", 32)]):
        with pytest.raises(ValueError):
            RegisterLayout(bad)
        assert tuple(bad) not in RegisterLayout._interned
