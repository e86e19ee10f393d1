"""Branch-list operations against brute-force dense references.

Each reference moves every basis index of a dense vector by hand, so it
shares no code with the branch engine beyond the register layout.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qgi import (ADDR_A, ADDR_B, DATA_A, DATA_B, DataTable, PreparationSpec,
                 RegisterLayout, oracle_load, oracle_xor, prepare_joint, tensor)
from qgi.state import xor_register
from support import (basis_state, measure_distribution, prepare_uniform,
                     random_state, unpack)

TOL = 1e-12


@st.composite
def tables(draw):
    bits = draw(st.integers(1, 4))
    entries = draw(st.lists(st.integers(1, (1 << bits) - 1), min_size=1,
                            max_size=min(4, (1 << bits) - 1), unique=True))
    return DataTable(tuple(entries), bits)


seeds = st.integers(0, 2 ** 32 - 1)


def moved(state, move):
    """Dense reference: amplitude at index x goes to index move(x)."""
    out = np.zeros(state.layout.dim, dtype=complex)
    for index in range(state.layout.dim):
        out[move(index)] += state.amplitudes[index]
    return out


def assert_close(state, expected):
    assert np.max(np.abs(state.amplitudes - expected)) < TOL
    assert np.all(np.diff(state.indices) > 0)


@settings(max_examples=40, deadline=None)
@given(table=tables(), seed=seeds)
def test_oracle_load_matches_reference(table, seed):
    # A spare register above the pair checks that other registers pass through.
    layout = RegisterLayout([(ADDR_A, table.address_bits),
                             (DATA_A, table.value_bits), ("spare", 1)])
    state = random_state(layout, np.random.default_rng(seed))

    def move(index):
        values = unpack(layout, index)
        if values[ADDR_A] < table.size:
            values[DATA_A] ^= table.entries[values[ADDR_A]]
        return layout.pack(values)

    assert_close(oracle_load(state, ADDR_A, DATA_A, table), moved(state, move))


@settings(max_examples=40, deadline=None)
@given(bits=st.integers(1, 4), seed=seeds)
def test_oracle_xor_matches_reference(bits, seed):
    layout = RegisterLayout([(DATA_A, bits), (ADDR_B, 1), (DATA_B, bits)])
    state = random_state(layout, np.random.default_rng(seed))

    def move(index):
        values = unpack(layout, index)
        values[DATA_B] ^= values[DATA_A]
        return layout.pack(values)

    assert_close(oracle_xor(state, DATA_A, DATA_B), moved(state, move))


@settings(max_examples=40, deadline=None)
@given(bits=st.integers(1, 4), data=st.data(), seed=seeds)
def test_tamper_xor_matches_reference(bits, data, seed):
    mask = data.draw(st.integers(1, (1 << bits) - 1))
    layout = RegisterLayout([(ADDR_A, 2), (DATA_A, bits), (DATA_B, bits)])
    state = random_state(layout, np.random.default_rng(seed))

    def move(index):
        values = unpack(layout, index)
        values[DATA_A] ^= mask
        return layout.pack(values)

    assert_close(xor_register(state, DATA_A, mask), moved(state, move))


def around_cleared(reg, width, gen, low_bits=2):
    """Random registers below and above a register cleared to 0."""
    low = random_state(RegisterLayout([("low", low_bits)]), gen)
    high = random_state(RegisterLayout([("high", 1)]), gen)
    return tensor(low, tensor(basis_state(RegisterLayout([(reg, width)])), high))


@settings(max_examples=40, deadline=None)
@given(width=st.integers(1, 3), data=st.data(), seed=seeds)
def test_prepare_uniform_matches_reference(width, data, seed):
    count = data.draw(st.integers(1, 1 << width))
    cleared = around_cleared(ADDR_A, width, np.random.default_rng(seed))
    layout = cleared.layout
    expected = np.zeros(layout.dim, dtype=complex)
    for index in range(layout.dim):
        if layout.extract(index, ADDR_A) == 0:
            for k in range(count):
                target = index | (k << layout.offset(ADDR_A))
                expected[target] += cleared.amplitudes[index] / math.sqrt(count)
    assert_close(prepare_uniform(cleared, ADDR_A, count), expected)


@settings(max_examples=40, deadline=None)
@given(low_bits=st.integers(1, 3), high_bits=st.integers(1, 3), seed=seeds)
def test_tensor_matches_reference(low_bits, high_bits, seed):
    gen = np.random.default_rng(seed)
    low = random_state(RegisterLayout([("a", low_bits)]), gen)
    high = random_state(RegisterLayout([("b", high_bits)]), gen)
    expected = np.zeros(1 << (low_bits + high_bits), dtype=complex)
    for h in range(1 << high_bits):
        for lo in range(1 << low_bits):
            expected[(h << low_bits) | lo] = high.amplitudes[h] * low.amplitudes[lo]
    assert_close(tensor(low, high), expected)


@settings(max_examples=40, deadline=None)
@given(table=tables(), reg=st.sampled_from([ADDR_A, DATA_A]), seed=seeds)
def test_measure_distribution_matches_reference(table, reg, seed):
    # Random addresses with the table loaded beside them: data values
    # outside the table carry no weight at all.
    addresses = random_state(RegisterLayout([(ADDR_A, table.address_bits)]),
                             np.random.default_rng(seed))
    cleared = tensor(addresses, basis_state(RegisterLayout([(DATA_A, table.value_bits)])))
    state = oracle_load(cleared, ADDR_A, DATA_A, table)
    layout = state.layout
    reachable = measure_distribution(state, reg)
    expected = np.zeros(1 << layout.width(reg))
    for index in range(layout.dim):
        expected[layout.extract(index, reg)] += abs(state.amplitudes[index]) ** 2
    assert set(reachable) == {v for v, p in enumerate(expected) if p >= 1e-15}
    for value, (prob, post) in reachable.items():
        assert abs(prob - expected[value]) < TOL
        keep = layout.index_values(reg) == value
        reference = np.where(keep, state.amplitudes, 0) / math.sqrt(expected[value])
        assert_close(post, reference)


def test_branch_count_of_the_joint_state_is_the_pair_count():
    spec = PreparationSpec(DataTable((1, 2, 5, 6), 4), DataTable((6, 7, 10), 4))
    state = prepare_joint(spec)
    assert len(state.indices) == spec.size_k
    assert np.all(state.register_values(DATA_A) == 0)
    assert set(state.register_values(ADDR_B).tolist()) == {0, 1, 2}
