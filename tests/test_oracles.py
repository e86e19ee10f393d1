import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgi import (ADDR_A, ADDR_B, DATA_A, DATA_B, DataTable, PreparationSpec,
                 QuantumState, RegisterLayout, address_bits, cheat_check,
                 oracle_load, oracle_xor, prepare_encoded, prepare_joint, tensor)
from qgi.protocol import _detection
from support import (basis_state, prepare_uniform, random_state,
                     staged_encoded, staged_joint, xor_pairs)

WORKED_A = (1, 2, 5, 6)
WORKED_B = (6, 7, 10, 11)


def worked_spec():
    return PreparationSpec(DataTable(WORKED_A, 4), DataTable(WORKED_B, 4))


def tables(value_bits=4, max_size=8):
    return st.lists(st.integers(1, (1 << value_bits) - 1), min_size=1,
                    max_size=max_size, unique=True).map(
                        lambda entries: DataTable(tuple(entries), value_bits))


@st.composite
def wide_tables(draw, value_bits=None):
    """Tables of 1 to 64 entries in 1 to 12 value bits, in drawn or sorted order."""
    bits = value_bits or draw(st.integers(1, 12))
    top = (1 << bits) - 1
    size = draw(st.integers(1, min(top, 64)))
    entries = draw(st.lists(st.integers(1, top), min_size=size, max_size=size,
                            unique=True))
    if draw(st.booleans()):
        entries.sort()
    return DataTable(tuple(entries), bits)


def assert_same_state(built, staged):
    assert built.layout == staged.layout
    assert np.array_equal(built.indices, staged.indices)
    assert np.array_equal(built.values, staged.values)


class TestDataTable:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            DataTable((3, 3), 4)

    def test_rejects_zero_and_overflow(self):
        with pytest.raises(ValueError, match="0 is reserved"):
            DataTable((0,), 4)
        with pytest.raises(ValueError, match="does not fit in 4"):
            DataTable((16,), 4)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one entry"):
            DataTable((), 4)

    @pytest.mark.parametrize("bad", [1.5, 2.0, "3", True, np.int64(3)])
    def test_rejects_entries_that_are_not_ints(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"table entry {bad!r} is not")):
            DataTable((bad, 5), 3)

    @pytest.mark.parametrize("bad", [1.9, 2.0, "3", True, np.True_, np.float64(2)])
    def test_from_serials_refuses_what_is_not_an_integer(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"table entry {bad!r} is not")):
            DataTable.from_serials([5, bad], 3)

    def test_from_serials_takes_numpy_integers(self):
        table = DataTable.from_serials(np.array([6, 1, 3], dtype=np.uint8), 3)
        assert table.entries == (6, 1, 3)
        assert all(type(e) is int for e in table.entries)
        assert table == DataTable((6, 1, 3), 3)

    def test_serials_wider_than_int64_still_make_a_table(self):
        # No packed layout holds them, but size and leakage need none.
        table = DataTable((1 << 70, 3), 80)
        assert (table.size, table.lookup[0]) == (2, 1 << 70)

    def test_derived_fields_are_built_with_the_table(self):
        table = DataTable((6, 1, 3), 3)
        assert (table.size, table.address_bits) == (3, 2)
        assert table.lookup.tolist() == [6, 1, 3, 0]
        assert not table.lookup.flags.writeable
        assert hash(table) == hash(DataTable((6, 1, 3), 3))
        assert repr(table) == "DataTable(entries=(6, 1, 3), value_bits=3)"

    @pytest.mark.parametrize("count, bits",
                             [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3)])
    def test_address_bits(self, count, bits):
        assert address_bits(count) == bits


class TestPrepareUniform:
    def test_full_width_superposition(self):
        layout = RegisterLayout([(ADDR_A, 2), (DATA_A, 4)])
        state = prepare_uniform(basis_state(layout), ADDR_A, 4)
        for i in range(4):
            assert abs(state.amplitudes[layout.pack({ADDR_A: i})] - 0.5) < 1e-12

    def test_count_one_keeps_register_cleared(self):
        layout = RegisterLayout([(ADDR_A, 2)])
        state = prepare_uniform(basis_state(layout), ADDR_A, 1)
        assert state.amplitudes[0] == 1.0

    def test_partial_count_normalizes(self):
        layout = RegisterLayout([(ADDR_A, 2)])
        state = prepare_uniform(basis_state(layout), ADDR_A, 3)
        expected = 1 / math.sqrt(3)
        assert np.allclose(state.amplitudes[:3], expected, atol=1e-12)
        assert state.amplitudes[3] == 0.0
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-12

    def test_rejects_zero_count_and_overflow(self):
        layout = RegisterLayout([(ADDR_A, 2)])
        with pytest.raises(ValueError, match="over 0 values"):
            prepare_uniform(basis_state(layout), ADDR_A, 0)
        with pytest.raises(ValueError, match="exceeds"):
            prepare_uniform(basis_state(layout), ADDR_A, 5)

    def test_rejects_register_not_cleared(self):
        layout = RegisterLayout([(ADDR_A, 2)])
        state = basis_state(layout, {ADDR_A: 1})
        with pytest.raises(ValueError, match="must be 0 in every branch"):
            prepare_uniform(state, ADDR_A, 2)


class TestOracleLoad:
    def test_loads_table_into_uniform_superposition(self):
        layout = RegisterLayout([(ADDR_A, 2), (DATA_A, 4)])
        state = prepare_uniform(basis_state(layout), ADDR_A, 4)
        loaded = oracle_load(state, ADDR_A, DATA_A, DataTable(WORKED_A, 4))
        expected = np.zeros(layout.dim, dtype=complex)
        for i, a in enumerate(WORKED_A):
            expected[layout.pack({ADDR_A: i, DATA_A: a})] = 0.5
        assert np.max(np.abs(loaded.amplitudes - expected)) < 1e-12

    def test_uncomputes_collapsed_branch(self):
        layout = RegisterLayout([(ADDR_A, 2), (DATA_A, 4)])
        state = basis_state(layout, {ADDR_A: 3, DATA_A: 6})
        cleared = oracle_load(state, ADDR_A, DATA_A, DataTable(WORKED_A, 4))
        assert cleared.amplitudes[layout.pack({ADDR_A: 3, DATA_A: 0})] == 1.0

    @settings(max_examples=30, deadline=None)
    @given(table=tables())
    def test_double_load_is_identity(self, table):
        layout = RegisterLayout([(ADDR_A, table.address_bits),
                                 (DATA_A, table.value_bits)])
        state = random_state(layout, np.random.default_rng(5))
        twice = oracle_load(oracle_load(state, ADDR_A, DATA_A, table),
                            ADDR_A, DATA_A, table)
        assert np.max(np.abs(twice.amplitudes - state.amplitudes)) < 1e-12

    def test_addresses_beyond_table_pass_through(self):
        layout = RegisterLayout([(ADDR_A, 2), (DATA_A, 4)])
        table = DataTable((9, 4, 2), 4)
        state = basis_state(layout, {ADDR_A: 3, DATA_A: 5})
        out = oracle_load(state, ADDR_A, DATA_A, table)
        assert out.amplitudes[layout.pack({ADDR_A: 3, DATA_A: 5})] == 1.0

    def test_width_mismatch_rejected(self):
        layout = RegisterLayout([(ADDR_A, 3), (DATA_A, 4)])
        with pytest.raises(ValueError, match="width"):
            oracle_load(basis_state(layout), ADDR_A, DATA_A, DataTable(WORKED_A, 4))
        layout = RegisterLayout([(ADDR_A, 2), (DATA_A, 5)])
        with pytest.raises(ValueError, match="width"):
            oracle_load(basis_state(layout), ADDR_A, DATA_A, DataTable(WORKED_A, 4))


class TestOracleXor:
    def test_xor_on_single_branch(self):
        spec = worked_spec()
        layout = spec.layout()
        state = basis_state(layout, {ADDR_A: 0, DATA_A: 1, ADDR_B: 0, DATA_B: 6})
        out = oracle_xor(state, DATA_A, DATA_B)
        target = layout.pack({ADDR_A: 0, DATA_A: 1, ADDR_B: 0, DATA_B: 7})
        assert out.amplitudes[target] == 1.0

    def test_xor_of_equal_values_clears_target(self):
        spec = worked_spec()
        layout = spec.layout()
        state = basis_state(layout, {ADDR_A: 3, DATA_A: 6, ADDR_B: 0, DATA_B: 6})
        out = oracle_xor(state, DATA_A, DATA_B)
        target = layout.pack({ADDR_A: 3, DATA_A: 6, ADDR_B: 0, DATA_B: 0})
        assert out.amplitudes[target] == 1.0

    def test_double_xor_is_identity(self, rng):
        layout = worked_spec().layout()
        state = random_state(layout, rng)
        twice = oracle_xor(oracle_xor(state, DATA_A, DATA_B), DATA_A, DATA_B)
        assert np.max(np.abs(twice.amplitudes - state.amplitudes)) < 1e-12

    def test_xor_into_the_source_itself_rejected(self):
        # A register XORed into itself would clear it: not a bijection.
        state = basis_state(worked_spec().layout(), {DATA_A: 6})
        with pytest.raises(ValueError, match="^cannot XOR register data_a into itself$"):
            oracle_xor(state, DATA_A, DATA_A)

    def test_width_mismatch_rejected(self):
        layout = RegisterLayout([(DATA_A, 4), (DATA_B, 3)])
        with pytest.raises(ValueError, match="widths differ"):
            oracle_xor(basis_state(layout), DATA_A, DATA_B)


def honest_message_state(spec):
    """The state Bob returns: both tables loaded, Bob's registers below
    Alice's, and the XOR applied."""
    alice = prepare_encoded(spec.table_a, ADDR_A, DATA_A)
    bob = prepare_encoded(spec.table_b, ADDR_B, DATA_B)
    return oracle_xor(tensor(bob, alice), DATA_A, DATA_B)


class TestPrepareJoint:
    def test_worked_example_matches_brute_force(self):
        spec = worked_spec()
        layout = spec.layout()
        state = prepare_joint(spec)
        expected = np.zeros(layout.dim, dtype=complex)
        for (i, j), xor in xor_pairs(WORKED_A, WORKED_B).items():
            expected[layout.pack({ADDR_A: i, DATA_A: 0, ADDR_B: j,
                                  DATA_B: xor})] = 0.25
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-12

    def test_identical_singletons_collapse_to_zero(self):
        spec = PreparationSpec(DataTable((5,), 4), DataTable((5,), 4))
        state = prepare_joint(spec)
        assert state.amplitudes[0] == 1.0

    def test_distinct_singletons_hold_their_xor(self):
        spec = PreparationSpec(DataTable((5,), 4), DataTable((3,), 4))
        layout = spec.layout()
        state = prepare_joint(spec)
        assert state.amplitudes[layout.pack({DATA_B: 6})] == 1.0

    @settings(max_examples=30, deadline=None)
    @given(table_a=tables(max_size=4), table_b=tables(max_size=4))
    def test_support_and_match_count(self, table_a, table_b):
        spec = PreparationSpec(table_a, table_b)
        state = prepare_joint(spec)
        probs = np.abs(state.amplitudes) ** 2
        support = probs > 1e-14
        assert int(support.sum()) == spec.size_k
        assert np.max(np.abs(np.sqrt(probs[support])
                             - 1 / math.sqrt(spec.size_k))) < 1e-12
        layout = state.layout
        assert np.all(layout.index_values(DATA_A)[support] == 0)
        zero_b = support & (layout.index_values(DATA_B) == 0)
        overlap = set(table_a.entries) & set(table_b.entries)
        assert int(zero_b.sum()) == len(overlap)

    @settings(max_examples=20, deadline=None)
    @given(table_a=tables(max_size=4), table_b=tables(max_size=4),
           seed=st.integers(0, 2 ** 16))
    def test_match_count_invariant_under_relabeling(self, table_a, table_b, seed):
        top = (1 << 4) - 1
        relabel = np.random.default_rng(seed).permutation(np.arange(1, top + 1))
        mapping = {old: int(new) for old, new in zip(range(1, top + 1), relabel)}
        remap = lambda t: DataTable(tuple(mapping[e] for e in t.entries), 4)
        before = prepare_joint(PreparationSpec(table_a, table_b))
        after = prepare_joint(PreparationSpec(remap(table_a), remap(table_b)))

        def zero_branches(state):
            support = np.abs(state.amplitudes) ** 2 > 1e-14
            return int((support & (state.layout.index_values(DATA_B) == 0)).sum())

        assert zero_branches(before) == zero_branches(after)


class TestLiteralStaging:
    """The one-list builders equal the literal staging bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(table=wide_tables(),
           regs=st.sampled_from([(ADDR_A, DATA_A), (ADDR_B, DATA_B)]))
    def test_prepare_encoded_equals_uniform_then_load(self, table, regs):
        assert_same_state(prepare_encoded(table, *regs), staged_encoded(table, *regs))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), bits=st.integers(1, 12))
    def test_prepare_joint_equals_the_seven_steps(self, data, bits):
        spec = PreparationSpec(data.draw(wide_tables(bits)),
                               data.draw(wide_tables(bits)))
        assert_same_state(prepare_joint(spec), staged_joint(spec))

    def test_prepare_encoded_builds_one_state(self, states_built):
        prepare_encoded(DataTable(WORKED_A, 4), ADDR_A, DATA_A)
        assert len(states_built) == 1


class TestBranchOrder:
    """Every step of the pipeline hands ``QuantumState`` strictly increasing
    indices, for tables in any order, so none is sorted."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), bits=st.integers(1, 12))
    def test_each_step_keeps_the_indices_increasing(self, data, bits):
        spec = PreparationSpec(data.draw(wide_tables(bits)),
                               data.draw(wide_tables(bits)))
        mask = data.draw(st.integers(1, (1 << bits) - 1))
        arrivals = []
        original = QuantumState._moved.__func__

        def spied(cls, layout, indices, values):
            indices = np.asarray(indices)
            arrivals.append(bool((indices[1:] > indices[:-1]).all()))
            return original(cls, layout, indices, values)
        with mock.patch.object(QuantumState, "_moved", classmethod(spied)):
            prepare_joint(spec)
            _detection(spec, 0)
            _detection(spec, mask)
        # Two messages, tensor, XOR and uncompute; the same again, as a
        # check that keeps every branch returns the state it was given;
        # the same with a tamper, which always fails.
        assert len(arrivals) == 5 + 5 + 6
        assert all(arrivals)


class TestCheatCheck:
    def test_honest_state_passes_with_certainty(self):
        spec = worked_spec()
        pass_prob, post = cheat_check(honest_message_state(spec), spec.table_a)
        assert pass_prob == 1.0
        assert post is not None
        assert np.all(post.layout.index_values(DATA_A)[
            np.abs(post.amplitudes) ** 2 > 1e-14] == 0)

    def test_tampered_data_register_always_fails(self):
        from qgi.state import xor_register
        spec = worked_spec()
        state = honest_message_state(spec)
        tampered = xor_register(state, DATA_A, 0b0011)
        pass_prob, post = cheat_check(tampered, spec.table_a)
        assert pass_prob == 0.0
        assert post is None

    def test_measured_branch_still_passes(self):
        # Collapse to one loaded row before the XOR step; the uncompute
        # still clears the data register on that branch.
        spec = worked_spec()
        layout_a = prepare_encoded(spec.table_a, ADDR_A, DATA_A).layout
        tau = 2
        collapsed = basis_state(layout_a, {ADDR_A: tau, DATA_A: WORKED_A[tau]})
        bob = prepare_encoded(spec.table_b, ADDR_B, DATA_B)
        joint = oracle_xor(tensor(collapsed, bob), DATA_A, DATA_B)
        pass_prob, _ = cheat_check(joint, spec.table_a)
        assert pass_prob == 1.0


def test_spec_rejects_mismatched_value_bits():
    with pytest.raises(ValueError, match="value bits"):
        PreparationSpec(DataTable((1,), 4), DataTable((1,), 5))


def test_message_passing_pipeline_matches_prepare_joint():
    spec = worked_spec()
    via_messages = oracle_load(honest_message_state(spec), ADDR_A, DATA_A,
                               spec.table_a)
    direct = prepare_joint(spec)
    assert np.max(np.abs(via_messages.amplitudes - direct.amplitudes)) < 1e-12
