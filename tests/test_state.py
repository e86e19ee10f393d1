import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgi.state
from qgi import (ADDR_A, ADDR_B, DATA_A, DATA_B, QUBIT_BUDGET, DataTable,
                 PreparationSpec, QuantumState, RegisterLayout,
                 grover_iterate, leakage_report, measure_register, phase_estimate,
                 tensor)
from qgi.state import (_norm_sq, align, project, reflect, register_distribution,
                       xor_register)
from support import (basis_state, dense_state, encoded_gram, gram_entropy,
                     measure_distribution, random_spec, random_state, unpack)


@pytest.fixture
def pair_layout():
    return RegisterLayout([("addr_a", 2), ("data_a", 4)])


def test_all_zero_basis_state(pair_layout):
    state = basis_state(pair_layout)
    assert state.amplitudes[0] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_basis_state_direct_encoding(pair_layout):
    state = basis_state(pair_layout, {"addr_a": 3, "data_a": 6})
    index = 3 | (6 << 2)
    assert state.amplitudes[index] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_basis_state_rejects_out_of_range():
    layout = RegisterLayout([("addr_a", 2)])
    with pytest.raises(ValueError, match="value 7 exceeds register addr_a width 2"):
        basis_state(layout, {"addr_a": 7})


def test_state_must_be_normalized(pair_layout):
    with pytest.raises(ValueError, match="norm"):
        QuantumState.from_branches(pair_layout, np.arange(pair_layout.dim),
                                   np.ones(pair_layout.dim))


def test_a_nan_norm_is_refused():
    # NaN fails every comparison, so a check written as "too far from 1"
    # would pass it, and counting the state would fail in its peak pick.
    nan = [float("nan")]
    with pytest.raises(ValueError, match=r"norm\^2 = nan is not 1"):
        QuantumState.from_branches(RegisterLayout([("a", 2)]), [0], nan)
    spec = PreparationSpec(DataTable((1,), 1), DataTable((1,), 1))
    with pytest.raises(ValueError, match=r"norm\^2 = nan is not 1"):
        phase_estimate(spec, initial_state=QuantumState.from_branches(
            spec.layout(), [0], nan))


def test_identity_permutation_is_noop(pair_layout, rng):
    state = random_state(pair_layout, rng)
    out = xor_register(state, "data_a", 0)
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_bit_flip_permutation():
    layout = RegisterLayout([("q", 1)])
    flipped = xor_register(basis_state(layout), "q", 1)
    assert flipped.amplitudes[1] == 1.0


def test_self_inverse_permutation_twice_is_identity(pair_layout, rng):
    state = random_state(pair_layout, rng)
    values = state.register_values("addr_a") ^ 0b1010
    twice = xor_register(xor_register(state, "data_a", values), "data_a", values)
    assert np.max(np.abs(twice.amplitudes - state.amplitudes)) < 1e-12


def test_permutation_moves_amplitude_to_image(pair_layout):
    state = basis_state(pair_layout, {"addr_a": 1, "data_a": 3})
    out = xor_register(state, "data_a", 0b1011)
    assert out.amplitudes[pair_layout.pack({"addr_a": 1, "data_a": 8})] == 1.0


def test_permutation_distributes_over_superpositions(pair_layout, rng):
    # Compare vectorized application against moving each basis amplitude by hand.
    state = random_state(pair_layout, rng)
    key = lambda i: (5 * i + 3) % 16
    out = xor_register(state, "data_a", key(state.register_values("addr_a")))
    expected = np.zeros_like(state.amplitudes)
    for index in range(pair_layout.dim):
        values = unpack(pair_layout, index)
        i, x = values["addr_a"], values["data_a"] ^ key(values["addr_a"])
        expected[pair_layout.pack({"addr_a": i, "data_a": x})] += state.amplitudes[index]
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


def test_map_colliding_on_the_support_is_rejected(pair_layout):
    index = pair_layout.pack({"data_a": 2})
    for indices in ([index, index], [index, 1, index], [1, index, index]):
        with pytest.raises(ValueError, match=f"two branches land on basis index "
                                             f"{index}: the map is not injective "
                                             f"on the state's support"):
            QuantumState.from_branches(pair_layout, indices,
                                       [len(indices) ** -0.5] * len(indices))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_branches_in_any_order_give_the_sorted_state(data):
    layout = RegisterLayout([("a", 20), ("b", 20)])
    indices = sorted(data.draw(st.lists(st.integers(0, layout.dim - 1),
                                        min_size=1, max_size=12, unique=True)))
    values = np.array([complex(k + 1, -i % 7) for k, i in enumerate(indices)])
    values /= np.linalg.norm(values)
    order = data.draw(st.permutations(range(len(indices))))
    expected = QuantumState.from_branches(layout, indices, values)
    state = QuantumState.from_branches(
        layout, np.array(indices)[order], values[order])
    assert np.array_equal(state.indices, expected.indices)
    assert np.array_equal(state.values, expected.values)


def test_map_is_evaluated_only_on_the_support():
    # 40 qubits: no table over the register's values is built, only the
    # two branches move.
    layout = RegisterLayout([("a", 20), ("b", 20)])
    i1, i2 = layout.pack({"a": 3, "b": 9}), layout.pack({"a": 1 << 19, "b": 0})
    state = QuantumState.from_branches(layout, [i1, i2], [0.6, 0.8j])
    out = xor_register(state, "b", state.register_values("a"))
    assert out.indices.tolist() == sorted(
        [layout.pack({"a": 3, "b": 9 ^ 3}), layout.pack({"a": 1 << 19, "b": 1 << 19})])
    assert out.values.tolist() == [0.6, 0.8j]


def test_permutation_arity_and_range_checked(pair_layout, rng):
    # One value for all branches acts as that value repeated per branch.
    state = random_state(pair_layout, rng)
    one = xor_register(state, "data_a", 5)
    each = xor_register(state, "data_a", np.full(len(state.indices), 5))
    assert np.array_equal(one.indices, each.indices)
    assert np.array_equal(one.values, each.values)
    for value in (16, -1, 1 << 40):
        with pytest.raises(ValueError, match="exceeds register data_a width 4"):
            xor_register(state, "data_a", value)
        # One bad value among in-range ones is refused as well.
        with pytest.raises(ValueError, match="exceeds register data_a width 4"):
            xor_register(state, "data_a", np.r_[np.full(len(state.indices) - 1, 15), value])


def test_xor_values_are_one_or_one_per_branch(pair_layout):
    state = basis_state(pair_layout)
    with pytest.raises(ValueError, match="got 2 values for 1 branches"):
        xor_register(state, "data_a", [1, 2])
    assert xor_register(state, "data_a", [3]).register_values("data_a").tolist() == [3]


def test_phase_flip_flips_only_matching_branches(rng):
    # The reflection about |psi> is its own inverse, so reflecting the
    # iterate's output once more leaves S|state>: the branches whose Bob
    # data register is 0 negated, every other branch kept.
    spec = random_spec(rng)
    iterate = grover_iterate(spec)
    state = random_state(spec.layout(), rng)
    support, (values, out, axis) = align(state, iterate.apply(state), iterate.prepared)
    assert np.array_equal(support, np.union1d(state.indices, iterate.prepared.indices))
    signs = np.where(spec.layout().extract(support, DATA_B) == 0, -1.0, 1.0)
    assert np.max(np.abs(reflect(out, axis) - signs * values)) < 1e-12


def test_reflection_fixes_axis_and_negates_orthogonal():
    axis = np.array([1.0, 0.0], dtype=complex)
    other = np.array([0.0, 1.0], dtype=complex)
    assert np.array_equal(reflect(axis, axis), axis)
    assert np.array_equal(reflect(other, axis), -other)


def test_reflection_runs_on_branches_above_the_dense_budget():
    # 26 qubits: the dense view is refused, the iterate needs only the
    # branches of the state and of the preparation.
    spec = PreparationSpec(DataTable((1, 2), 12), DataTable((3, 4), 12))
    layout = spec.layout()
    assert layout.total_qubits > QUBIT_BUDGET
    iterate = grover_iterate(spec)
    psi = iterate.prepared
    # Disjoint tables mark no branch, so |psi> is a fixed point.
    out = iterate.apply(psi)
    assert np.array_equal(out.indices, psi.indices)
    assert np.max(np.abs(out.values - psi.values)) < 1e-12
    with pytest.raises(ValueError, match="dense view of 26 qubits"):
        out.amplitudes
    # An unmarked branch orthogonal to |psi> is negated, and |psi>'s
    # branches are not stored.
    lone = layout.pack({ADDR_A: 1, DATA_A: 5, ADDR_B: 0, DATA_B: 7})
    assert lone not in psi.indices
    negated = iterate.apply(QuantumState.from_branches(layout, [lone], [1.0]))
    assert negated.indices.tolist() == [lone] and negated.values.tolist() == [-1.0]


def test_norm_preserved_through_operation_chain(rng):
    spec = random_spec(rng)
    iterate = grover_iterate(spec)
    state = random_state(spec.layout(), rng)
    mask = (1 << spec.value_bits) - 1
    for _ in range(25):
        state = xor_register(state, DATA_B,
                             (state.register_values(ADDR_A) * 7 + 3) & mask)
        state = iterate.apply(state)
        norm_sq = float(np.vdot(state.amplitudes, state.amplitudes).real)
        assert abs(norm_sq - 1.0) < 1e-12


def test_tensor_puts_first_factor_in_low_bits():
    low = basis_state(RegisterLayout([("a", 2)]), {"a": 3})
    high = basis_state(RegisterLayout([("b", 1)]), {"b": 1})
    combined = tensor(low, high)
    assert combined.layout.names == ("a", "b")
    assert combined.amplitudes[3 | (1 << 2)] == 1.0


def test_measurement_of_basis_state_is_deterministic(pair_layout, rng):
    state = basis_state(pair_layout, {"addr_a": 2, "data_a": 9})
    outcome, post = measure_register(state, "data_a", rng)
    assert outcome == 9
    assert np.array_equal(post.amplitudes, state.amplitudes)


def test_uniform_marginal_distribution():
    # 1/2 sum_i |i>|a_i> marginalizes to 1/4 per address.
    layout = RegisterLayout([("addr_a", 2), ("data_a", 4)])
    table = [1, 2, 5, 6]
    amps = np.zeros(layout.dim, dtype=complex)
    for i, a in enumerate(table):
        amps[layout.pack({"addr_a": i, "data_a": a})] = 0.5
    reachable = measure_distribution(dense_state(layout, amps), "addr_a")
    assert set(reachable) == {0, 1, 2, 3}
    for i, (prob, post) in reachable.items():
        assert abs(prob - 0.25) < 1e-12
        assert abs(post.amplitudes[layout.pack({"addr_a": i, "data_a": table[i]})] - 1) < 1e-12


def test_distribution_sums_to_one_and_matches_sampling(pair_layout):
    state = random_state(pair_layout, np.random.default_rng(7))
    probs = [measure_distribution(state, "addr_a")[v][0] for v in range(4)]
    assert abs(sum(probs) - 1.0) < 1e-12
    draws = 10_000
    sampler = np.random.default_rng(123)
    counts = np.zeros(4)
    for _ in range(draws):
        outcome, _ = measure_register(state, "addr_a", sampler)
        counts[outcome] += 1
    for value in range(4):
        p = probs[value]
        sigma = np.sqrt(p * (1 - p) / draws)
        assert abs(counts[value] / draws - p) <= 3 * sigma + 1e-12


def test_sampling_draws_as_generator_choice():
    # measure_register draws as rng.choice(n, p=...) does: the same
    # outcome and the same generator state after every draw.
    layout = RegisterLayout([("low", 2), ("reg", 3)])
    for seed in range(200):
        source = np.random.default_rng(seed)
        state = random_state(layout, source)
        if seed % 2:  # a sparse state: some outcomes absent
            keep = source.random(len(state.indices)) < 0.3
            keep[0] = True
            kept = state.values[keep]
            state = QuantumState.from_branches(
                layout, state.indices[keep], kept / np.linalg.norm(kept))
        outcomes, probs = register_distribution(state, "reg")
        sampler, reference = (np.random.default_rng(seed + 1000) for _ in range(2))
        for _ in range(3):
            outcome, _ = measure_register(state, "reg", sampler)
            expected = outcomes[reference.choice(len(outcomes), p=probs / probs.sum())]
            assert outcome == expected
            assert sampler.bit_generator.state == reference.bit_generator.state


def test_a_draw_below_the_collapse_floor_is_refused():
    # A double at the first cumulative step draws the second outcome,
    # whose probability 1e-16 is below COLLAPSE_FLOOR.
    layout = RegisterLayout([("reg", 1)])
    state = QuantumState.from_branches(layout, [0, 1], [math.sqrt(1 - 1e-16), 1e-8])

    class FirstStep:
        def random(self):
            return 0.9999999999999999
    with pytest.raises(ValueError, match=r"cannot renormalize onto reg=1: "
                                         r"probability 1\.0+2e-16 underflows"):
        measure_register(state, "reg", FirstStep())


def test_unreachable_outcomes_have_no_collapsed_state(pair_layout):
    state = basis_state(pair_layout, {"addr_a": 1})
    assert set(measure_distribution(state, "addr_a")) == {1}


def test_norm_sums_do_not_drift_with_the_branch_count():
    # A 576 x 576 uniform product state: a BLAS dot product is off from 1
    # by 3.3e-13 here, a pairwise sum by a few ulps at most.
    side = np.full(576, 1 / np.sqrt(576))
    values = np.outer(side, side).ravel().astype(np.complex128)
    assert abs(_norm_sq(values) - 1.0) < 4 * np.finfo(float).eps


def test_norm_sum_squares_one_chunk_at_a_time(monkeypatch):
    # 2^16 branches are one chunk, summed as one pairwise sum; more are
    # summed by chunks whose sums are added pairwise.
    rng = np.random.default_rng(5)
    small = rng.normal(size=1 << 16) + 1j * rng.normal(size=1 << 16)
    assert _norm_sq(small) == float(np.add.reduce(np.square(small.view(np.float64))))
    side = np.full(1024, 1 / np.sqrt(1024))
    large = np.outer(side, side).ravel().astype(np.complex128)
    squared = []
    original = np.square
    monkeypatch.setattr(np, "square", lambda x: squared.append(x.size) or original(x))
    assert abs(_norm_sq(large) - 1.0) < 4 * np.finfo(float).eps
    assert squared == [1 << 17] * 16


def test_projection_renormalizes_by_the_kept_branches(pair_layout):
    state = random_state(pair_layout, np.random.default_rng(3))
    prob, post = project(state, "addr_a", 2)
    keep = pair_layout.index_values("addr_a") == 2
    assert abs(prob - np.sum(np.abs(state.amplitudes[keep]) ** 2)) < 1e-12
    assert np.allclose(post.amplitudes,
                       np.where(keep, state.amplitudes, 0) / np.sqrt(prob),
                       atol=1e-12)
    single = basis_state(pair_layout, {"addr_a": 1})
    assert project(single, "addr_a", 0) == (0.0, None)


def test_projection_keeping_every_branch_copies_and_resums_nothing(pair_layout,
                                                                   monkeypatch):
    # Every branch has addr_a = 1, as every branch of an honest check has
    # data_a = 0: the probability is exactly 1 and the collapsed state is
    # the state itself, already checked, so no norm is summed.
    amplitudes = np.where(pair_layout.index_values("addr_a") == 1,
                          np.arange(pair_layout.dim) + 1j, 0)
    state = dense_state(pair_layout, amplitudes / np.linalg.norm(amplitudes))
    sums = []
    monkeypatch.setattr(qgi.state, "_norm_sq",
                        lambda values: sums.append(len(values)) or _norm_sq(values))
    prob, post = project(state, "addr_a", 1)
    assert prob == 1.0
    assert post is state
    assert sums == []


def test_reduced_density_of_encoded_superposition_is_uniform_diagonal():
    # 1/2 sum_i |i>|a_i>: the Gram matrix of its rows is I/4, entropy 2 bits.
    table = DataTable((1, 2, 5, 6), 4)
    assert np.array_equal(encoded_gram(table), np.eye(4) / 4)
    assert abs(gram_entropy(table) - 2.0) < 1e-12


def test_entropy_of_rank_one_projector_is_zero():
    # +0.0, not -(1 * log2 1) = -0.0, which prints as "-0.000000".
    table = DataTable((5,), 4)
    for entropy in (gram_entropy(table),
                    leakage_report(table, 16).ensemble_entropy_bits):
        assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0
