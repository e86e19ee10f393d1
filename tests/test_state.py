import math

import numpy as np
import pytest

from qgi import (DensityMatrix, QuantumState, RegisterLayout,
                 apply_permutation, apply_phase_flip, basis_state,
                 measure_register, reduced_density, reflect_about, tensor,
                 von_neumann_entropy)
from qgi.state import _norm_sq, project
from support import measure_distribution, random_state


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
        QuantumState(pair_layout, np.ones(pair_layout.dim, dtype=complex))


def test_identity_permutation_is_noop(pair_layout, rng):
    state = random_state(pair_layout, rng)
    out = apply_permutation(state, ["addr_a", "data_a"], lambda v: v)
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_bit_flip_permutation():
    layout = RegisterLayout([("q", 1)])
    flipped = apply_permutation(basis_state(layout), ["q"], lambda v: (v[0] ^ 1,))
    assert flipped.amplitudes[1] == 1.0


def test_self_inverse_permutation_twice_is_identity(pair_layout, rng):
    state = random_state(pair_layout, rng)
    flip = lambda v: (v[0], v[1] ^ 0b1010)
    twice = apply_permutation(apply_permutation(state, ["addr_a", "data_a"], flip),
                              ["addr_a", "data_a"], flip)
    assert np.max(np.abs(twice.amplitudes - state.amplitudes)) < 1e-12


def test_permutation_moves_amplitude_to_image(pair_layout):
    state = basis_state(pair_layout, {"addr_a": 1, "data_a": 3})
    out = apply_permutation(state, ["data_a"], lambda v: ((v[0] + 5) % 16,))
    assert out.amplitudes[pair_layout.pack({"addr_a": 1, "data_a": 8})] == 1.0


def test_permutation_distributes_over_superpositions(pair_layout, rng):
    # Compare vectorized application against moving each basis amplitude by hand.
    state = random_state(pair_layout, rng)
    shuffle = lambda v: ((v[0] + 1) % 4, v[1] ^ 0b0110)
    out = apply_permutation(state, ["addr_a", "data_a"], shuffle)
    expected = np.zeros_like(state.amplitudes)
    for index in range(pair_layout.dim):
        values = pair_layout.unpack(index)
        i, x = shuffle((values["addr_a"], values["data_a"]))
        expected[pair_layout.pack({"addr_a": i, "data_a": x})] += state.amplitudes[index]
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


def test_non_bijective_map_rejected_in_verify_mode(pair_layout):
    state = basis_state(pair_layout)
    with pytest.raises(ValueError, match="bijection"):
        apply_permutation(state, ["data_a"], lambda v: (v[0] & 0b1110,), verify=True)


def test_map_colliding_on_the_support_is_rejected(pair_layout):
    amps = np.zeros(pair_layout.dim, dtype=complex)
    amps[pair_layout.pack({"data_a": 2})] = amps[pair_layout.pack({"data_a": 3})] = 0.5 ** 0.5
    state = QuantumState(pair_layout, amps)
    with pytest.raises(ValueError, match="not injective on the state's support"):
        apply_permutation(state, ["data_a"], lambda v: (v[0] & 0b1110,))


def test_map_is_evaluated_only_on_the_support(pair_layout):
    seen = []
    state = basis_state(pair_layout, {"addr_a": 1, "data_a": 3})
    apply_permutation(state, ["addr_a", "data_a"], lambda v: seen.append(v) or v)
    assert seen == [(1, 3)]


def test_permutation_arity_and_range_checked(pair_layout):
    state = basis_state(pair_layout)
    with pytest.raises(ValueError, match="exceeds register data_a"):
        apply_permutation(state, ["data_a"], lambda v: (16,))
    with pytest.raises(ValueError, match="2 values for 1 registers"):
        apply_permutation(state, ["data_a"], lambda v: (0, 0))


def test_phase_flip_flips_only_matching_branches(pair_layout, rng):
    state = random_state(pair_layout, rng)
    out = apply_phase_flip(state, ["data_a"], lambda v: v[0] == 0)
    values = pair_layout.index_values("data_a")
    assert np.array_equal(out.amplitudes[values == 0], -state.amplitudes[values == 0])
    assert np.array_equal(out.amplitudes[values != 0], state.amplitudes[values != 0])


def test_reflection_fixes_axis_and_negates_orthogonal():
    layout = RegisterLayout([("q", 1)])
    axis = basis_state(layout, {"q": 0})
    other = basis_state(layout, {"q": 1})
    assert np.allclose(reflect_about(axis, axis).amplitudes, axis.amplitudes)
    assert np.allclose(reflect_about(other, axis).amplitudes, -other.amplitudes)


def test_reflection_runs_on_branches_above_the_dense_budget():
    # 30 qubits: the dense view is refused, the reflection needs only the
    # three branches of both states.
    layout = RegisterLayout([("a", 15), ("b", 15)])
    i1, i2, i3 = (layout.pack({"a": a, "b": b})
                  for a, b in ((7, 0), (1, 9000), (32767, 5)))
    state = QuantumState.from_branches(layout, [i1, i2], [0.6, 0.8j])
    axis = QuantumState.from_branches(layout, [i2, i3], [0.6, 0.8])
    out = reflect_about(state, axis)
    # <axis|state> = 0.48j, so the result is 0.96j|axis> - |state>.
    assert out.layout == layout
    assert out.indices.tolist() == sorted([i1, i2, i3])
    expected = {i1: -0.6, i2: 0.576j - 0.8j, i3: 0.768j}
    got = dict(zip(out.indices.tolist(), out.values))
    assert max(abs(got[i] - v) for i, v in expected.items()) < 1e-12
    with pytest.raises(ValueError, match="dense view of 30 qubits"):
        out.amplitudes
    # Orthogonal to the axis: negated, and the axis's branch is not stored.
    lone = QuantumState.from_branches(layout, [i1], [1.0])
    negated = reflect_about(lone, QuantumState.from_branches(layout, [i3], [1.0]))
    assert negated.indices.tolist() == [i1] and negated.values.tolist() == [-1.0]


def test_norm_preserved_through_operation_chain(pair_layout, rng):
    state = random_state(pair_layout, rng)
    axis = random_state(pair_layout, rng)
    for _ in range(25):
        state = apply_permutation(state, ["addr_a", "data_a"],
                                  lambda v: (v[0] ^ 3, (v[1] + 7) % 16))
        state = apply_phase_flip(state, ["data_a"], lambda v: v[0] % 3 == 1)
        state = reflect_about(state, axis)
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
    reachable = measure_distribution(QuantumState(layout, amps), "addr_a")
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


def test_unreachable_outcomes_have_no_collapsed_state(pair_layout):
    state = basis_state(pair_layout, {"addr_a": 1})
    assert set(measure_distribution(state, "addr_a")) == {1}


def test_norm_sums_do_not_drift_with_the_branch_count():
    # A 576 x 576 uniform product state: a BLAS dot product is off from 1
    # by 3.3e-13 here, a pairwise sum by a few ulps at most.
    side = np.full(576, 1 / np.sqrt(576))
    values = np.outer(side, side).ravel().astype(np.complex128)
    assert abs(_norm_sq(values) - 1.0) < 4 * np.finfo(float).eps


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


def test_reduced_density_of_product_state_is_rank_one(rng):
    layout_a = RegisterLayout([("a", 2)])
    layout_b = RegisterLayout([("b", 3)])
    part_a = random_state(layout_a, rng)
    part_b = random_state(layout_b, rng)
    rho = reduced_density(tensor(part_a, part_b), ["a"])
    expected = np.outer(part_a.amplitudes, part_a.amplitudes.conj())
    assert np.max(np.abs(rho.matrix - expected)) < 1e-12


def test_reduced_density_of_bell_pair_is_maximally_mixed():
    layout = RegisterLayout([("q0", 1), ("q1", 1)])
    amps = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = reduced_density(QuantumState(layout, amps), ["q0"])
    assert np.max(np.abs(rho.matrix - np.eye(2) / 2)) < 1e-12
    assert abs(von_neumann_entropy(rho) - 1.0) < 1e-12


def test_reduced_density_over_all_registers_is_outer_product(pair_layout, rng):
    state = random_state(pair_layout, rng)
    rho = reduced_density(state, ["addr_a", "data_a"])
    expected = np.outer(state.amplitudes, state.amplitudes.conj())
    assert np.max(np.abs(rho.matrix - expected)) < 1e-12


def test_reduced_density_of_encoded_superposition_is_uniform_diagonal():
    # 1/2 sum_i |i>|a_i> kept entirely: four 1/4 diagonal entries.
    layout = RegisterLayout([("addr_a", 2), ("data_a", 4)])
    table = [1, 2, 5, 6]
    amps = np.zeros(layout.dim, dtype=complex)
    indices = [layout.pack({"addr_a": i, "data_a": a}) for i, a in enumerate(table)]
    amps[indices] = 0.5
    mixed = np.zeros((layout.dim, layout.dim), dtype=complex)
    for idx in indices:
        vec = np.zeros(layout.dim, dtype=complex)
        vec[idx] = 1.0
        mixed += np.outer(vec, vec.conj()) / 4
    rho = DensityMatrix(mixed)
    assert np.allclose(np.diag(rho.matrix)[indices], 0.25, atol=1e-12)
    assert abs(von_neumann_entropy(rho) - 2.0) < 1e-9


def test_reduced_density_respects_dimension_cap():
    layout = RegisterLayout([("wide", 13)])
    state = basis_state(layout)
    with pytest.raises(ValueError, match="exceeds the cap"):
        reduced_density(state, ["wide"])


def test_entropy_of_rank_one_projector_is_zero():
    vec = np.zeros(8, dtype=complex)
    vec[5] = 1.0
    rho = DensityMatrix(np.outer(vec, vec.conj()))
    entropy = von_neumann_entropy(rho)
    # +0.0, not -(1 * log2 1) = -0.0, which prints as "-0.000000".
    assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0


def test_entropy_of_pure_state_density_is_zero(pair_layout, rng):
    state = random_state(pair_layout, rng)
    rho = reduced_density(state, ["addr_a", "data_a"])
    assert abs(von_neumann_entropy(rho)) < 1e-9


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2, dtype=complex))
    bad = np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex)
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(bad).eigenvalues()
