import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qgi
from qgi import (ADDR_A, ADDR_B, DATA_A, DATA_B, HONEST, QUBIT_BUDGET,
                 AdversaryStrategy, CountingConfig, DataTable, PreparationSpec,
                 QuantumState, RegisterLayout, Verdict, decide_intersection,
                 decode_count, default_counting_bits, exact_count, grover_iterate,
                 phase_estimate, prepare_joint, run_protocol)
from qgi.counting import (CIRCUIT_AUTO_LIMIT, _exact_read, _Plane, _rounded_count,
                          _success_runs, plan_counting)
from qgi.state import align, xor_register
from support import (dense_circuit_distribution, dense_state, looked_up_plane,
                     random_spec, random_state)

EIGHT_OVER_PI_SQ = 8.0 / math.pi ** 2
WORKED = PreparationSpec(DataTable((1, 2, 5, 6), 4), DataTable((6, 7, 10, 11), 4))
DISJOINT = PreparationSpec(DataTable((1, 2), 4), DataTable((3, 4), 4))
THREE_OF_NINE = PreparationSpec(DataTable((1, 2, 3), 2), DataTable((1, 2, 3), 2))
# One pair: half of all outcomes decode to t = 0, and half to t = 1.
SINGLE = PreparationSpec(DataTable((5,), 3), DataTable((5,), 3))
# No branch of it is one of the worked preparation's: all its mass is off
# the iterate's plane.
OFF_PLANE = xor_register(prepare_joint(WORKED), DATA_B, 1)


def flip_marked(state):
    """S: negate the branches whose second data register is zero."""
    signs = np.where(state.register_values(DATA_B) == 0, -1.0, 1.0)
    return QuantumState.from_branches(state.layout, state.indices,
                                      state.values * signs)


@st.composite
def counting_cases(draw, engine="circuit"):
    """A spec, a counting width of 1-9 bits and the state counted (None for
    the preparation itself), sized so that ``plan_counting`` names ``engine``.

    Tables overlap anyhow, not at all (t = 0), in half or a quarter of the
    pairs, or are one identical entry (t = K), and a basis or sparse state
    on a one-pair spec has a support of one to three branches, so the
    iterate's orbit can span fewer than four dimensions.  ``circuit`` specs
    hold 1-3 value bits (4-10 data qubits) at any width; ``reduced`` specs
    hold 5 (12-14 data qubits) at the narrowest width past
    ``CIRCUIT_AUTO_LIMIT``, 7-9 bits.
    """
    value_bits = draw(st.sampled_from([3, 2, 1] if engine == "circuit" else [5]))
    values = draw(st.permutations(range(1, 1 << value_bits)))
    kind = draw(st.sampled_from(["any", "disjoint", "identical", "half", "quarter"]
                                if len(values) > 1 else ["identical"]))
    if kind == "identical":
        table_a = table_b = values[:1]
    elif kind == "half":  # t/K = 1/2: n phi = n/4, computed one ulp low
        table_a, table_b = values[:1], values[:2]
    elif kind == "quarter":  # t/K = 1/4
        table_a, table_b = values[:2], (values[0], values[2])
    elif kind == "disjoint":
        split = draw(st.integers(1, min(3, len(values) - 1)))
        table_a = values[:split]
        table_b = values[split:split + draw(st.integers(1, 3))]
    else:
        table_a, table_b = (draw(st.lists(st.sampled_from(values), min_size=1,
                                          max_size=3, unique=True))
                            for _ in "ab")
    spec = PreparationSpec(DataTable(tuple(table_a), value_bits),
                           DataTable(tuple(table_b), value_bits))
    layout = spec.layout()
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    initial = draw(st.sampled_from(["dense", "sparse", "basis", "prepared"]))
    if initial == "prepared":
        state = None
    elif initial == "dense":
        state = random_state(layout, gen)
    elif initial == "basis":
        index = draw(st.integers(0, layout.dim - 1))
        state = QuantumState.from_branches(layout, [index], [1.0])
    else:
        # Part of the prepared support plus up to three stray branches.
        prepared = prepare_joint(spec).indices
        stray = np.setdiff1d(np.arange(layout.dim), prepared)
        indices = np.concatenate([
            prepared[gen.random(len(prepared)) < 0.5],
            gen.choice(stray, draw(st.integers(1, 3)), replace=False)])
        amps = gen.normal(size=len(indices)) + 1j * gen.normal(size=len(indices))
        state = QuantumState.from_branches(layout, indices,
                                           amps / np.linalg.norm(amps))
    if engine == "circuit":
        return spec, draw(st.integers(1, 9)), state
    return spec, CIRCUIT_AUTO_LIMIT + 1 - layout.total_qubits, state


@pytest.mark.parametrize("engine", ["circuit", "reduced"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_engine_equals_the_literal_circuit(engine, data):
    # The Fejer-kernel distribution of the plane summary against the literal
    # circuit's powers and Fourier transform, on any counted state, at the
    # sizes each engine name covers.
    spec, bits, state = data.draw(counting_cases(engine))
    literal = dense_circuit_distribution(spec, bits, state or prepare_joint(spec))
    est = phase_estimate(spec, CountingConfig(bits=bits), initial_state=state)
    assert est.engine == engine
    assert np.max(np.abs(est.distribution - literal)) < 1e-12
    assert est.y == np.flatnonzero(literal >= literal.max() - 1e-12)[0]


# The worked pair's success probability and its +phi peak at 12 bits, from
# the closed form with theta = 2 asin(1/4) and w+- = 1/2, summed over the
# outcomes that decode to t = 1 in mpmath at 50 digits and rounded to 20.
WORKED_SUCCESS = {7: 0.94904406306172143342, 12: 0.99775460479605455966}
WORKED_PEAK_12 = (329, 0.44383285316093448581)  # 4096 asin(1/4) / pi


# 7 bits plan as ``circuit`` on the worked pair's 12 data qubits, 12 as
# ``reduced``.
@pytest.mark.parametrize("engine, bits", [("circuit", 7), ("reduced", 12)],
                         ids=["circuit", "reduced"])
def test_worked_pair_meets_the_forty_digit_reference(engine, bits):
    est = phase_estimate(WORKED, CountingConfig(bits=bits))
    assert (est.engine, est.t_rounded) == (engine, 1)
    assert abs(est.success_prob - WORKED_SUCCESS[bits]) < 1e-15
    if bits != 12:
        return
    # The kernels at 12 bits, each distance an exact integer offset from the
    # reference peak less its fraction: accurate to a few ulp of P.
    size, half = 1 << 12, 1 << 11
    base, frac = WORKED_PEAK_12
    ys = np.arange(size)
    kernels = [math.sin(math.pi * frac) ** 2
               / (size * np.sin(math.pi * (((ys + half + shift) % size - half) + rest)
                                / size)) ** 2
               for shift, rest in ((-base, -frac), (base, frac))]
    assert np.max(np.abs(est.distribution - (kernels[0] + kernels[1]) / 2)) < 2e-14


@settings(max_examples=100, deadline=None)
@given(case=counting_cases())
def test_estimate_from_the_windows_equals_the_full_table(case):
    # Exact mode reads the candidate peaks and the success windows only;
    # the whole distribution and the decode of every outcome must agree.
    spec, bits, _ = case
    est = phase_estimate(spec, CountingConfig(bits=bits))
    probs, size, k = est.distribution, 1 << bits, spec.size_k
    decoded = np.round(np.clip(k * np.sin(np.pi * np.arange(size) / size) ** 2, 0, k))
    assert est.y == np.flatnonzero(probs >= probs.max() - 1e-12)[0]
    true_t = exact_count(prepare_joint(spec))
    assert abs(est.success_prob - probs[decoded == true_t].sum()) < 1e-12


@settings(max_examples=100, deadline=None)
@given(case=counting_cases())
def test_success_prob_is_the_literal_circuits_mass_on_the_true_count(case):
    # With the preparation itself counted, the reported success probability
    # is the literal circuit's mass on the outcomes that decode to the
    # classical count; a disturbed state has none.
    spec, bits, state = case
    prepared = prepare_joint(spec)
    literal = dense_circuit_distribution(spec, bits, prepared)
    true_t = len(set(spec.table_a.entries) & set(spec.table_b.entries))
    decodes = np.array([_rounded_count(y, spec.size_k, bits) for y in range(1 << bits)])
    cfg = CountingConfig(bits=bits)
    est = phase_estimate(spec, cfg, prepared=prepared)
    assert abs(est.success_prob - literal[decodes == true_t].sum()) < 1e-12
    if state is not None:
        assert phase_estimate(spec, cfg, initial_state=state,
                              prepared=prepared).success_prob is None


@settings(max_examples=100, deadline=None)
@given(case=counting_cases())
def test_the_plane_pass_counts_the_preparation_on_any_union(case):
    # With another state placed on the preparation's plane, the count is
    # still the preparation's own, and the classical one.
    spec, _, state = case
    prepared = prepare_joint(spec)
    count = exact_count(prepared)
    assert count == len(set(spec.table_a.entries) & set(spec.table_b.entries))
    plane = _Plane.of(prepared)
    assert (plane if state is None else plane.on(spec, state)).count == count


@st.composite
def padded_cases(draw):
    """A spec whose tables are not a power of two long, so the addresses
    past them hold 0 in ``lookup``, and a disturbed state on its layout:
    dense, part of the preparation plus three stray branches, the
    preparation moved off its plane, or a branch at every address pair,
    padded ones included, holding the XOR of the two lookups there."""
    value_bits = draw(st.sampled_from([3, 4]))
    values = draw(st.permutations(range(1, 1 << value_bits)))
    table_a, table_b = (
        DataTable(tuple(draw(st.lists(st.sampled_from(values), min_size=size,
                                      max_size=size, unique=True))), value_bits)
        for size in [draw(st.sampled_from([3, 5, 6, 7])) for _ in "ab"])
    spec = PreparationSpec(table_a, table_b)
    layout = spec.layout()
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["dense", "sparse", "off-plane", "padded"]))
    if kind == "dense":
        return spec, random_state(layout, gen)
    prepared = prepare_joint(spec)
    if kind == "off-plane":
        return spec, xor_register(prepared, DATA_B, 1)
    if kind == "sparse":
        stray = np.setdiff1d(np.arange(layout.dim), prepared.indices)
        indices = np.concatenate([prepared.indices[gen.random(len(prepared.indices)) < 0.5],
                                  gen.choice(stray, 3, replace=False)])
    else:
        i, j = np.divmod(np.arange(1 << (table_a.address_bits + table_b.address_bits)),
                         1 << table_b.address_bits)
        indices = ((i << layout.offset(ADDR_A)) | (j << layout.offset(ADDR_B))
                   | (table_a.lookup[i] ^ table_b.lookup[j]))
    amps = gen.normal(size=len(indices)) + 1j * gen.normal(size=len(indices))
    return spec, QuantumState.from_branches(layout, indices, amps / np.linalg.norm(amps))


@settings(max_examples=150, deadline=None)
@given(case=padded_cases())
@example(case=(WORKED, OFF_PLANE))
def test_the_plane_read_from_the_tables_equals_the_lookup(case):
    # The preparation's amplitude on each disturbed branch, read from the
    # two tables, against a search of the prepared indices: the same plane,
    # field for field and with no tolerance, whether the angle comes from a
    # held preparation's pass or from t = |A & B| over K, as in a disturbed
    # estimate that holds none.
    spec, state = case
    reference = looked_up_plane(spec, state)
    count = len(set(spec.table_a.entries) & set(spec.table_b.entries))
    assert _Plane.of(prepare_joint(spec)).on(spec, state) == reference
    assert _Plane.of_count(count, spec.size_k).on(spec, state) == reference


@settings(max_examples=100, deadline=None)
@given(case=counting_cases())
def test_an_honest_angle_is_the_counts_own(case):
    # sin^2(theta / 2) = t / K for the uniform preparation, bit for bit: no
    # summed mass carries its rounding into theta.
    for spec in (case[0], THREE_OF_NINE):
        count = len(set(spec.table_a.entries) & set(spec.table_b.entries))
        plane = _Plane.of(prepare_joint(spec))
        assert plane.theta == 2 * math.asin(math.sqrt(count / spec.size_k))
        assert (plane.off_marked, plane.off_unmarked) == (0.0, 0.0)


@settings(max_examples=50, deadline=None)
@given(case=counting_cases(), data=st.data())
def test_explicit_zero_branches_are_not_counted(case, data):
    # A preparation may list zero-amplitude branches, marked ones among them.
    spec, layout = case[0], case[0].layout()
    prepared = prepare_joint(spec)
    stray = np.setdiff1d(np.arange(layout.dim), prepared.indices)
    marked = stray[layout.extract(stray, DATA_B) == 0]
    zeros = np.unique(data.draw(st.lists(st.sampled_from(stray.tolist()), max_size=4))
                      + [data.draw(st.sampled_from(marked.tolist()))])
    padded = QuantumState.from_branches(
        layout, np.concatenate([prepared.indices, zeros]),
        np.concatenate([prepared.values, np.zeros(len(zeros))]))
    assert len(padded.indices) == len(prepared.indices) + len(zeros)
    assert exact_count(padded) == exact_count(prepared)


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 1 << 24), bits=st.integers(1, 18), data=st.data())
def test_success_runs_hold_the_outcomes_that_decode_to_the_count(k, bits, data):
    size = 1 << bits
    decoded = np.round(np.clip(k * np.sin(np.pi * np.arange(size) / size) ** 2, 0, k))
    count = data.draw(st.one_of(st.sampled_from([0, k, k // 2]),
                                st.integers(0, k),
                                st.sampled_from(decoded.astype(int).tolist())))
    runs = _success_runs(count, k, bits)
    window = np.concatenate([np.arange(r.start, r.stop) for r in runs] or [np.arange(0)])
    assert window.tolist() == np.flatnonzero(decoded == count).tolist()


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 1 << 24), bits=st.integers(19, 27), data=st.data())
def test_success_runs_end_where_the_decode_leaves_the_count(k, bits, data):
    # Widths beyond a table of every outcome: each run's ends decode to the
    # count and the outcome just past each end, on the same half, does not.
    size = 1 << bits
    y = data.draw(st.integers(0, size - 1))
    count = data.draw(st.sampled_from([0, k, k // 2, _rounded_count(y, k, bits)]))
    runs = _success_runs(count, k, bits)
    halves = [range(size // 2 + 1), range(size // 2 + 1, size)]
    sides = [side for run in runs for side, half in enumerate(halves) if run.start in half]
    assert sides == sorted(set(sides)) and len(sides) == len(runs)  # one per half
    for run, side in zip(runs, sides):
        half = halves[side]
        assert run[-1] in half
        assert _rounded_count(run.start, k, bits) == count
        assert _rounded_count(run[-1], k, bits) == count
        for outside in (run.start - 1, run.stop):
            if outside in half:
                assert _rounded_count(outside, k, bits) != count
    if count == _rounded_count(y, k, bits):
        assert any(y in run for run in runs)


class TestDefaults:
    @pytest.mark.parametrize("k, bits", [(1, 3), (2, 4), (3, 5), (16, 7), (64, 9)])
    def test_default_counting_bits(self, k, bits):
        assert default_counting_bits(k) == bits

    def test_config_validation(self):
        with pytest.raises(ValueError, match="mode"):
            CountingConfig(mode="guess")
        with pytest.raises(ValueError, match=">= 1"):
            CountingConfig(bits=0)

    @pytest.mark.parametrize("bits", [True, 2.5, 7.0, "7"])
    def test_config_refuses_a_width_that_is_not_an_int(self, bits):
        # True would count on one qubit, and a float reach 1 << bits.
        with pytest.raises(ValueError, match=f"int >= 1, got {bits!r}$"):
            CountingConfig(bits=bits)


class TestDecode:
    def test_decode_identity_and_pair_symmetry(self):
        bits, k = 7, 16
        size = 1 << bits
        for y in range(size):
            expected = k * math.sin(math.pi * y / size) ** 2
            assert abs(decode_count(y, k, bits) - expected) < 1e-12
            assert abs(decode_count(y, k, bits)
                       - decode_count((size - y) % size, k, bits)) < 1e-12

    def test_decode_bounds(self):
        for y in range(128):
            value = decode_count(y, 16, 7)
            assert 0.0 <= value <= 16.0


class TestGroverIterate:
    def test_no_match_state_is_fixed_point(self):
        iterate = grover_iterate(DISJOINT)
        psi = iterate.prepared
        once = iterate.apply(psi)
        twice = iterate.apply(once)
        assert np.max(np.abs(once.amplitudes - psi.amplitudes)) < 1e-10
        assert np.max(np.abs(twice.amplitudes - psi.amplitudes)) < 1e-10

    def test_overlap_after_one_step_is_cos_theta(self):
        # One match among sixteen pairs: sin^2(theta/2) = 1/16.
        iterate = grover_iterate(WORKED)
        psi = iterate.prepared
        overlap = np.vdot(psi.amplitudes, iterate.apply(psi).amplitudes)
        assert abs(overlap.imag) < 1e-12
        assert abs(overlap.real - (1 - 2 / 16)) < 1e-12
        marked = psi.register_values(DATA_B) == 0
        assert abs(psi.branch_probabilities()[marked].sum() - 1 / 16) < 1e-12

    def test_norm_preserved_on_random_states(self):
        iterate = grover_iterate(WORKED)
        gen = np.random.default_rng(99)
        for _ in range(100):
            state = random_state(WORKED.layout(), gen)
            out = iterate.apply(state)
            norm_sq = float(np.vdot(out.amplitudes, out.amplitudes).real)
            assert abs(norm_sq - 1.0) < 1e-12

    def test_inverse_composes_to_identity(self, rng):
        # G^-1 = S G S: S and the reflection are both involutions.
        iterate = grover_iterate(WORKED)
        for _ in range(20):
            state = random_state(WORKED.layout(), rng)
            back = flip_marked(iterate.apply(flip_marked(iterate.apply(state))))
            assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12

    def test_raw_and_state_application_agree(self, rng):
        # G = (2|psi><psi| - I) S as a dense matrix, on a 6-qubit instance.
        spec = PreparationSpec(DataTable((1, 2), 2), DataTable((2, 3), 2))
        layout = spec.layout()
        iterate = grover_iterate(spec)
        psi = iterate.prepared.amplitudes
        signs = np.where(layout.index_values(DATA_B) == 0, -1.0, 1.0)
        matrix = (2.0 * np.outer(psi, psi.conj()) - np.eye(layout.dim)) * signs
        for _ in range(5):
            state = random_state(layout, rng)
            assert np.max(np.abs(iterate.apply(state).amplitudes
                                 - matrix @ state.amplitudes)) < 1e-12
            inverse = flip_marked(iterate.apply(flip_marked(state)))
            assert np.max(np.abs(inverse.amplitudes
                                 - matrix.conj().T @ state.amplitudes)) < 1e-12

    def test_repeated_application_gives_the_circuit_distribution(self, rng):
        # The FFT of the iterate's powers on the initial state, the literal
        # circuit's rows, is the plane's closed form at every outcome.
        bits = 4
        for _ in range(5):
            spec = random_spec(rng)
            iterate = grover_iterate(spec)
            initial = random_state(spec.layout(), rng)
            support = align(initial, iterate.prepared)[0]
            rows = np.zeros((1 << bits, len(support)), dtype=np.complex128)
            state = initial
            for z in range(1 << bits):
                rows[z, np.searchsorted(support, state.indices)] = state.values
                state = iterate.apply(state)
            probs = np.sum(np.abs(np.fft.fft(rows, axis=0) / (1 << bits)) ** 2,
                           axis=1)
            plane = _Plane.of(iterate.prepared).on(spec, initial)
            closed = plane.probabilities(bits, np.arange(1 << bits))
            assert np.max(np.abs(probs - closed)) < 1e-12

    def test_apply_keeps_only_nonzero_branches(self):
        # |psi> has 16 unmarked branches of amplitude 1/4.  With 12 of them
        # at +1/4 and 4 at -1/4, <psi|x> = 1/2, so G x = |psi> - x cancels
        # the 12 exactly and doubles the 4.
        spec = PreparationSpec(DataTable((1, 2, 5, 6), 4), DataTable((3, 4, 7, 8), 4))
        iterate = grover_iterate(spec)
        branches = iterate.prepared.indices
        state = QuantumState.from_branches(spec.layout(), branches,
                                           [0.25] * 12 + [-0.25] * 4)
        out = iterate.apply(state)
        assert out.indices.tolist() == branches[12:].tolist()
        assert out.values.tolist() == [0.5] * 4

    def test_apply_refuses_another_layout(self):
        with pytest.raises(ValueError, match="layout does not match"):
            grover_iterate(DISJOINT).apply(prepare_joint(WORKED))


class TestExactCount:
    def test_worked_instance(self):
        assert exact_count(prepare_joint(WORKED)) == 1

    def test_disjoint_sets(self):
        assert exact_count(prepare_joint(DISJOINT)) == 0

    def test_identical_sets(self):
        spec = PreparationSpec(DataTable((1, 2, 5, 6), 4), DataTable((1, 2, 5, 6), 4))
        assert exact_count(prepare_joint(spec)) == 4

    def test_non_uniform_state_rejected(self):
        from qgi import QuantumState
        layout = WORKED.layout()
        amps = np.zeros(layout.dim, dtype=complex)
        amps[0] = math.sqrt(0.75)
        amps[1] = math.sqrt(0.25)
        with pytest.raises(ValueError, match="not an honest preparation"):
            exact_count(dense_state(layout, amps))


class TestPhaseEstimate:
    def test_success_runs_are_computed_once_per_key(self, monkeypatch):
        # A repeated exact estimate is one hit of the memoized read, which
        # bisects no success runs; a cold read of the same key bisects them
        # once.
        calls, original = [], qgi.counting._success_runs

        def counted(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(qgi.counting, "_success_runs", counted)
        phase_estimate(WORKED)
        calls.clear()
        phase_estimate(WORKED)
        assert calls == []
        _exact_read.cache_clear()
        phase_estimate(WORKED)
        assert calls == [(1, 16, 7)]

    @pytest.mark.parametrize("spec", [WORKED, DISJOINT])
    def test_t_rounded_is_the_windows_decode(self, spec):
        estimates = [phase_estimate(spec)] + [
            phase_estimate(spec, CountingConfig(mode="sample"),
                           rng=np.random.default_rng(seed)) for seed in range(20)]
        for est in estimates:
            assert est.t_rounded == _rounded_count(est.y, spec.size_k, est.bits)

    def test_worked_instance_decodes_one_match(self):
        est = phase_estimate(WORKED, CountingConfig(bits=7))
        assert est.t_rounded == 1
        assert est.success_prob >= EIGHT_OVER_PI_SQ
        assert decide_intersection(est) is Verdict.INTERSECT

    def test_estimate_invariants(self):
        est = phase_estimate(WORKED, CountingConfig(bits=7))
        assert 0 <= est.y < 2 ** 7
        assert abs(est.t_hat - decode_count(est.y, 16, 7)) < 1e-12
        assert 0.0 <= est.t_hat <= 16.0
        assert est.t_rounded == round(est.t_hat)
        assert abs(est.theta_hat - 2 * math.pi * est.y / 128) < 1e-12
        assert abs(est.distribution.sum() - 1.0) < 1e-12

    def test_no_match_is_deterministic_zero(self):
        est = phase_estimate(DISJOINT)
        assert est.y == 0
        assert est.distribution[0] >= 1.0 - 1e-10
        assert est.t_rounded == 0
        assert decide_intersection(est) is Verdict.DISJOINT

    def test_full_overlap_singleton_hits_half_turn(self):
        spec = PreparationSpec(DataTable((5,), 3), DataTable((5,), 3))
        est = phase_estimate(spec, CountingConfig(bits=3))
        assert est.y == 4
        assert abs(est.distribution[4] - 1.0) < 1e-10
        assert est.t_rounded == 1
        assert decide_intersection(est) is Verdict.INTERSECT

    def test_map_decode_matches_exact_count_on_random_instances(self):
        gen = np.random.default_rng(777)
        for _ in range(25):
            spec = random_spec(gen)
            est = phase_estimate(spec)
            assert est.t_rounded == exact_count(prepare_joint(spec))

    def test_circuit_engine_respects_qubit_cap(self):
        # The ``circuit`` name marks runs whose data plus counting qubits
        # fit the budget, so its limit lies within the budget.
        assert CIRCUIT_AUTO_LIMIT <= QUBIT_BUDGET
        # 18 data + 9 counting qubits take the reduced engine.
        top = (1 << 6) - 1
        entries = tuple(range(1, 9))
        spec = PreparationSpec(DataTable(entries, 6),
                               DataTable(tuple(top - i for i in range(8)), 6))
        est = phase_estimate(spec)
        assert (est.engine, est.bits) == ("reduced", 9)

    def test_auto_picks_the_circuit_up_to_twenty_qubits(self):
        # The worked instance has 12 data qubits.
        assert phase_estimate(WORKED, CountingConfig(bits=8)).engine == "circuit"
        assert phase_estimate(WORKED, CountingConfig(bits=9)).engine == "reduced"

    def test_counting_bits_above_the_cap_rejected(self):
        # The budget caps what is built.  Sample mode and a read
        # distribution hold all 2^bits outcomes; exact mode holds the
        # peaks and the success windows, summed 2^17 outcomes at a time,
        # and admits up to 27 bits whatever the windows' length.
        with pytest.raises(ValueError, match="outcome distribution of 25 qubits "
                                             "exceeds the cap of 24"):
            phase_estimate(WORKED, CountingConfig(bits=25, mode="sample"),
                           rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="28 qubits exceeds the cap of 27"):
            phase_estimate(WORKED, CountingConfig(bits=28))
        # The one pair's windows are the widest exact mode meets: 2^26
        # outcomes at 27 bits.
        for bits in (26, 27):
            tracemalloc.start()
            try:
                est = phase_estimate(SINGLE, CountingConfig(bits=bits))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (est.t_rounded, est.y, est.success_prob) == (1, 2 ** (bits - 1), 1.0)
            assert peak < 150 * 2 ** 20
        est = phase_estimate(WORKED, CountingConfig(bits=25))
        assert (est.t_rounded, est.bits) == (1, 25)
        assert est.success_prob >= EIGHT_OVER_PI_SQ
        with pytest.raises(ValueError, match="outcome distribution of 25 qubits "
                                             "exceeds the cap of 24"):
            est.distribution

    @pytest.mark.parametrize("spec", [WORKED, SINGLE])
    def test_exact_planning_never_bisects_the_decode(self, spec, monkeypatch):
        # Planning is arithmetic on the sizes: the success runs are found
        # only by the exact read, after a state is prepared.
        def refuse(*args):
            raise AssertionError("plan_counting bisected the decode")
        monkeypatch.setattr(qgi.counting, "_success_runs", refuse)
        for bits in range(1, 28):
            assert plan_counting(spec, CountingConfig(bits=bits))[0] == bits

    def test_exact_reduced_builds_no_outcome_table_unless_read(self):
        # One table of 2^20 float64 outcomes is 8 MiB.  Exact mode evaluates
        # the candidate peaks and the success windows, about 90,000
        # outcomes for the worked pair's t = 1 of 16.
        cfg = CountingConfig(bits=20)
        phase_estimate(WORKED, cfg)
        tracemalloc.start()
        try:
            est = phase_estimate(WORKED, cfg)
            unread = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert len(est.distribution) == 1 << 20
            read = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert unread < 8 * 2 ** 20 <= read

    def test_a_wide_success_window_is_summed_in_bounded_chunks(self):
        # At 27 bits the worked pair's t = 1 runs hold about 11M outcomes,
        # which evaluated at once peaked at 465 MB.
        tracemalloc.start()
        try:
            est = phase_estimate(WORKED, CountingConfig(bits=27))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (est.y, est.t_rounded, est.engine) == (10795216, 1, "reduced")
        assert est.success_prob >= 1.0 - 1e-6
        assert peak < 150 * 2 ** 20

    # 8 bits plan as ``circuit`` on both specs' 10 and 12 data qubits, 11
    # as ``reduced``.
    @pytest.mark.parametrize("engine, bits", [("circuit", 8), ("reduced", 11)],
                             ids=["circuit", "reduced"])
    def test_chunked_window_sum_equals_the_single_call(self, engine, bits,
                                                       monkeypatch):
        # Chunks of 7 split the candidates from the runs and each run in
        # pieces; the estimate and its sum must not move beyond rounding.
        specs = (WORKED, DISJOINT)
        whole = [phase_estimate(spec, CountingConfig(bits=bits)) for spec in specs]
        monkeypatch.setattr(qgi.counting, "_WINDOW_CHUNK", 7)
        _exact_read.cache_clear()  # or the reads below would be hits
        for spec, one in zip(specs, whole):
            chunked = phase_estimate(spec, CountingConfig(bits=bits))
            assert chunked.engine == one.engine == engine
            assert (chunked.y, chunked.t_rounded) == (one.y, one.t_rounded)
            assert abs(chunked.success_prob - one.success_prob) < 1e-15

    def test_sample_mode_is_seed_deterministic(self):
        cfg = CountingConfig(mode="sample")
        one = phase_estimate(WORKED, cfg, rng=np.random.default_rng(5))
        two = phase_estimate(WORKED, cfg, rng=np.random.default_rng(5))
        other = phase_estimate(WORKED, cfg, rng=np.random.default_rng(6))
        assert one.y == two.y
        assert one.success_prob is None
        assert 0 <= other.y < 128

    def test_sample_mode_needs_a_generator(self):
        with pytest.raises(ValueError, match="sample mode needs a generator"):
            phase_estimate(WORKED, CountingConfig(mode="sample"))

    def test_auto_engine_choice_ignores_the_initial_state(self):
        collapsed = prepare_joint(WORKED)
        est = phase_estimate(WORKED, initial_state=collapsed)
        assert est.engine == "circuit"
        assert est.success_prob is None

    @pytest.mark.parametrize("bits", [1, 3, 6])
    def test_circuit_matches_the_dense_literal_circuit(self, bits):
        # Fixed cases beside the drawn ones: random specs, t = 0 (DISJOINT)
        # and t = K (SINGLE), each counting the preparation, a dense state
        # and a sparse one, and a state wholly off the plane.
        gen = np.random.default_rng(5300 + bits)
        cases = [(WORKED, OFF_PLANE)]
        for spec in [random_spec(gen) for _ in range(12)] + [DISJOINT, SINGLE]:
            layout = spec.layout()
            prepared = prepare_joint(spec)
            # Part of the prepared support plus three stray branches.
            stray = np.setdiff1d(np.arange(layout.dim), prepared.indices)
            kept = prepared.indices[gen.random(len(prepared.indices)) < 0.5]
            indices = np.concatenate([kept, gen.choice(stray, 3, replace=False)])
            amps = gen.normal(size=len(indices)) + 1j * gen.normal(size=len(indices))
            sparse = QuantumState.from_branches(layout, indices,
                                                amps / np.linalg.norm(amps))
            cases += [(spec, None), (spec, random_state(layout, gen)), (spec, sparse)]
        for spec, state in cases:
            est = phase_estimate(spec, CountingConfig(bits=bits), initial_state=state)
            dense = dense_circuit_distribution(spec, bits, state or prepare_joint(spec))
            assert est.engine == "circuit"
            assert np.max(np.abs(est.distribution - dense)) < 1e-12
            assert est.y == np.flatnonzero(dense >= dense.max() - 1e-12)[0]

    def test_an_estimate_passes_over_the_support_once(self, monkeypatch,
                                                       worked_scenes):
        # An estimate reads the plane summary, the honesty check and the
        # true count off one pass over each state's branches and never
        # steps the iterate: at 12 bits its 4,096 powers are the plane's
        # rotations.  While counting, each state's amplitudes are squared
        # once; Bob's data register is extracted once from a preparation's
        # branches, and each of the four registers once from a disturbed
        # state's, and nothing else is built, through a run of the
        # protocol too.  A disturbed run holds no preparation, so its
        # count passes over the counted state alone.
        passes, steps, counting, squared, extracted = [], [], [], [], []
        plane_of = _Plane.of.__func__
        registers = [ADDR_A, ADDR_B, DATA_A, DATA_B]

        def counted(cls, prepared):
            passes.append(prepared)
            return plane_of(cls, prepared)
        monkeypatch.setattr(_Plane, "of", classmethod(counted))
        monkeypatch.setattr(qgi.counting, "reflect", lambda *args: steps.append(args))

        class Numpy:  # numpy, recording the arrays |.| is taken of while counting
            def __getattr__(self, name):
                return getattr(np, name)

            def abs(self, array):
                if counting:
                    squared.append(array)
                return np.abs(array)
        monkeypatch.setattr(qgi.counting, "np", Numpy())

        def extract(layout, index, name, _original=RegisterLayout.extract):
            if counting:
                extracted.append((index, name))
            return _original(layout, index, name)
        monkeypatch.setattr(RegisterLayout, "extract", extract)
        for name in ("branch_probabilities", "register_values"):
            def refused(state, *args, _original=getattr(QuantumState, name)):
                assert not counting, "counting made a second pass over the branches"
                return _original(state, *args)
            monkeypatch.setattr(QuantumState, name, refused)

        def estimate(*args, **kwargs):
            counting.append(True)
            try:
                return phase_estimate(*args, **kwargs)
            finally:
                counting.clear()
        monkeypatch.setattr(qgi.protocol, "phase_estimate", estimate)
        held = prepare_joint(WORKED)
        disturbed = random_state(WORKED.layout(), np.random.default_rng(24))
        for cfg, state, gen in ((CountingConfig(bits=12), None, None),
                                (CountingConfig(bits=12, mode="sample"), disturbed,
                                 np.random.default_rng(0))):
            for log in (passes, squared, extracted):
                log.clear()
            est = estimate(WORKED, cfg, initial_state=state, rng=gen, prepared=held)
            assert (passes, steps) == ([held], [])
            read = [held] if state is None else [held, state]
            assert len(squared) == len(read)
            assert all(values is each.values for values, each in zip(squared, read))
            # Identical index arrays, so no element-wise comparison is made.
            assert extracted == [(held.indices, DATA_B)] + (
                [] if state is None else [(state.indices, name) for name in registers])
        for adversary in (HONEST, AdversaryStrategy.parse("alice-measure-result")):
            for log in (passes, squared, extracted):
                log.clear()
            run = run_protocol(*worked_scenes, adversary=adversary, seed=3)
            # Measuring the pair-XOR leaves a state almost wholly off the plane.
            assert run.estimate.t_rounded == (1 if adversary is HONEST else 16)
            assert (len(passes), steps) == (int(adversary is HONEST), [])
            assert (len(squared), [name for _, name in extracted]) == (
                (1, [DATA_B]) if adversary is HONEST else (1, registers))

    def test_a_state_off_the_preparation_lies_off_the_plane(self):
        # No branch of the counted state is one of the preparation's, so
        # none is on its axis: its whole mass is off the plane, as the
        # literal circuit shows.
        prepared = prepare_joint(WORKED)
        assert not np.intersect1d(OFF_PLANE.indices, prepared.indices).size
        plane = _Plane.of(prepared).on(WORKED, OFF_PLANE)
        assert (plane.a, plane.b) == (0, 0)
        assert abs(plane.off_marked + plane.off_unmarked - 1.0) < 1e-15
        est = phase_estimate(WORKED, CountingConfig(bits=7), initial_state=OFF_PLANE)
        literal = dense_circuit_distribution(WORKED, 7, OFF_PLANE)
        assert np.max(np.abs(est.distribution - literal)) < 1e-12

    def test_circuit_peak_memory_stays_on_the_branches(self):
        # 8 bits on the 16 branches; a dense row of 4,096 amplitudes for
        # each of the 256 powers would be 16 MB.
        tracemalloc.start()
        try:
            phase_estimate(WORKED, CountingConfig(bits=8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_a_dense_disturbed_state_is_counted_in_bounded_memory(self):
        # A dense 4,096-branch state at 12 bits: the plane pass holds arrays
        # of its branches, where a row of them for each of the 4,096 powers
        # would take 4,096 x 4,096 x 16 B = 256 MB.
        state = random_state(WORKED.layout(), np.random.default_rng(12))
        tracemalloc.start()
        try:
            phase_estimate(WORKED, CountingConfig(bits=12), initial_state=state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_circuit_runs_build_no_dense_view(self, worked_scenes, monkeypatch):
        def refuse(*args):
            raise AssertionError("dense view built")
        monkeypatch.setattr(QuantumState, "amplitudes", property(refuse))
        monkeypatch.setattr(RegisterLayout, "index_values", refuse)
        for label in ("honest", "bob-measure-all", "bob-measure-data",
                      "alice-measure-result"):
            transcript = run_protocol(*worked_scenes, seed=3,
                                      adversary=AdversaryStrategy.parse(label))
            assert transcript.estimate.engine == "circuit"

    def test_exact_estimate_is_the_lower_of_mirror_peaks(self):
        # An honest distribution is symmetric under y -> 2^bits - y.
        gen = np.random.default_rng(1)
        for _ in range(40):
            est = phase_estimate(random_spec(gen))
            assert est.y <= 1 << (est.bits - 1)

    def test_a_held_preparation_replaces_a_fresh_one(self):
        est = phase_estimate(WORKED, prepared=prepare_joint(WORKED))
        fresh = phase_estimate(WORKED)
        assert (est.y, est.success_prob) == (fresh.y, fresh.success_prob)
        assert np.array_equal(est.distribution, fresh.distribution)

    def test_a_disturbed_state_on_another_layout_is_refused(self):
        # Three value bits where the worked pair has four.
        other = prepare_joint(PreparationSpec(DataTable((1,), 3), DataTable((2,), 3)))
        with pytest.raises(ValueError, match="state layout does not match the preparation"):
            phase_estimate(WORKED, initial_state=other)

    def test_a_held_preparation_is_checked(self):
        with pytest.raises(ValueError, match="layout"):
            phase_estimate(DISJOINT, prepared=prepare_joint(WORKED))
        skewed = random_state(WORKED.layout(), np.random.default_rng(8))
        with pytest.raises(ValueError, match="not uniform"):
            phase_estimate(WORKED, prepared=skewed)
        # Every iterate reflects about the preparation, so a disturbed
        # estimate checks it too, in either mode.
        for state in (prepare_joint(WORKED), random_state(WORKED.layout(),
                                                          np.random.default_rng(9))):
            for cfg in (CountingConfig(), CountingConfig(mode="sample")):
                with pytest.raises(ValueError, match="not uniform"):
                    phase_estimate(WORKED, cfg, initial_state=state, prepared=skewed,
                                   rng=np.random.default_rng(0))

    def test_a_count_with_no_state_builds_nothing(self, monkeypatch, states_built):
        # t = |A ∩ B| and K = M * N come from the tables.
        def refused(spec):
            raise AssertionError("a preparation was built")
        monkeypatch.setattr(qgi.counting, "prepare_joint", refused)
        for spec, t in ((WORKED, 1), (DISJOINT, 0), (THREE_OF_NINE, 3)):
            assert phase_estimate(spec).t_rounded == t
        assert states_built == []

    def test_a_held_state_that_is_not_the_preparation_is_refused(self):
        # Both pairs of A = B = (1, 2) match; with 1 XORed into Bob's data
        # register none does, a uniform state on the spec's layout that
        # read as the preparation gave t = 0 with success_prob 1.0.
        spec = PreparationSpec(DataTable((1, 2), 2), DataTable((1, 2), 2))
        held = xor_register(prepare_joint(spec), DATA_B, 1)
        for state in (None, random_state(spec.layout(), np.random.default_rng(34))):
            with pytest.raises(ValueError, match="marks 0 of 4 branches; the spec's "
                                                 "tables match 2 of 4 pairs"):
                phase_estimate(spec, initial_state=state, prepared=held)
        # Disjoint tables mark no pair: a uniform state of 2 of the 4
        # branches marks none either, but is not the preparation.
        part = QuantumState.from_branches(DISJOINT.layout(),
                                          prepare_joint(DISJOINT).indices[:2],
                                          [2 ** -0.5] * 2)
        with pytest.raises(ValueError, match="marks 0 of 2 branches"):
            phase_estimate(DISJOINT, prepared=part)

    def test_a_held_preparation_does_not_change_a_disturbed_count(self):
        gen = np.random.default_rng(34)
        for spec in [random_spec(gen) for _ in range(10)] + [WORKED, SINGLE]:
            held = prepare_joint(spec)
            states = [random_state(spec.layout(), gen), held]
            for state in states + [OFF_PLANE] * (spec is WORKED):
                alone = phase_estimate(spec, initial_state=state)
                both = phase_estimate(spec, initial_state=state, prepared=held)
                assert ((both.y, both.t_rounded, both.success_prob)
                        == (alone.y, alone.t_rounded, alone.success_prob))
                assert np.array_equal(both.distribution, alone.distribution)


class TestExactRead:
    """The exact read is a pure function of the plane and the sizes, so
    it is memoized on them; every estimate still makes its plane pass."""

    def test_a_memoized_read_equals_a_cold_one(self):
        gen = np.random.default_rng(29)
        for _ in range(20):
            spec = random_spec(gen)
            prepared = prepare_joint(spec)
            for state in (None, random_state(spec.layout(), gen)):
                _exact_read.cache_clear()
                cold = phase_estimate(spec, initial_state=state, prepared=prepared)
                # An equal copy of the state has the same plane: a hit.
                copy = None if state is None else QuantumState.from_branches(
                    state.layout, state.indices.copy(), state.values.copy())
                hit = phase_estimate(spec, initial_state=copy, prepared=prepared)
                assert _exact_read.cache_info()[:2] == (1, 1)
                assert ((hit.y, hit.t_rounded, hit.success_prob)
                        == (cold.y, cold.t_rounded, cold.success_prob))
                assert np.array_equal(hit.distribution, cold.distribution)

    # The default 7 bits plan as ``circuit`` on the worked pair, 12 as
    # ``reduced``.
    @pytest.mark.parametrize("engine, bits", [("circuit", 7), ("reduced", 12)],
                             ids=["circuit", "reduced"])
    def test_a_repeated_estimate_costs_only_the_plane_pass(self, engine, bits,
                                                           monkeypatch):
        cfg, held = CountingConfig(bits=bits), prepare_joint(WORKED)
        phase_estimate(WORKED, cfg, prepared=held)
        passes, evaluated = [], []
        plane_of, probabilities = _Plane.of.__func__, _Plane.probabilities

        def counted_of(cls, *args):
            passes.append(args)
            return plane_of(cls, *args)

        def counted_probabilities(plane, *args):
            evaluated.append(args)
            return probabilities(plane, *args)
        monkeypatch.setattr(_Plane, "of", classmethod(counted_of))
        monkeypatch.setattr(_Plane, "probabilities", counted_probabilities)
        est = phase_estimate(WORKED, cfg, prepared=held)
        assert (est.engine, est.t_rounded) == (engine, 1)
        assert (len(passes), len(evaluated)) == (1, 0)
        # With no state the plane comes from the tables: no pass at all.
        passes.clear()
        assert phase_estimate(WORKED, cfg).y == est.y
        assert (len(passes), len(evaluated)) == (0, 0)

    # One pair, matching or not: theta is pi or 0, so both peaks sit exactly
    # on y = n/2 or on y = 0, and at 27 bits 2^26 outcomes decode to each count.
    @pytest.mark.parametrize("entry_b, y", [(6, 1 << 26), (7, 0)])
    def test_an_exact_delta_plane_reads_only_its_peaks(self, entry_b, y, monkeypatch):
        # P is 0 off the candidates, so the success sum adds those in a run
        # and evaluates no other outcome: a dozen at most, each at most twice.
        spec = PreparationSpec(DataTable((6,), 4), DataTable((entry_b,), 4))
        evaluated, probabilities = [], _Plane.probabilities

        def counted(plane, bits, ys):
            evaluated.append(len(ys))
            return probabilities(plane, bits, ys)
        monkeypatch.setattr(_Plane, "probabilities", counted)
        est = phase_estimate(spec, CountingConfig(bits=27))
        assert (est.y, est.success_prob) == (y, 1.0)
        assert sum(evaluated) <= 24

    def test_a_memoized_plane_still_checks_each_preparation(self, worked_scenes):
        honest = run_protocol(*worked_scenes)
        assert (honest.verdict, _exact_read.cache_info().currsize) == (Verdict.INTERSECT, 1)
        skewed = random_state(WORKED.layout(), np.random.default_rng(8))
        with pytest.raises(ValueError, match="not uniform"):
            phase_estimate(WORKED, prepared=skewed)
        tampered = run_protocol(*worked_scenes,
                                adversary=AdversaryStrategy.parse("bob-tamper:1"))
        assert (tampered.verdict, tampered.estimate) == (Verdict.ABORT, None)

    def test_the_memo_holds_numbers_only(self):
        # 128 exact reads on the smallest layout at 16 bits, each of a
        # distinct disturbed state and so a distinct plane, fill the memo
        # under the ``circuit`` name; a table of 2^16 outcomes an entry
        # would keep 64 MiB once the estimates are gone.
        smallest = PreparationSpec(DataTable((1,), 1), DataTable((1,), 1))
        cfg, prepared = CountingConfig(bits=16), prepare_joint(smallest)
        gen = np.random.default_rng(41)
        entries = _exact_read.cache_info().maxsize
        tracemalloc.start()
        try:
            estimates = [phase_estimate(smallest, cfg, prepared=prepared,
                                        initial_state=random_state(smallest.layout(), gen))
                         for _ in range(entries)]
            assert {est.engine for est in estimates} == {"circuit"}
            del estimates
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert _exact_read.cache_info().currsize == entries
        assert kept < 2 ** 20

    def test_a_read_reduced_distribution_is_not_kept(self):
        # 2^20 float64 outcomes are 8 MiB: built when read, freed with the
        # estimate, never held by the memo.
        tracemalloc.start()
        try:
            est = phase_estimate(WORKED, CountingConfig(bits=20))
            assert len(est.distribution) == 1 << 20
            del est
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert _exact_read.cache_info().currsize == 1
        assert kept < 8 * 2 ** 20
