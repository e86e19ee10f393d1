import collections
import dataclasses
import math
import sys

import numpy as np
import pytest

import qgi.counting
import qgi.oracles
import qgi.protocol
import qgi.registers
import qgi.state
from qgi import (ADDR_A, ADDR_B, DATA_A, DATA_B, HONEST, AdversaryStrategy, Attack,
                 CountingConfig, DataTable, GridConfig, PreparationSpec,
                 ProtocolTranscript, Rect, Scene, Verdict, build_preparation,
                 classical_intersect, comm_cost, detection_probability,
                 leakage_report, phase_estimate, prepare_encoded, rasterize,
                 run_protocol, tensor)
from qgi.protocol import AliceParty, BobParty, StepRecord
from support import expanded_detection_probability, gram_entropy, random_state


class TestHonestRuns:
    def test_worked_example_intersects(self, worked_scenes):
        transcript = run_protocol(*worked_scenes)
        assert transcript.verdict is Verdict.INTERSECT
        assert transcript.estimate.t_rounded == 1
        check = next(r for r in transcript.steps
                     if r.action == "uncompute_and_check")
        assert check.detail["pass_probability"] == 1.0
        assert check.detail["passed"] is True

    def test_disjoint_scenes(self, grid4):
        transcript = run_protocol(Scene(grid4, cells=(1, 2)),
                                  Scene(grid4, cells=(3, 4)))
        assert transcript.verdict is Verdict.DISJOINT
        assert transcript.estimate.t_rounded == 0

    def test_transcript_message_sizes_match_layouts(self, worked_scenes):
        transcript = run_protocol(*worked_scenes)
        sent = {r.step: r.qubits_sent for r in transcript.steps
                if r.qubits_sent is not None}
        cost = transcript.cost
        assert sent[1] == cost.alice_to_bob_qubits == 6
        assert sent[2] == cost.bob_to_alice_qubits == 12

    def test_transcript_has_all_five_steps(self, worked_scenes):
        transcript = run_protocol(*worked_scenes)
        assert {r.step for r in transcript.steps} == {1, 2, 3, 4, 5}
        transcript.validate()
        doc = transcript.to_dict()
        assert doc["verdict"] == "INTERSECT"
        assert doc["complete"] is True

    def test_sample_mode_reproducible(self, worked_scenes):
        cfg = CountingConfig(mode="sample")
        one = run_protocol(*worked_scenes, cfg=cfg, seed=11)
        two = run_protocol(*worked_scenes, cfg=cfg, seed=11)
        assert one.to_dict() == two.to_dict()

    @pytest.mark.parametrize("seed", range(8))
    def test_sampled_check_takes_one_draw_before_counting(self, worked_scenes,
                                                          seed):
        # Seeded sample-mode transcripts depend on the check drawing
        # exactly one double from the run's generator.
        cfg = CountingConfig(mode="sample")
        run = run_protocol(*worked_scenes, cfg=cfg, seed=seed)
        check = next(r for r in run.steps if r.action == "uncompute_and_check")
        assert check.detail == {"passed": True}
        rng = np.random.default_rng(seed)
        rng.random()
        spec, _, _ = build_preparation(*worked_scenes)
        assert run.estimate.y == phase_estimate(spec, cfg, rng=rng).y

    def test_mismatched_grids_rejected(self, grid4):
        other = Scene(GridConfig(2, 2), cells=(1,))
        with pytest.raises(ValueError, match="share one grid"):
            run_protocol(Scene(grid4, cells=(1,)), other)

    def test_soundness_on_random_small_scenes(self, grid4, rng):
        for _ in range(30):
            size_a, size_b = rng.integers(1, 5, size=2)
            cells_a = tuple(sorted(int(c) for c in
                            rng.choice(np.arange(1, 16), size_a, replace=False)))
            cells_b = tuple(sorted(int(c) for c in
                            rng.choice(np.arange(1, 16), size_b, replace=False)))
            scene_a = Scene(grid4, cells=cells_a)
            scene_b = Scene(grid4, cells=cells_b)
            transcript = run_protocol(scene_a, scene_b)
            hit, _ = classical_intersect(rasterize(scene_a), rasterize(scene_b))
            expected = Verdict.INTERSECT if hit else Verdict.DISJOINT
            assert transcript.verdict is expected


class TestAdversaries:
    def test_strategy_parsing(self):
        assert AdversaryStrategy.parse("honest") == HONEST
        tampered = AdversaryStrategy.parse("bob-tamper:3")
        assert tampered.attack is Attack.BOB_TAMPER
        assert tampered.tamper_mask == 3
        assert tampered.label == "bob-tamper:3"
        with pytest.raises(ValueError, match="unknown adversary"):
            AdversaryStrategy.parse("eve")
        with pytest.raises(ValueError, match="needs a mask"):
            AdversaryStrategy.parse("bob-tamper")
        with pytest.raises(ValueError, match="mask must be an integer, got 'x1'"):
            AdversaryStrategy.parse("bob-tamper:x1")
        with pytest.raises(ValueError, match="does not take"):
            AdversaryStrategy.parse("honest:1")
        # Only ASCII decimal digits make a mask, and an empty argument
        # after a colon is refused.
        for mask in (" 1", "1_0", "+1", "-1", "\uff101"):
            with pytest.raises(ValueError, match="mask must be an integer"):
                AdversaryStrategy.parse(f"bob-tamper:{mask}")
        for text in ("honest:", "bob-measure-all:"):
            with pytest.raises(ValueError, match="does not take"):
                AdversaryStrategy.parse(text)
        assert AdversaryStrategy.parse("bob-tamper:01").tamper_mask == 1

    def test_strategy_validation(self):
        with pytest.raises(ValueError, match="nonzero mask"):
            AdversaryStrategy(Attack.BOB_TAMPER, 0)
        with pytest.raises(ValueError, match="does not take a mask"):
            AdversaryStrategy(Attack.HONEST, 1)

    def test_tamper_aborts_the_run(self, worked_scenes):
        adversary = AdversaryStrategy(Attack.BOB_TAMPER, 1)
        transcript = run_protocol(*worked_scenes, adversary=adversary)
        assert transcript.verdict is Verdict.ABORT
        assert transcript.estimate is None
        assert max(r.step for r in transcript.steps) == 3
        check = next(r for r in transcript.steps
                     if r.action == "uncompute_and_check")
        assert check.detail["pass_probability"] == 0.0
        transcript.validate()

    def test_oversized_tamper_mask_rejected(self, worked_scenes):
        adversary = AdversaryStrategy(Attack.BOB_TAMPER, 16)
        with pytest.raises(ValueError, match="mask 16"):
            run_protocol(*worked_scenes, adversary=adversary)

    def test_measure_attack_passes_check_and_completes(self, worked_scenes):
        adversary = AdversaryStrategy(Attack.BOB_MEASURE_ALL)
        transcript = run_protocol(*worked_scenes, adversary=adversary, seed=4)
        assert transcript.verdict in (Verdict.INTERSECT, Verdict.DISJOINT)
        check = next(r for r in transcript.steps
                     if r.action == "uncompute_and_check")
        assert check.detail["pass_probability"] == 1.0
        attack = next(r for r in transcript.steps
                      if r.action.startswith("attack:"))
        assert attack.step == 2
        assert transcript.estimate.engine == "circuit"
        assert transcript.estimate.success_prob is None

    def test_measure_attack_outcome_consistent(self, worked_scenes):
        # The collapsed address fixes the measured table value.
        adversary = AdversaryStrategy(Attack.BOB_MEASURE_ALL)
        table = (1, 2, 5, 6)
        for seed in range(6):
            transcript = run_protocol(*worked_scenes, adversary=adversary,
                                      seed=seed)
            attack = next(r for r in transcript.steps
                          if r.action.startswith("attack:"))
            assert attack.detail["data_outcome"] == \
                table[attack.detail["address_outcome"]]

    def test_alice_measure_result_records_an_xor(self, worked_scenes):
        adversary = AdversaryStrategy(Attack.ALICE_MEASURE_RESULT)
        transcript = run_protocol(*worked_scenes, adversary=adversary, seed=9)
        attack = next(r for r in transcript.steps
                      if r.action == "attack:alice-measure-result")
        table_a, table_b = (1, 2, 5, 6), (6, 7, 10, 11)
        xors = {a ^ b for a in table_a for b in table_b}
        assert attack.detail["measured_xor_value"] in xors
        assert transcript.verdict in (Verdict.INTERSECT, Verdict.DISJOINT)


class TestDetectionProbability:
    def test_honest_is_exactly_zero(self, worked_scenes):
        assert detection_probability(*worked_scenes, HONEST) == 0.0

    @pytest.mark.parametrize("mask", [1, 2, 7, 15])
    def test_tamper_is_exactly_one(self, worked_scenes, mask):
        adversary = AdversaryStrategy(Attack.BOB_TAMPER, mask)
        assert detection_probability(*worked_scenes, adversary) == 1.0

    def test_measurement_attacks_evade_the_check(self, worked_scenes):
        for attack in (Attack.BOB_MEASURE_ALL, Attack.BOB_MEASURE_DATA):
            prob = detection_probability(*worked_scenes,
                                         AdversaryStrategy(attack))
            assert prob == 0.0

    def test_alice_side_attack_cannot_trip_the_check(self, worked_scenes):
        adversary = AdversaryStrategy(Attack.ALICE_MEASURE_RESULT)
        assert detection_probability(*worked_scenes, adversary) == 0.0

    def test_exact_computation_is_deterministic(self, worked_scenes):
        adversary = AdversaryStrategy(Attack.BOB_MEASURE_DATA)
        first = detection_probability(*worked_scenes, adversary)
        second = detection_probability(*worked_scenes, adversary)
        assert first == second == 0.0


DETECTION_STRATEGIES = ["honest", "bob-measure-all", "bob-measure-data",
                        "bob-tamper:1"]


def random_cell_scenes(rng, side, max_cells):
    grid = GridConfig(side, side)
    top = (1 << grid.value_bits) - 1
    cells = [tuple(int(c) for c in rng.choice(np.arange(1, top + 1), n,
                                                replace=False))
             for n in rng.integers(1, max_cells + 1, size=2)]
    return Scene(grid, cells=cells[0]), Scene(grid, cells=cells[1])


class TestDetectionInOnePipeline:
    @pytest.mark.parametrize("side, max_cells", [(4, 4), (8, 8)])
    def test_equals_branch_expansion_on_dense_messages(self, monkeypatch,
                                                       side, max_cells):
        # A random dense message fails the check with a fractional
        # probability, so the measured branches carry unequal weights.
        rng = np.random.default_rng(7000 + side)
        for _ in range(8):
            scene_a, scene_b = random_cell_scenes(rng, side, max_cells)
            spec, _, _ = build_preparation(scene_a, scene_b)
            layout_a = prepare_encoded(spec.table_a, ADDR_A, DATA_A).layout
            message = random_state(layout_a, rng)
            monkeypatch.setattr(AliceParty, "prepare_message",
                                lambda self: message)
            for label in DETECTION_STRATEGIES:
                strategy = AdversaryStrategy.parse(label)
                prob = detection_probability(scene_a, scene_b, strategy)
                if label == "honest":
                    assert 0.0 < prob < 1.0
                reference = expanded_detection_probability(scene_a, scene_b,
                                                           strategy)
                assert abs(prob - reference) < 1e-12

    @pytest.mark.parametrize("label", DETECTION_STRATEGIES
                             + ["alice-measure-result"])
    def test_one_response_and_one_check_per_call(self, worked_scenes,
                                                 monkeypatch, label):
        calls = collections.Counter()
        respond, check = BobParty.respond, qgi.protocol.cheat_check

        def counted_respond(self, incoming):
            calls["respond"] += 1
            return respond(self, incoming)

        def counted_check(*args):
            calls["cheat_check"] += 1
            return check(*args)
        monkeypatch.setattr(BobParty, "respond", counted_respond)
        monkeypatch.setattr(qgi.protocol, "cheat_check", counted_check)
        detection_probability(*worked_scenes, AdversaryStrategy.parse(label))
        assert calls == {"respond": 1, "cheat_check": 1}


class TestCostSummary:
    def test_worked_sizes(self):
        cost = comm_cost(4, 4, 16)
        assert cost.alice_to_bob_qubits == 6
        assert cost.bob_to_alice_qubits == 12
        assert cost.total_qubits == 18
        assert cost.nominal_total_qubits == 22
        assert cost.baseline_bits == {"atallah": 1024, "qin": 1024}

    def test_minimum_widths(self):
        cost = comm_cost(1, 1, 1)
        assert (cost.address_bits_a, cost.address_bits_b, cost.value_bits) == (1, 1, 1)
        assert cost.total_qubits == 6

    def test_formulas_across_sizes(self, rng):
        for _ in range(20):
            size_a, size_b, cells = (int(v) for v in rng.integers(1, 40, size=3))
            cost = comm_cost(size_a, size_b, cells)
            m = max(1, math.ceil(math.log2(size_a)))
            n = max(1, math.ceil(math.log2(size_b)))
            r = max(1, math.ceil(math.log2(cells)))
            assert cost.total_qubits == 2 * m + n + 3 * r
            assert cost.nominal_total_qubits == 2 * m + n + 4 * r
            assert cost.baseline_bits["atallah"] == 4 * size_a ** 2 * cells
            assert cost.baseline_bits["qin"] == 2 * (size_a ** 2 + size_b ** 2) * cells

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError, match=">= 1"):
            comm_cost(0, 1, 16)

    def test_dict_is_a_shallow_copy_in_field_order(self):
        cost = comm_cost(4, 4, 16)
        doc = cost.to_dict()
        assert list(doc) == [f.name for f in dataclasses.fields(cost)]
        assert doc == dataclasses.asdict(cost)
        doc["baseline_bits"]["qin"] = 0
        assert cost.baseline_bits["qin"] == 1024


class TestLeakageReport:
    def test_worked_table(self):
        report = leakage_report(DataTable((1, 2, 5, 6), 4), 16)
        assert abs(report.ensemble_entropy_bits - 2.0) < 1e-9
        assert abs(report.nominal_bound_bits - 6.0) < 1e-12
        assert report.mean_state_entropy_bits == 0.0

    def test_single_entry_table_has_no_entropy(self):
        report = leakage_report(DataTable((5,), 4), 16)
        assert abs(report.ensemble_entropy_bits) < 1e-12

    def test_equals_the_dense_gram_spectrum(self, rng):
        for size in [1, 2, 3, 5, 8, 13, 32, 63, 64]:
            entries = rng.choice(np.arange(1, 256), size, replace=False)
            table = DataTable.from_serials(entries, 8)
            report = leakage_report(table, 255)
            assert abs(report.ensemble_entropy_bits - gram_entropy(table)) < 1e-12

    def test_has_no_cap_on_the_ensemble_size(self):
        table = DataTable(tuple(range(1, 4098)), 13)
        report = leakage_report(table, 8191)
        assert report.ensemble_entropy_bits == math.log2(4097)
        assert report.holevo_bound_bits == report.ensemble_entropy_bits

    def test_holevo_equals_ensemble_for_pure_states(self, rng):
        for _ in range(10):
            size = int(rng.integers(1, 9))
            entries = rng.choice(np.arange(1, 16), size, replace=False)
            report = leakage_report(DataTable.from_serials(entries, 4), 16)
            assert report.holevo_bound_bits == report.ensemble_entropy_bits
            assert abs(report.ensemble_entropy_bits - math.log2(size)) < 1e-9


def criterion_3_scene_pairs():
    """The acceptance sweep's pairs: every 4x4 rectangle of at most four
    encodable cells against every other, then 200 random 8x8 instances."""
    grid = GridConfig(4, 4)
    rects = [Rect(r0, c0, r1, c1)
             for r0 in range(4) for r1 in range(r0, 4)
             for c0 in range(4) for c1 in range(c0, 4)
             if (r1 - r0 + 1) * (c1 - c0 + 1) <= 4 and (r1, c1) != (3, 3)]
    scenes = [Scene(grid, rects=(rect,)) for rect in rects]
    assert len(scenes) == 65
    pairs = [(a, b) for a in scenes for b in scenes]
    rng = np.random.default_rng(240811)
    grid8 = GridConfig(8, 8)
    top8 = (1 << grid8.value_bits) - 1
    for _ in range(200):
        sizes = rng.integers(1, 9, size=2)
        cells = [tuple(sorted(int(c) for c in
                              rng.choice(np.arange(1, top8 + 1), n, replace=False)))
                 for n in sizes]
        pairs.append((Scene(grid8, cells=cells[0]), Scene(grid8, cells=cells[1])))
    return pairs


class TestOnePreparationPerRun:
    @pytest.fixture
    def preparations(self, monkeypatch):
        calls = []
        original = qgi.counting.prepare_joint

        def counted(spec):
            calls.append(spec)
            return original(spec)
        monkeypatch.setattr(qgi.counting, "prepare_joint", counted)
        return calls

    @pytest.mark.parametrize("mode", ["exact", "sample"])
    def test_honest_run_counts_on_the_state_alice_holds(self, worked_scenes,
                                                        preparations, mode):
        transcript = run_protocol(*worked_scenes,
                                  cfg=CountingConfig(mode=mode), seed=3)
        assert transcript.estimate is not None
        assert preparations == []

    @pytest.mark.parametrize("attack", [Attack.BOB_MEASURE_ALL,
                                        Attack.BOB_MEASURE_DATA,
                                        Attack.ALICE_MEASURE_RESULT])
    def test_disturbed_run_prepares_the_axis_once(self, worked_scenes,
                                                  preparations, attack):
        transcript = run_protocol(*worked_scenes,
                                  adversary=AdversaryStrategy(attack), seed=5)
        assert transcript.estimate is not None
        assert len(preparations) == 1

    @pytest.fixture
    def alignments(self, monkeypatch):
        calls = []
        original = qgi.counting.align

        def counted(*states):
            calls.append(len(states))
            return original(*states)
        monkeypatch.setattr(qgi.counting, "align", counted)
        return calls

    @pytest.mark.parametrize("cfg", [CountingConfig(),
                                     CountingConfig(mode="sample"),
                                     CountingConfig(engine="reduced")])
    def test_honest_run_aligns_nothing(self, worked_scenes, alignments, cfg):
        # The counted state is the axis itself, so its branches are the support.
        assert run_protocol(*worked_scenes, cfg=cfg, seed=3).estimate is not None
        assert alignments == []

    def test_disturbed_run_aligns_its_state_with_the_axis(self, worked_scenes,
                                                          alignments):
        transcript = run_protocol(
            *worked_scenes, adversary=AdversaryStrategy(Attack.BOB_MEASURE_ALL),
            seed=5)
        assert transcript.estimate is not None
        assert alignments == [2]

    def test_exact_honest_run_builds_no_generator(self, worked_scenes,
                                                  monkeypatch):
        def refuse(*args):
            raise AssertionError("generator built")
        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert run_protocol(*worked_scenes, seed=4).verdict is Verdict.INTERSECT

    @pytest.fixture
    def state_sorts(self, monkeypatch):
        """Call stack (function names, innermost first) of each np.argsort
        that qgi.state makes."""
        calls = []
        original = np.argsort

        def counted(*args, **kwargs):
            frame = sys._getframe(1)
            if frame.f_globals["__name__"] == "qgi.state":
                names = []
                while frame is not None:
                    names.append(frame.f_code.co_name)
                    frame = frame.f_back
                calls.append(names)
            return original(*args, **kwargs)
        monkeypatch.setattr(np, "argsort", counted)
        return calls

    @pytest.mark.parametrize("grid, shapes_a, shapes_b", [
        (GridConfig(4, 4), ((Rect(0, 0, 1, 1),), ()), ((Rect(1, 1, 2, 2),), ())),
        (GridConfig(8, 8), ((Rect(0, 0, 2, 3),), ()), ((Rect(1, 2, 4, 4),), (60, 7))),
    ])
    def test_honest_run_sorts_only_the_xored_branches(self, state_sorts, grid,
                                                      shapes_a, shapes_b):
        # Preparation, tensor, loads and the check keep the branches in
        # order, and so does Bob's XOR, into the lowest register.
        transcript = run_protocol(Scene(grid, *shapes_a), Scene(grid, *shapes_b))
        assert transcript.verdict is Verdict.INTERSECT
        assert state_sorts == []

    @pytest.mark.parametrize("adversary", [
        "honest", "bob-tamper:5", "bob-measure-all", "bob-measure-data",
        "alice-measure-result"])
    def test_no_run_reorders_its_branches(self, state_sorts, adversary):
        grid = GridConfig(8, 8)
        transcript = run_protocol(
            Scene(grid, rects=(Rect(0, 0, 2, 3),)),
            Scene(grid, rects=(Rect(1, 2, 4, 4),), cells=(60, 7)),
            adversary=AdversaryStrategy.parse(adversary), seed=11)
        assert transcript.verdict is not None
        assert [names for names in state_sorts if names[0] == "_moved"] == []

    @pytest.mark.parametrize("tamper_mask", [0, 9])
    def test_tables_in_any_order_are_not_sorted(self, state_sorts, tamper_mask):
        spec = PreparationSpec(DataTable((13, 2, 40, 7, 1), 6),
                               DataTable((33, 7, 12), 6))
        qgi.oracles.prepare_joint(spec)
        qgi.protocol._detection(spec, tamper_mask)
        assert state_sorts == []

    def test_honest_run_builds_six_states(self, worked_scenes, states_built):
        # Alice's message, Bob's own message, the tensor, the XOR, the
        # uncompute and the check's collapse; counting builds none.
        assert run_protocol(*worked_scenes).verdict is Verdict.INTERSECT
        assert len(states_built) == 6

    def test_second_honest_run_builds_no_layout(self, worked_scenes, monkeypatch):
        # Layouts are interned, so the same sizes reuse the first run's.
        run_protocol(*worked_scenes)
        built = []
        original = qgi.registers.Register

        def counted(*args):
            built.append(args)
            return original(*args)
        monkeypatch.setattr(qgi.registers, "Register", counted)
        assert run_protocol(*worked_scenes).verdict is Verdict.INTERSECT
        assert built == []

    def test_joint_layout_is_the_specs(self, worked_scenes):
        spec, _, _ = build_preparation(*worked_scenes)
        message = prepare_encoded(spec.table_a, ADDR_A, DATA_A)
        own = prepare_encoded(spec.table_b, ADDR_B, DATA_B)
        assert tensor(own, message).layout is spec.layout()
        assert spec.layout().names == (DATA_B, ADDR_B, DATA_A, ADDR_A)

    def test_honest_run_sums_four_norms(self, worked_scenes, monkeypatch):
        # Each message's check, and the check's probability and collapse;
        # the tensor of two checked messages is not summed again.
        sums = []
        original = qgi.state._norm_sq
        monkeypatch.setattr(qgi.state, "_norm_sq",
                            lambda values: sums.append(len(values)) or original(values))
        assert run_protocol(*worked_scenes).verdict is Verdict.INTERSECT
        assert sums == [4, 4, 16, 16]

    def test_honest_run_loads_a_table_once(self, worked_scenes, monkeypatch):
        # Each message is built with its table in it, so only Alice's
        # uncompute runs the loading oracle.
        addresses = []
        original = qgi.oracles.oracle_load

        def counted(state, addr, data, table):
            addresses.append(addr)
            return original(state, addr, data, table)
        monkeypatch.setattr(qgi.oracles, "oracle_load", counted)
        assert run_protocol(*worked_scenes).verdict is Verdict.INTERSECT
        assert addresses == [ADDR_A]

    def test_bobs_step_runs_once_per_caller(self, worked_scenes, monkeypatch):
        # Bob's tensor and XOR are written once, in ``oracles.respond``: a
        # run, the joint preparation and the detection analysis all take it.
        calls = []
        original = qgi.oracles.respond

        def counted(message, table_b):
            calls.append(table_b)
            return original(message, table_b)
        for module in (qgi.oracles, qgi.protocol):
            monkeypatch.setattr(module, "respond", counted)
        spec, _, _ = build_preparation(*worked_scenes)
        for call in (lambda: run_protocol(*worked_scenes),
                     lambda: qgi.oracles.prepare_joint(spec),
                     lambda: detection_probability(*worked_scenes)):
            calls.clear()
            call()
            assert calls == [spec.table_b]

    def test_honest_runs_equal_counting_on_a_fresh_preparation(self):
        for scene_a, scene_b in criterion_3_scene_pairs():
            spec, _, _ = build_preparation(scene_a, scene_b)
            run = run_protocol(scene_a, scene_b).estimate
            fresh = phase_estimate(spec)
            assert (run.y, run.t_rounded) == (fresh.y, fresh.t_rounded)
            assert np.max(np.abs(run.distribution - fresh.distribution)) < 1e-12
            assert abs(run.success_prob - fresh.success_prob) < 1e-12


class TestPrivacyBoundaries:
    def test_parties_only_hold_their_own_table(self, worked_scenes):
        spec, _, _ = build_preparation(*worked_scenes)
        alice = AliceParty(spec.table_a)
        bob = BobParty(spec.table_b)
        assert vars(alice) == {"table": spec.table_a}
        assert vars(bob) == {"table": spec.table_b}

    def test_alice_output_ignores_bobs_table(self):
        alice = AliceParty(DataTable((1, 2, 5, 6), 4))
        baseline = alice.prepare_message().amplitudes
        AliceParty(DataTable((1, 2, 5, 6), 4))  # unrelated instance
        poisoned_bob = BobParty(DataTable((9, 10), 4))
        del poisoned_bob
        assert np.array_equal(alice.prepare_message().amplitudes, baseline)

    def test_bob_response_depends_only_on_message_and_his_table(self):
        # Bob's step is a pure function of the incoming state and his own
        # table; poisoning Alice's table object cannot reach it.
        bob = BobParty(DataTable((6, 7, 10, 11), 4))
        alice = AliceParty(DataTable((1, 2, 5, 6), 4))
        message = alice.prepare_message()
        baseline = bob.respond(message).amplitudes
        alice.table = DataTable((15,), 4)  # poison after the message exists
        assert np.array_equal(bob.respond(message).amplitudes, baseline)


class TestTranscriptValidation:
    def test_out_of_order_steps_rejected(self, worked_scenes):
        transcript = run_protocol(*worked_scenes)
        transcript.steps = list(reversed(transcript.steps))
        with pytest.raises(ValueError, match="order"):
            transcript.validate()

    def test_abort_requires_failed_check(self, worked_scenes):
        transcript = run_protocol(*worked_scenes)
        broken = ProtocolTranscript(
            steps=[StepRecord(1, "alice", "prepare_and_send", 6)],
            verdict=Verdict.ABORT, estimate=None, cost=transcript.cost,
            adversary="honest", seed=None, mode="exact")
        with pytest.raises(ValueError, match="failed check"):
            broken.validate()

    def test_completed_run_requires_all_steps(self, worked_scenes):
        transcript = run_protocol(*worked_scenes)
        transcript.steps = [r for r in transcript.steps if r.step != 5]
        with pytest.raises(ValueError, match="missing steps"):
            transcript.validate()
