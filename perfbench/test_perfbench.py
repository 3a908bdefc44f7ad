"""Tests of the benchmark itself: every check flags a wrong result, and the
tracer counts calls wherever the caller looks a function up.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from run import Tally  # noqa: E402
from taulab import codec, constructions, fol, proofs, theories  # noqa: E402
from tracing import Tracer  # noqa: E402


class RaceCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.race = W.Race(seed=0)
        target = cls.race.target("pos")
        stream = constructions.plant_axiom(target, cls.race.stream)
        # the result of a sound run, as far as the check can see without
        # running the seven-second race
        cls.good = W.RaceResult("pos", stream, True, None, 100_310, 10,
                                False, None, W.Race.HONEST_BUDGET, 16_493)

    def flagged(self, **change):
        return self.race.check("pos", dataclasses.replace(self.good, **change))

    def test_sound_result_passes(self):
        self.assertIsNone(self.race.check("pos", self.good))

    def test_planted_proof_code_is_computed_apart_from_codec(self):
        self.assertEqual(W.Race.PLANTED_PROOF_CODE, codec.pair(1, codec.pair(1, 0)))
        self.assertEqual(W.Race.PLANTED_PROOF_CODE, 10)

    def test_each_wrong_field_is_flagged(self):
        wrong = [
            {"polarity": "neg"},
            {"planted_halted": False},
            {"planted_fault": "stuck"},
            {"planted_c": 11},
            # the planted stream of the other polarity has no proof of this target
            {"planted_stream": constructions.plant_axiom(self.race.target("neg"),
                                                         self.race.stream)},
            {"honest_halted": True},
            {"honest_fault": "stuck"},
            {"honest_steps": W.Race.HONEST_BUDGET - 1},
            {"honest_c": 0},
            {"honest_c": None},
        ]
        for change in wrong:
            with self.subTest(change=list(change)):
                self.assertIsNotNone(self.flagged(**change))


class SearchCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.search = W.Search(seed=0)

    def proof_of(self, formula, index):
        return proofs.Proof((proofs.ProofStep(formula, proofs.TheoryAxiom(index)),))

    def test_code_budget_is_the_one_step_proof_of_axiom_16(self):
        self.assertEqual(W.Search.CODE_BUDGET, 84_682)
        self.assertEqual(proofs.proof_to_code(self.proof_of(self.search.axiom, 16)), 84_682)

    def test_sound_results_pass(self):
        axiom = self.search.axiom
        self.assertIsNone(self.search.check(axiom, self.proof_of(axiom, 16)))
        for target in self.search.round(0)[1:]:
            self.assertIsNone(self.search.check(target, None))

    def test_wrong_results_are_flagged(self):
        axiom = self.search.axiom
        sentence = self.search.fixed[1]
        self.assertIsNotNone(self.search.check(axiom, None))
        self.assertIsNotNone(self.search.check(axiom, self.proof_of(axiom, 17)))
        self.assertIsNotNone(self.search.check(axiom, self.proof_of(sentence, 16)))
        self.assertIsNotNone(self.search.check(sentence, self.proof_of(sentence, 16)))

    def test_false_targets_are_false(self):
        for r in range(5):
            target = self.search.round(r)[-1]
            self.assertEqual(theories.eval_std(target), theories.FALSE_IN_STD)


class StreamCheck(unittest.TestCase):
    START = 6  # a cheap window; the benchmark's band starts at 4000

    @classmethod
    def setUpClass(cls):
        cls.stream = W.Stream(seed=0)
        cls.slots = cls.stream.run(cls.START)

    def with_slot(self, k, **change):
        slots = list(self.slots)
        slots[k] = dataclasses.replace(slots[k], **change)
        return self.stream.check(self.START, slots)

    def test_sound_window_passes(self):
        self.assertIsNone(self.stream.check(self.START, self.slots))
        self.assertEqual(self.stream.work(self.slots), W.Stream.WIDTH)

    def test_wrong_slots_are_flagged(self):
        odd = 1  # slot 7, the first segment axiom
        self.assertIsNotNone(self.with_slot(odd, emitted=theories.segment_axiom(1)))
        self.assertIsNotNone(self.with_slot(odd, emitted=None))
        self.assertIsNotNone(self.with_slot(odd, member=False))
        self.assertIsNotNone(self.with_slot(odd, segment=1))
        self.assertIsNotNone(self.with_slot(0, segment=0))
        self.assertIsNotNone(self.stream.check(self.START, self.slots[::-1]))

    def test_windows_hold_equal_work(self):
        for start in self.stream.round(3):
            self.assertEqual(start % 2, 0)
            self.assertLessEqual(start + W.Stream.WIDTH,
                                 W.Stream.BAND_START + W.Stream.BAND_WIDTH)


class DecideCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.decide = W.Decide(seed=0)
        cls.corpus = W.order_corpus(W.seeded_rng(0), 24)
        cls.state = cls.decide.run(cls.corpus)

    def test_sound_completion_passes(self):
        self.assertIsNone(self.decide.check(self.corpus, self.state))
        self.assertEqual(self.decide.work(self.state), 24)

    def test_flipped_polarity_is_flagged(self):
        committed = list(self.state.committed)
        f, asserted = committed[3]
        committed[3] = (f, not asserted)
        state = dataclasses.replace(self.state, committed=tuple(committed))
        self.assertIsNotNone(self.decide.check(self.corpus, state))

    def test_dropped_sentence_is_flagged(self):
        state = dataclasses.replace(self.state, committed=self.state.committed[:-1])
        self.assertIsNotNone(self.decide.check(self.corpus, state))

    def test_corpora_are_seeded(self):
        self.assertEqual(W.order_corpus(W.seeded_rng(5), 30),
                         W.order_corpus(W.seeded_rng(5), 30))
        for f in W.order_corpus(W.seeded_rng(5), 30):
            self.assertTrue(fol.is_sentence(f))


class Tracing(unittest.TestCase):
    def test_wrappers_sit_where_callers_look_and_come_off(self):
        original = proofs.unpair
        tracer = Tracer()
        with tracer:
            self.assertIsNot(proofs.unpair, original)
            proofs.code_to_proof(10)
        self.assertIs(proofs.unpair, original)
        self.assertIs(codec.unpair, original)
        self.assertGreater(tracer.calls["codec.unpair"], 0)
        self.assertEqual(tracer.calls["proofs.code_to_proof"], 1)

    def test_counts_repeat_and_self_time_excludes_children(self):
        stream = W.s_stream_code()
        target = fol.Not(theories.PADDING)  # false, so all 201 codes are examined
        runs = []
        for _ in range(2):
            tracer = Tracer()
            with tracer:
                proofs.prove_search(proofs.EnumeratorIndexed(stream, memo=True), target, 200)
            runs.append((dict(tracer.calls), dict(tracer.counts), tracer.max_run_depth))
            total = sum(e - s for e, s, p in zip(tracer.span_end, tracer.span_start,
                                                 tracer.span_parent) if p == -1)
            self.assertAlmostEqual(sum(tracer.self_s.values()), total, places=6)
        self.assertEqual(runs[0], runs[1])
        self.assertEqual(runs[0][0]["proofs.code_to_proof"], 201)
        self.assertGreater(runs[0][1]["tpl.steps.own"], 0)


class Counting(unittest.TestCase):
    def test_raising_and_wrong_operations_fail_and_the_run_goes_on(self):
        class Flaky:
            name = "flaky"

            def run(self, arg):
                if arg == "raise":
                    raise RuntimeError("boom")
                return arg

            def check(self, arg, result):
                return None if result == "ok" else "wrong"

            def work(self, result):
                return 1

        tally = Tally()
        for arg in ("ok", "raise", "bad", "ok"):
            tally.op(Flaky(), arg)
        self.assertEqual((len(tally.times), tally.failed, tally.wrong, tally.work), (4, 2, 1, 2))


if __name__ == "__main__":
    unittest.main()
