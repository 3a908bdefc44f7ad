"""The four benchmark workloads over taulab's public functions.

A workload is built from a seed (its base constructions).  It hands out
rounds of operation arguments, runs one operation (the part the benchmark
times), checks an operation's result (untimed) and counts the work an
operation did.  Within a workload every operation has the same size, so
the spread between operation times comes from the machine.

Calls go through the taulab modules (``tpl.Machine``, ``C.plant_axiom``)
rather than through names imported here, so that the traced run, which
replaces functions inside their modules, sees every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from taulab import codec, fol, proofs, theories, tpl
from taulab import constructions as C


def nat_pair(n: int, m: int) -> int:
    """The pairing polynomial, computed apart from ``codec.pair``."""
    return (n + m) * (n + m) + n


def s_stream_code() -> int:
    return codec.program_code(tpl.template_source("enum_s"))


def seeded_rng(*parts: int) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


# --------------------------------------------------------------------------
# seeded order-fragment sentences (closed, pi-free, tau-free)

def order_sentence(rng: random.Random, qdepth: int, size: int) -> fol.Formula:
    """A closed order sentence of quantifier depth at most ``qdepth`` and at
    most ``size`` nested connectives; numerals stay small so the
    quantifier eliminator and the evaluator stay cheap."""
    num_cap, chain_cap = (20, 3) if qdepth <= 2 else (5, 1)

    def term(scope):
        if scope and rng.random() < 0.6:
            base = fol.Var(rng.choice(scope))
        else:
            base = fol.Num(rng.randrange(num_cap + 1))
        return fol.succ(base, rng.randrange(chain_cap + 1))

    def formula(scope, qdepth, size):
        roll = rng.random()
        if qdepth > 0 and roll < 0.42:
            name = f"q{len(scope)}"
            ctor = fol.Forall if rng.random() < 0.5 else fol.Exists
            return ctor(name, formula(scope + [name], qdepth - 1, size))
        if size <= 0 or roll < 0.62:
            ctor = fol.Less if rng.random() < 0.6 else fol.Eq
            return ctor(term(scope), term(scope))
        if roll < 0.70:
            return fol.Not(formula(scope, qdepth, size - 1))
        ctor = rng.choice((fol.And, fol.Or, fol.Imp, fol.Iff))
        return ctor(formula(scope, qdepth, size - 1), formula(scope, qdepth, size - 1))

    return formula([], qdepth, size)


# Every corpus cycles through the same (quantifier depth, size) shapes, so
# corpora differ only in their atoms and connectives: completion cost then
# varies by about 11 % between corpora instead of 30 % for shapes drawn at
# random.
CORPUS_SHAPES = tuple((q, s) for q in range(4) for s in range(4))


def order_corpus(rng: random.Random, count: int) -> list[fol.Formula]:
    return [order_sentence(rng, *CORPUS_SHAPES[i % len(CORPUS_SHAPES)])
            for i in range(count)]


def false_order_sentence(rng: random.Random) -> fol.Formula:
    """The first seeded order sentence that ``eval_std`` finds false."""
    while True:
        f = order_sentence(rng, rng.choice((1, 2)), rng.randrange(1, 3))
        if theories.eval_std(f) == theories.FALSE_IN_STD:
            return f


# --------------------------------------------------------------------------
# race: Rosser's race, planted and honest


@dataclass(frozen=True)
class RaceResult:
    polarity: str
    planted_stream: int
    planted_halted: bool
    planted_fault: str | None
    planted_steps: int
    planted_c: object
    honest_halted: bool
    honest_fault: str | None
    honest_steps: int
    honest_c: object


class Race:
    """One operation plants the Rosser sentence (or its negation) into the
    S stream, builds the racing pair over the planted stream, runs the
    planted searcher of that polarity until it halts, then runs the honest
    searcher of that polarity over the unplanted stream for a fixed budget.
    """

    name = "race"
    PLANTED_BUDGET = 10 ** 6
    # The honest searcher spends about 100 300 steps building its target's
    # numerals; the rest of this budget goes to about 16 500 checkproof calls.
    HONEST_BUDGET = 150_000
    # The one-step proof citing stream axiom 0: pair(1, pair(1, 0)).
    PLANTED_PROOF_CODE = nat_pair(1, nat_pair(1, 0))

    def __init__(self, seed: int):
        self.stream = s_stream_code()
        self.base = C.rosser_pair(self.stream)
        self.probe = codec.pair(self.base.negative, self.base.positive)
        # the race has no random input; the seed only picks which polarity
        # goes first
        self.order = ("pos", "neg") if seed % 2 == 0 else ("neg", "pos")

    def round(self, r: int) -> list[str]:
        return list(self.order)

    def target(self, polarity: str) -> fol.Formula:
        return self.base.sentence if polarity == "pos" else fol.Not(self.base.sentence)

    def run(self, polarity: str) -> RaceResult:
        stream = C.plant_axiom(self.target(polarity), self.stream)
        planted = C.rosser_pair(stream)
        runner = planted.positive if polarity == "pos" else planted.negative
        won = tpl.Machine(tpl.program_from_code(runner), self.probe,
                          self.PLANTED_BUDGET).run()
        honest = self.base.positive if polarity == "pos" else self.base.negative
        lost = tpl.Machine(tpl.program_from_code(honest), self.probe,
                           self.HONEST_BUDGET).run()
        return RaceResult(polarity, stream,
                          won.halted, won.fault, won.steps, won.env.get("c"),
                          lost.halted, lost.fault, lost.steps, lost.env.get("c"))

    def check(self, polarity: str, res: RaceResult) -> str | None:
        if res.polarity != polarity:
            return f"ran polarity {res.polarity}, asked for {polarity}"
        if not res.planted_halted or res.planted_fault is not None:
            return "planted searcher did not halt"
        if res.planted_c != self.PLANTED_PROOF_CODE:
            return f"planted searcher halted at c={res.planted_c}"
        proof = proofs.code_to_proof(self.PLANTED_PROOF_CODE)
        verdict = proofs.check_proof(proof, proofs.EnumeratorIndexed(res.planted_stream),
                                     self.target(polarity))
        if not verdict.ok:
            return f"host check of the planted proof: {verdict.kind}"
        if res.honest_halted or res.honest_fault is not None:
            return f"honest searcher halted={res.honest_halted} fault={res.honest_fault}"
        if res.honest_steps != self.HONEST_BUDGET:
            return f"honest searcher used {res.honest_steps} steps"
        if not (isinstance(res.honest_c, int) and res.honest_c >= 1):
            return f"honest searcher never reached a proof code (c={res.honest_c})"
        return None

    def work(self, res: RaceResult) -> int:
        """TPL steps charged to the two searchers."""
        return res.planted_steps + res.honest_steps


# --------------------------------------------------------------------------
# search: host proof search over the S stream


class Search:
    """One operation is a host ``prove_search`` over codes 0..84 682 with a
    fresh memoised enum_s oracle.  Targets rotate among S-axiom 16 (found
    at the last code), the Rosser sentence, its negation and a seeded
    false order sentence.

    Runs by hand only: ``BENCHMARK.json`` leaves it out, because its
    timings drift with the host far more than the bounds allow (see
    README.md, "Noise")."""

    name = "search"
    AXIOM_INDEX = 16
    # The one-step proof of S-axiom 16: pair(1, pair(1, 16)) = 84 682.
    CODE_BUDGET = nat_pair(1, nat_pair(1, AXIOM_INDEX))

    def __init__(self, seed: int):
        self.seed = seed
        self.stream = s_stream_code()
        self.axiom = theories.enumerate_axioms("S", self.AXIOM_INDEX)
        sentence = C.rosser_pair(self.stream).sentence
        self.fixed = [self.axiom, sentence, fol.Not(sentence)]

    def round(self, r: int) -> list[fol.Formula]:
        return self.fixed + [false_order_sentence(seeded_rng(self.seed, r))]

    def run(self, target: fol.Formula):
        oracle = proofs.EnumeratorIndexed(self.stream, memo=True)
        return proofs.prove_search(oracle, target, self.CODE_BUDGET)

    def check(self, target: fol.Formula, proof) -> str | None:
        if target != self.axiom:
            return None if proof is None else "proved a sentence S does not prove"
        if proof is None:
            return "missed the one-step proof of S-axiom 16"
        if proofs.proof_to_code(proof) > self.CODE_BUDGET:
            return "found a proof past the code budget"
        verdict = proofs.check_proof(proof, proofs.HostDecider(theories.axiom_member_S),
                                     target)
        return None if verdict.ok else f"host check: {verdict.kind}"

    def work(self, proof) -> int:
        """Proof codes examined: every code up to the budget."""
        return self.CODE_BUDGET + 1


# --------------------------------------------------------------------------
# stream: the S enumerator in-language against its host mirror


@dataclass(frozen=True)
class Slot:
    index: int
    emitted: fol.Formula | None
    mirror: fol.Formula
    member: bool
    segment: int | None


class Stream:
    """One operation is a window of consecutive S-stream slots.  For each
    slot the enum_s program runs in-language; its output is decoded and
    parsed, then compared with the host mirror and membership test."""

    name = "stream"
    # Windows start at an even slot in this band, so each holds the same
    # number of segment axioms (odd slots, about 2 000 disjuncts each) and
    # bounded-halting records (even slots).
    BAND_START = 4000
    BAND_WIDTH = 200
    WIDTH = 8
    WINDOWS_PER_ROUND = 4
    BUDGET = 10 ** 7

    def __init__(self, seed: int):
        self.seed = seed
        self.program = tpl.program_from_code(s_stream_code())

    def round(self, r: int) -> list[int]:
        rng = seeded_rng(self.seed, r)
        starts = (self.BAND_WIDTH - self.WIDTH) // 2
        return [self.BAND_START + 2 * rng.randrange(starts)
                for _ in range(self.WINDOWS_PER_ROUND)]

    def run(self, start: int) -> list[Slot]:
        slots = []
        for i in range(start, start + self.WIDTH):
            machine = tpl.Machine(self.program, i, self.BUDGET).run()
            text = codec.decode_program_code(tpl.output_code(machine)) if machine.halted else None
            mirror = theories.enumerate_axioms("S", i)
            if text is None:
                slots.append(Slot(i, None, mirror, False, None))
                continue
            emitted = fol.parse_formula(text)
            slots.append(Slot(i, emitted, mirror, theories.axiom_member_S(emitted),
                              theories.segment_axiom_index(emitted)))
        return slots

    def check(self, start: int, slots: list[Slot]) -> str | None:
        if [s.index for s in slots] != list(range(start, start + self.WIDTH)):
            return "window slots out of order"
        for s in slots:
            if s.emitted is None or s.emitted != s.mirror:
                return f"slot {s.index}: in-language output differs from the host mirror"
            if not s.member:
                return f"slot {s.index}: axiom_member_S rejects the slot"
            expected = (s.index - 7) // 2 if s.index % 2 == 1 else None
            if s.segment != expected:
                return f"slot {s.index}: segment index {s.segment}, expected {expected}"
        return None

    def work(self, slots: list[Slot]) -> int:
        """Axiom slots produced and checked."""
        return len(slots)


# --------------------------------------------------------------------------
# decide: Henkin completion of the order fragment


class Decide:
    """One operation completes a fresh seeded corpus of order sentences
    with ``henkin_complete(order_extension_derives, corpus, n)``."""

    name = "decide"
    SENTENCES = 200
    CORPORA_PER_ROUND = 4

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list[list[fol.Formula]]:
        return [order_corpus(seeded_rng(self.seed, r, k), self.SENTENCES)
                for k in range(self.CORPORA_PER_ROUND)]

    def run(self, corpus: list[fol.Formula]):
        return C.henkin_complete(theories.order_extension_derives, corpus, len(corpus))

    def check(self, corpus: list[fol.Formula], state) -> str | None:
        if [f for f, _ in state.committed] != corpus:
            return f"committed {len(state.committed)} of {len(corpus)} sentences"
        for f, asserted in state.committed:
            if (theories.eval_std(f) == theories.TRUE_IN_STD) != asserted:
                return f"committed the false side of {fol.format_formula(f)}"
        if C.completeness_probe(state.decide, corpus):
            return "completion is not exactly one of f, ~f on the corpus"
        if theories.order_extension_derives(state.committed_sentences(), C.CONTRADICTION):
            return "committed set derives the contradiction"
        return None

    def work(self, state) -> int:
        """Sentences committed."""
        return len(state.committed)


WORKLOADS = {w.name: w for w in (Race, Search, Stream, Decide)}
