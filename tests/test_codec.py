from __future__ import annotations

import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from taulab import codec
from taulab.codec import (
    CodecError,
    ascii_to_bits,
    bits_to_ascii,
    bits_to_nat,
    decimal_to_nat,
    decode_program_code,
    in_pair_range,
    nat_to_bits,
    nat_to_decimal,
    pair,
    program_code,
    unpair,
)

# First rows of the bitstring numbering, written out by hand from the
# prepend-1 rule: "" -> 1 -> 0, "0" -> 10 -> 1, ..., "100" -> 1100 -> 11.
NUMBERING_TABLE = [
    ("", 0),
    ("0", 1),
    ("1", 2),
    ("00", 3),
    ("01", 4),
    ("10", 5),
    ("11", 6),
    ("000", 7),
    ("001", 8),
    ("010", 9),
    ("011", 10),
    ("100", 11),
]


def test_numbering_table():
    for bits, n in NUMBERING_TABLE:
        assert bits_to_nat(bits) == n
        assert nat_to_bits(n) == bits


def test_worked_examples():
    # "0110" -> 10110 in binary = 22, minus one.
    assert bits_to_nat("0110") == 21
    # 29 + 1 = 30 = 11110 in binary, drop the leading 1.
    assert nat_to_bits(29) == "1110"


def test_ascii_packing():
    assert ascii_to_bits("") == ""
    assert ascii_to_bits("A") == "01000001"
    assert bits_to_ascii("01000001") == "A"
    with pytest.raises(CodecError):
        bits_to_ascii("0100000")  # 7 bits


def test_program_code_matches_bit_composition():
    for text in ["", "A", "halt;", "out = 7; halt;", "\x00\x7f\xff"]:
        assert program_code(text) == bits_to_nat(ascii_to_bits(text))


def test_decode_program_code():
    assert decode_program_code(0) == ""  # empty bitstring decodes to empty text
    assert decode_program_code(1) is None  # bits "0", length 1
    assert decode_program_code(29) is None  # bits "1110", length 4
    assert decode_program_code(program_code("halt;")) == "halt;"


def test_pairing_examples():
    assert pair(1, 2) == 10
    assert pair(2, 1) == 11
    assert pair(0, 0) == 0
    assert unpair(10) == (1, 2)
    assert unpair(11) == (2, 1)
    assert unpair(0) == (0, 0)


def test_unpair_7_is_none_by_exhaustion():
    # Independent oracle: no (n, m) with pair(n, m) == 7 exists.
    assert all(pair(n, m) != 7 for n in range(8) for m in range(8))
    assert unpair(7) is None
    assert not in_pair_range(7)


def test_pair_range_flag_matches_unpair():
    for p in range(2000):
        assert in_pair_range(p) == (unpair(p) is not None)


@given(st.integers(min_value=0, max_value=10**9))
def test_bits_roundtrip(n):
    assert bits_to_nat(nat_to_bits(n)) == n


@given(st.text(st.characters(min_codepoint=0, max_codepoint=255), max_size=64))
def test_text_roundtrip(text):
    assert decode_program_code(program_code(text)) == text


@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=0, max_value=10**12))
def test_pair_roundtrip(n, m):
    assert unpair(pair(n, m)) == (n, m)


def test_negative_rejected():
    with pytest.raises(CodecError):
        nat_to_bits(-1)
    with pytest.raises(CodecError):
        pair(-1, 0)
    with pytest.raises(CodecError):
        unpair(-3)


def test_decimal_text_small_values():
    assert nat_to_decimal(0) == "0"
    assert nat_to_decimal(10**100) == "1" + "0" * 100
    assert decimal_to_nat("0") == 0
    assert decimal_to_nat("007") == 7


def test_decimal_text_survives_the_interpreter_conversion_cap():
    import sys

    cap = sys.get_int_max_str_digits()
    if cap:  # the default configuration rejects str() past a few thousand digits
        with pytest.raises(ValueError):
            str(10 ** (cap + 10))
    n = 7 ** 40000  # about 33 800 digits
    text = nat_to_decimal(n)
    assert len(text) > 30000 and text[0] != "0"
    assert decimal_to_nat(text) == n
    assert decimal_to_nat("9" * 20000) == 10**20000 - 1


def test_decimal_text_rejects_non_digits():
    for bad in ("", "-5", "+5", " 7", "1_0", "12a", "١٢"):
        with pytest.raises(CodecError):
            decimal_to_nat(bad)


@given(st.integers(min_value=0, max_value=10**50))
def test_decimal_roundtrip(n):
    assert decimal_to_nat(nat_to_decimal(n)) == n
    assert nat_to_decimal(n) == str(n)


# --------------------------------------------------------------------------
# decimal conversion by halving, against an independent reference: chunks of
# 18 digits peeled off with divmod (and glued back with a multiply-add),
# which never calls str() or int() on more than 18 digits at once


_CHUNK = 10**18


def _reference_decimal(n: int) -> str:
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:018d}")
    return str(n) + "".join(reversed(chunks))


def _reference_nat(text: str) -> int:
    head = len(text) % 18 or 18
    n = int(text[:head])
    for i in range(head, len(text), 18):
        n = n * _CHUNK + int(text[i:i + 18])
    return n


def _assert_round_trip(n: int) -> None:
    text = nat_to_decimal(n)
    assert text == _reference_decimal(n)
    assert decimal_to_nat(text) == n


def _bit_lengths_around_thresholds():
    small = codec._SMALL_BITS
    for edge in (small, 2 * small, 4 * small + 1):
        yield from (edge - 1, edge, edge + 1)


@pytest.mark.parametrize("bits", list(_bit_lengths_around_thresholds()))
def test_decimal_matches_reference_at_bit_thresholds(bits):
    rng = random.Random(bits)
    for n in (1 << (bits - 1), (1 << bits) - 1, rng.getrandbits(bits) | (1 << (bits - 1))):
        assert n.bit_length() == bits
        _assert_round_trip(n)


def _digit_counts_around_thresholds():
    safe = codec._SAFE_DIGITS
    small_digits = len(_reference_decimal(1 << codec._SMALL_BITS))
    for edge in (safe, 2 * safe, small_digits, 2 * small_digits, 4 * small_digits):
        yield from (edge - 1, edge, edge + 1)


@pytest.mark.parametrize("k", list(_digit_counts_around_thresholds()))
def test_decimal_matches_reference_on_zero_and_nine_runs(k):
    # 10**k + 1 has a run of k - 1 internal zeros, 10**k - 1 is k nines
    for n in (10**k - 1, 10**k, 10**k + 1):
        _assert_round_trip(n)
    assert decimal_to_nat("0" * k) == 0


def test_decimal_parses_long_numerals_with_leading_zeros():
    rng = random.Random(200_000)
    size = 200_000
    for zeros in (1, codec._SAFE_DIGITS, size // 2 + 1, size - 1):
        text = "0" * zeros + "".join(rng.choice("0123456789") for _ in range(size - zeros))
        assert len(text) == size
        n = decimal_to_nat(text)
        assert n == _reference_nat(text)
        assert nat_to_decimal(n) == text.lstrip("0")


def test_decimal_matches_reference_on_a_900k_bit_value():
    n = random.Random(900_000).getrandbits(900_000) | (1 << 899_999)
    _assert_round_trip(n)


def test_small_numerals_do_not_load_decimal():
    # decimal is imported only to print naturals past _SMALL_BITS bits
    script = "\n".join([
        "import sys",
        "import taulab",
        "from taulab import codec, fol, tpl",
        "assert codec.nat_to_decimal(10**300) == '1' + '0' * 300",
        "assert codec.decimal_to_nat('9' * 3000) == 10**3000 - 1",
        "assert fol.format_formula(fol.parse_formula('#123456 < #78')) == '#123456 < #78'",
        "code = codec.program_code('x = 123456789; out = x + 1; halt;')",
        "assert tpl.run_code(code, 0, 10).env['out'] == 123456790",
        "assert 'decimal' not in sys.modules, 'decimal was imported'",
    ])
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr



# --------------------------------------------------------------------------
# the memo of the last few (natural, text) conversions past the thresholds:
# hits return the same values a fresh conversion would


@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(codec, "_recent", ())


@pytest.fixture
def conversions(empty_memo, monkeypatch):
    """How many big conversions ran, by direction."""
    calls = {"to_text": 0, "to_nat": 0}
    to_text, to_nat = codec._big_nat_to_decimal, codec._big_decimal_to_nat

    def counted_to_text(n):
        calls["to_text"] += 1
        return to_text(n)

    def counted_to_nat(text):
        calls["to_nat"] += 1
        return to_nat(text)

    monkeypatch.setattr(codec, "_big_nat_to_decimal", counted_to_text)
    monkeypatch.setattr(codec, "_big_decimal_to_nat", counted_to_nat)
    return calls


def _big(seed: int) -> int:
    bits = 3 * codec._SMALL_BITS
    return random.Random(seed).getrandbits(bits) | 1 << (bits - 1)


def test_alternating_two_big_numerals_converts_each_once(conversions):
    a, b = _big(1), _big(2)
    texts = {a: _reference_decimal(a), b: _reference_decimal(b)}
    for n in (a, b) * 5:
        assert nat_to_decimal(n) == texts[n]
        assert decimal_to_nat(texts[n]) == n
    assert conversions == {"to_text": 2, "to_nat": 0}
    for n in (b, a) * 3:  # the other direction first
        assert decimal_to_nat(texts[n] + "1") == 10 * n + 1
    assert conversions == {"to_text": 2, "to_nat": 2}


def test_the_memo_stays_bounded(conversions):
    numbers = [_big(seed) for seed in range(3 * codec._RECENT_SIZE)]
    for n in numbers:
        assert nat_to_decimal(n) == _reference_decimal(n)
        assert len(codec._recent) <= codec._RECENT_SIZE
    assert [entry[0] for entry in codec._recent] == numbers[::-1][:codec._RECENT_SIZE]
    nat_to_decimal(numbers[0])  # long evicted: converted again
    assert conversions["to_text"] == len(numbers) + 1


def test_a_text_with_a_leading_zero_is_not_stored(conversions):
    n = _big(3)
    text = "0" + _reference_decimal(n)
    assert decimal_to_nat(text) == n and codec._recent == ()
    assert decimal_to_nat(text) == n and conversions["to_nat"] == 2


def test_the_memo_keeps_a_plain_copy_of_a_str_subclass(empty_memo):
    class Sub(str):
        def __str__(self):
            return "0"
    n = _big(5)
    text = Sub(_reference_decimal(n))
    assert decimal_to_nat(text) == n
    assert type(nat_to_decimal(n)) is str and nat_to_decimal(n) == text


def test_leading_zero_texts_do_not_poison_the_memo(empty_memo):
    rng = random.Random(4096)
    size = 2 * codec._SAFE_DIGITS
    body = "".join(rng.choice("0123456789") for _ in range(size - 1))
    for text in ("0" + body, "00" + body[1:], "0" * (size - 1) + "7"):
        n = decimal_to_nat(text)
        assert n == _reference_nat(text)
        assert nat_to_decimal(n) == _reference_decimal(n) == text.lstrip("0")
        assert decimal_to_nat(text) == n
    n = _reference_nat("9" + body)
    assert nat_to_decimal(n) == "9" + body
    assert decimal_to_nat("0" + "9" + body) == n
    assert nat_to_decimal(n) == "9" + body


def test_interleaved_conversions_match_the_reference(empty_memo):
    rng = random.Random(3 * codec._SMALL_BITS)
    a = rng.getrandbits(3 * codec._SMALL_BITS) | 1 << (3 * codec._SMALL_BITS - 1)
    b = a + 1
    text = {a: _reference_decimal(a), b: _reference_decimal(b)}
    for n in (a, b, a, a, b, b, a):
        assert nat_to_decimal(n) == text[n]
    for n in (a, b, a, a, b, b, a):
        assert decimal_to_nat(text[n]) == n
    for n in (a, a, b, a, b):
        assert nat_to_decimal(n) == text[n]
        assert decimal_to_nat(text[n]) == n
        assert decimal_to_nat(text[a if n == b else b]) == (a if n == b else b)


def test_memo_keeps_the_input_checks(empty_memo):
    n = 7 ** 40000
    text = nat_to_decimal(n)
    for bad in (True, False, -1, -n, float(10**300)):
        with pytest.raises(CodecError):
            nat_to_decimal(bad)
    for bad in (text + "a", "-" + text, text[:-1] + "\xb2"):
        with pytest.raises(CodecError):
            decimal_to_nat(bad)
    assert decimal_to_nat(text) == n
    assert type(decimal_to_nat(nat_to_decimal(type("Nat", (int,), {})(n + 1)))) is int


class _CountedText(str):
    """A text that counts how often it is scanned for digits."""

    scans = 0

    def isdigit(self):
        type(self).scans += 1
        return super().isdigit()


def test_a_remembered_text_is_not_rescanned(empty_memo, monkeypatch):
    monkeypatch.setattr(_CountedText, "scans", 0)
    n = _big(5)
    text = nat_to_decimal(n)
    assert decimal_to_nat(_CountedText(text)) == n
    assert _CountedText.scans == 0
    other = _big(6)
    assert decimal_to_nat(_CountedText(_reference_decimal(other))) == other
    assert _CountedText.scans == 1
    # a miss is validated as before, with the same message
    for bad in (text + "a", "-" + text, text[:-1] + "\xb2", " " + text, text + "\n",
                "", "-5", "+5", " 7", "1_0", "12a", "\u0661\u0662"):
        for given in (bad, _CountedText(bad)):
            with pytest.raises(CodecError) as err:
                decimal_to_nat(given)
            assert str(err.value) == f"not a decimal numeral: {given!r}"
    assert decimal_to_nat(text) == n


def test_rosser_pair_prints_the_stream_once_and_never_parses_it(conversions):
    from taulab.constructions import rosser_pair
    from taulab.tpl import template_source

    rosser_pair(program_code(template_source("enum_s")))
    # one print of the stream code; both searcher lexes (and the artifact's
    # own decode of both searchers) find it in the memo
    assert conversions == {"to_text": 1, "to_nat": 0}


def test_rosser_race_steady_state_fits_the_memo(conversions):
    # The race alternates polarities.  Each operation plants its target into
    # the S stream, builds the pair over the planted stream and runs that
    # polarity's planted searcher on pair(k, l), which prints k and l.  Five
    # big naturals stay live: S, k, l and the two planted streams.  With one
    # memo slot fewer, each operation re-converts the other planted stream.
    from taulab import fol
    from taulab.constructions import plant_axiom, rosser_pair
    from taulab.tpl import Machine, program_from_code, template_source

    stream = program_code(template_source("enum_s"))
    base = rosser_pair(stream)
    probe = pair(base.negative, base.positive)
    targets = {"pos": base.sentence, "neg": fol.Not(base.sentence)}

    def operation(polarity):
        planted = rosser_pair(plant_axiom(targets[polarity], stream))
        runner = planted.positive if polarity == "pos" else planted.negative
        assert Machine(program_from_code(runner), probe, 10 ** 6).run().halted

    for polarity in ("pos", "neg"):
        operation(polarity)
    warm = dict(conversions)
    for _ in range(2):
        for polarity in ("pos", "neg"):
            operation(polarity)
    assert conversions["to_text"] == warm["to_text"]


# --------------------------------------------------------------------------
# the unpair memo: the last natural past _SMALL_BITS bits and its result

def _reference_unpair(p: int, s: int):
    """unpair by its defining formula, given the root s of p."""
    assert s * s <= p < (s + 1) * (s + 1)
    n = p - s * s
    return (n, s - n) if n <= s else None


@pytest.fixture
def unpair_counts(monkeypatch):
    """Calls of codec.isqrt per argument, starting from an empty memo."""
    monkeypatch.setattr(codec, "_last_unpair", (-1, None))
    calls: dict[int, int] = {}
    isqrt = codec.isqrt

    def counted(n):
        calls[n] = calls.get(n, 0) + 1
        return isqrt(n)
    monkeypatch.setattr(codec, "isqrt", counted)
    return calls


def test_unpair_memo_matches_the_reference(unpair_counts):
    rng = random.Random(2 * codec._SMALL_BITS)
    n, m = rng.getrandbits(3 * codec._SMALL_BITS), rng.getrandbits(3 * codec._SMALL_BITS)
    # a big pair and a big non-pair (residue 2s > s), each with its root
    roots = {pair(n, m): n + m, (n + m + 1) ** 2 - 1: n + m, 10: 3, 7: 2}
    want = {p: _reference_unpair(p, s) for p, s in roots.items()}
    assert list(want.values()) == [(n, m), None, (1, 2), None]
    big_pair, big_miss, _, _ = roots
    for p in (big_pair, big_miss, big_pair, big_pair, big_miss, big_miss, big_pair, 10, 7):
        assert unpair(p) == want[p]
        assert in_pair_range(p) == (want[p] is not None)


def test_repeated_unpair_of_one_big_natural_takes_one_isqrt(unpair_counts):
    p = pair(3 ** 20000, 5 ** 9000)
    for _ in range(4):
        assert unpair(p) == (3 ** 20000, 5 ** 9000) and in_pair_range(p)
    assert unpair_counts == {p: 1}
    miss = p + 3 ** 20000 + 5 ** 9000 + 1
    assert unpair(miss) is None and not in_pair_range(miss) and unpair(miss) is None
    assert unpair_counts == {p: 1, miss: 1}
    assert codec._last_unpair == (miss, None)


def test_unpair_memo_keeps_the_input_checks(unpair_counts):
    p = pair(3 ** 20000, 1)
    unpair(p)
    for bad, shown in ((True, "True"), (-1, "-1"),
                       (-(1 << 9999), "a negative 10000-bit integer"), (-p, None)):
        for f in (unpair, in_pair_range):
            with pytest.raises(CodecError) as err:
                f(bad)
            if shown is not None:
                assert str(err.value) == f"value must be a natural number, got {shown}"
    assert codec._last_unpair == (p, (3 ** 20000, 1))
    assert unpair(7) is None and unpair(10) == (1, 2) and in_pair_range(0)
    assert codec._last_unpair == (p, (3 ** 20000, 1))
    assert unpair_counts == {p: 1, 7: 1, 10: 1, 0: 1}
