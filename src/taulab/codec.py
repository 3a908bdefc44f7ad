"""Bitstring/natural codings, program codes, and the pairing function.

Bitstrings are numbered by the classic bijection "prepend 1, read as binary,
subtract one": the empty string is 0, "0" is 1, "1" is 2, "00" is 3, and so
on.  Program texts are packed into bitstrings eight bits per character
(big-endian within the byte), so every text has a unique code and a natural
decodes to a text only when its bit length is a multiple of eight.

Pairing is the quadratic polynomial pair(n, m) = (n + m)^2 + n.  It is
injective but not surjective, so unpairing is partial and returns ``None``
off its range.

All functions are pure; values are arbitrary-precision.
"""

from __future__ import annotations

from math import isqrt


class CodecError(ValueError):
    """Raised for structurally invalid codec inputs."""


def _check_nat(n: int, what: str = "value") -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        # repr() of an int past the interpreter's digit cap would raise
        shown = (f"a negative {n.bit_length()}-bit integer"
                 if isinstance(n, int) and n.bit_length() > _SMALL_BITS else repr(n))
        raise CodecError(f"{what} must be a natural number, got {shown}")


def bits_to_nat(bits: str) -> int:
    """Number of a bitstring under the prepend-1 bijection ("" -> 0)."""
    if bits and bits.strip("01"):
        raise CodecError(f"not a bitstring: {bits!r}")
    return int("1" + bits, 2) - 1


def nat_to_bits(n: int) -> str:
    """Inverse of bits_to_nat (0 -> "")."""
    _check_nat(n)
    return bin(n + 1)[3:]


def ascii_to_bits(text: str) -> str:
    """Pack a text into bits, eight per character, big-endian per byte."""
    try:
        data = text.encode("latin-1")
    except UnicodeEncodeError as exc:
        raise CodecError(f"character out of 8-bit range: {exc}") from exc
    return "".join(f"{b:08b}" for b in data)


def bits_to_ascii(bits: str) -> str:
    """Unpack a bitstring into text; bit length must be a multiple of 8."""
    if bits and bits.strip("01"):
        raise CodecError(f"not a bitstring: {bits!r}")
    if len(bits) % 8:
        raise CodecError(f"bit length {len(bits)} is not a multiple of 8")
    return bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8)).decode("latin-1")


def program_code(text: str) -> int:
    """Code of a text: bits_to_nat of its 8-bit packing.

    Computed arithmetically ((1 << 8L) + bytes - 1) so multi-kilobyte
    program texts code in one pass.
    """
    try:
        data = text.encode("latin-1")
    except UnicodeEncodeError as exc:
        raise CodecError(f"character out of 8-bit range: {exc}") from exc
    return (1 << (8 * len(data))) + int.from_bytes(data, "big") - 1


def decode_program_code(n: int) -> str | None:
    """Text with code ``n``, or ``None`` when the bit length is not 8k."""
    _check_nat(n)
    m = n + 1
    length = m.bit_length() - 1
    if length % 8:
        return None
    body = m - (1 << length)
    return body.to_bytes(length // 8, "big").decode("latin-1")


def pair(n: int, m: int) -> int:
    """pair(n, m) = (n + m)^2 + n."""
    _check_nat(n, "left component")
    _check_nat(m, "right component")
    return (n + m) * (n + m) + n


def unpair(p: int) -> tuple[int, int] | None:
    """Inverse of pair where defined, ``None`` otherwise.

    A natural p is a pair exactly when, for s = isqrt(p), the residue
    p - s^2 does not exceed s; then n = p - s^2 and m = s - n.
    """
    if type(p) is not int or p < 0:  # a proof search unpairs every code it tries
        _check_nat(p)
    return _unpair(p)


def in_pair_range(p: int) -> bool:
    """Whether ``p`` codes a pair."""
    _check_nat(p)
    return _unpair(p) is not None


def _unpair(p: int) -> tuple[int, int] | None:
    global _last_unpair
    if _last_unpair[0] == p:  # only a natural past _SMALL_BITS is remembered
        return _last_unpair[1]
    s = isqrt(p)
    n = p - s * s
    parts = None if n > s else (n, s - n)
    if p.bit_length() > _SMALL_BITS:
        _last_unpair = (int(p), parts)
    return parts


# Program codes routinely run to hundreds of thousands of decimal digits,
# past the interpreter's default int<->str conversion cap and far past the
# sizes where its quadratic conversions are cheap.  Both directions convert
# by halving against cached powers instead (Brent & Zimmermann, "Modern
# Computer Arithmetic", section 1.7):
#
# - natural -> text splits the bits in half, converts the halves to
#   ``decimal.Decimal`` and recombines them as high * 2**k + low, with the
#   Decimal powers of two cached per call.  libmpdec multiplies large
#   operands in subquadratic time and prints a Decimal in linear time.  The
#   context has maximal precision and traps Inexact, so a rounding could
#   only raise, never produce wrong digits.  ``decimal`` is imported on this
#   branch only; up to _SMALL_BITS bits, str() is used directly.
# - text -> natural splits the digits in half and recombines them as
#   (high * 5**k << k) + low (that is, high * 10**k + low), with 5**k
#   memoised per call; pieces of at most _SAFE_DIGITS digits go to int().
#
# A construction prints a code into a template and lexes the same numeral
# straight back, often twice.  So the last few conversions past either
# threshold, in either direction, are remembered as (natural, text)
# entries, most recent first.  _RECENT_SIZE is the Rosser race's working
# set: an operation plants its target into the S stream, builds the pair
# over the planted stream and runs the planted searcher on pair(k, l),
# alternating polarities.  That keeps five naturals live: the S stream code
# (5 540 digits), the base searcher codes k and l (16 707 digits each,
# printed on every searcher run) and the two planted streams (269 044 and
# 269 052 digits).  One slot fewer and every operation re-converts the
# other polarity's planted stream.  Only repeated constructions gain: a
# one-shot ``construct rosser --plant`` converts each natural once either
# way.
#
# A hit is a plain == compare (tens of microseconds for a 269k-digit text,
# against a conversion of over 100 ms).  Only canonical texts are stored:
# one with a leading zero denotes the same natural but is not what
# nat_to_decimal prints.  So a text past _SAFE_DIGITS is looked up before
# it is validated, and a hit is not rescanned.  Both values are immutable,
# so sharing them with every caller changes no result.  The tuple is
# replaced whole, never changed in place, as is the (natural, result)
# unpair keeps for its last natural past _SMALL_BITS.

_SMALL_BITS = 8192
_SAFE_DIGITS = 2048
_RECENT_SIZE = 5

_recent: tuple[tuple[int, str], ...] = ()
_last_unpair: tuple = (-1, None)  # both searchers of a race unpair one probe


def _recall(side: int, key) -> tuple[int, str] | None:
    """The remembered entry whose natural (side 0) or text (side 1) equals
    ``key``, moved to the front; None when there is none."""
    for entry in _recent:
        if entry[side] == key:
            _remember(entry)
            return entry
    return None


def _remember(entry: tuple[int, str]) -> None:
    global _recent
    if not _recent or _recent[0] is not entry:
        _recent = (entry, *(e for e in _recent if e is not entry))[:_RECENT_SIZE]


def nat_to_decimal(n: int) -> str:
    """Decimal text of a natural, regardless of how many digits it takes."""
    _check_nat(n)
    if n.bit_length() <= _SMALL_BITS:
        return str(n)
    entry = _recall(0, n)
    if entry is None:
        entry = (int(n), _big_nat_to_decimal(n))
        _remember(entry)
    return entry[1]


def _big_nat_to_decimal(n: int) -> str:
    import decimal

    powers: dict[int, decimal.Decimal] = {}

    def power_of_two(k: int) -> decimal.Decimal:
        p = powers.get(k)
        if p is None:
            if k <= _SMALL_BITS:
                p = decimal.Decimal(1 << k)
            else:
                p = power_of_two(k >> 1) * power_of_two(k - (k >> 1))
            powers[k] = p
        return p

    def convert(m: int, bits: int) -> decimal.Decimal:
        # m < 2**bits
        if bits <= _SMALL_BITS:
            return decimal.Decimal(m)
        k = bits >> 1
        high = m >> k
        return convert(high, bits - k) * power_of_two(k) + convert(m - (high << k), k)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        return str(convert(n, n.bit_length()))


def decimal_to_nat(text: str) -> int:
    """Natural denoted by a string of ASCII digits (any length)."""
    if isinstance(text, str) and len(text) > _SAFE_DIGITS:
        entry = _recall(1, text)
        if entry is not None:
            return entry[0]
    if not text or not text.isascii() or not text.isdigit():
        raise CodecError(f"not a decimal numeral: {text!r}")
    if len(text) <= _SAFE_DIGITS:
        return int(text)
    n = _big_decimal_to_nat(text)
    if text[0] != "0":
        # a plain str, so that nat_to_decimal never hands out the caller's
        # subclass object (str() would call an overridden __str__)
        _remember((n, str.__str__(text)))
    return n


def _big_decimal_to_nat(text: str) -> int:
    powers: dict[int, int] = {}

    def convert(lo: int, hi: int) -> int:
        if hi - lo <= _SAFE_DIGITS:
            return int(text[lo:hi])
        k = (hi - lo) >> 1
        mid = hi - k
        p = powers.get(k)
        if p is None:
            p = powers[k] = 5**k
        return ((convert(lo, mid) * p) << k) + convert(mid, hi)

    return convert(0, len(text))
