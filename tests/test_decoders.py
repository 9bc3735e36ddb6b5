"""Decoder cores against the loops they replaced, and against hostile input.

The oracles are the decode loops as they were before the cores took ranks
from tables and read packed bytes: one bisect per symbol to recover a rank,
and one pop per code bit. The fam oracle is the step-level decoder of
fam_oracle.py. On valid and corrupted code alike, the fast cores must return
the same tokens or raise the same CorruptError.
"""

from __future__ import annotations

import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fans.bitio import REFILL_BYTES, BitStack, ByteImage, unpack
from fans.errors import CorruptError, EmptyStackError, FansError
from fans.fam_codec import fam_decode, fam_encode
from fans.static_codec import (
    SpreadStrategy,
    StaticFrequencies,
    build_spread,
    count_frequencies,
    static_decode,
    static_encode,
)

from fam_oracle import oracle_fam_decode

CODERS = ["fam", "ranged", "uniform", "textorder"]
REFILL_BITS = 8 * REFILL_BYTES


def oracle_static_decode(code: BitStack, final_state, table, freqs, n) -> list[bytes]:
    if n == 0:
        if final_state != 0 or len(code):
            raise CorruptError("empty stream with leftover state or bits")
        return []
    if freqs.total != n:
        raise CorruptError("frequency total does not match the token count")
    total = n
    if not total <= final_state < 2 * total:
        raise CorruptError("final state outside the table range")
    x = final_state
    out = []
    pop = code.pop
    try:
        for _ in range(n):
            j = x - total
            s = table.spread[j]
            out.append(s)
            x = freqs.counts[s] + bisect_left(table.slots[s], j)
            while x < total:
                x = x + x + pop()
    except EmptyStackError:
        raise CorruptError("code bits exhausted mid-decode") from None
    if x != total:
        raise CorruptError("state did not drain to the table size")
    if len(code):
        raise CorruptError("unconsumed code bits after decode")
    out.reverse()
    return out


class Stream:
    """One coded token stream and both decoders for it."""

    def __init__(self, coder: str, tokens: list[bytes]):
        self.n = len(tokens)
        if coder == "fam":
            code, self.dictionary = fam_encode(tokens)
            self.decoders = (
                lambda c: fam_decode(c, self.dictionary, self.n),
                lambda c: oracle_fam_decode(c, self.dictionary, self.n),
            )
        else:
            dictionary = sorted(set(tokens))
            freqs = count_frequencies(tokens, dictionary)
            table = build_spread(SpreadStrategy(coder), freqs, dictionary, tokens)
            code, state = static_encode(tokens, table, freqs)
            self.decoders = (
                lambda c: static_decode(c, state, table, freqs, self.n),
                lambda c: oracle_static_decode(c, state, table, freqs, self.n),
            )
        self.bits = list(code)

    def outcomes(self, bits: list[int]):
        """(fast, oracle) results: the tokens, or the error message."""
        results = []
        for decode in self.decoders:
            try:
                results.append(decode(BitStack(bits)))
            except CorruptError as exc:
                results.append(f"CorruptError: {exc}")
        return results


def corruptions(bits: list[int]):
    """Every single-bit flip, 1-17-bit truncations and one appended bit.

    Push order puts the first bit the decoder reads last, so truncating
    and appending are done at both ends.
    """
    for i in range(len(bits)):
        yield bits[:i] + [bits[i] ^ 1] + bits[i + 1 :]
    for k in range(1, 18):
        if k <= len(bits):
            yield bits[:-k]
            yield bits[k:]
    for b in (0, 1):
        yield bits + [b]
        yield [b] + bits


def random_tokens(rng: random.Random, n: int) -> list[bytes]:
    alphabet = rng.randrange(1, 12)
    return [bytes([97 + min(int(rng.expovariate(0.4)), alphabet)]) for _ in range(n)]


def streams_at_refill_multiples(coder: str) -> list[Stream]:
    """Streams whose code length is one below, at and one above 1-3 refills."""
    want = {j * REFILL_BITS + e for j in (1, 2, 3) for e in (-1, 0, 1)}
    found: dict[int, Stream] = {}
    rng = random.Random(f"refill-{coder}")
    for _ in range(20000):
        stream = Stream(coder, random_tokens(rng, rng.randrange(20, 260)))
        if len(stream.bits) in want:
            found.setdefault(len(stream.bits), stream)
            if len(found) == len(want):
                break
    assert sorted(found) == sorted(want)
    return [found[k] for k in sorted(found)]


@pytest.mark.parametrize("coder", CODERS)
def test_corrupted_code_decodes_as_before(coder):
    stream = Stream(coder, random_tokens(random.Random(coder), 160))
    assert len(stream.bits) > 2 * REFILL_BITS
    for bits in [stream.bits, *corruptions(stream.bits)]:
        fast, oracle = stream.outcomes(bits)
        assert fast == oracle


@pytest.mark.parametrize("coder", CODERS)
def test_code_lengths_at_refill_boundaries_decode_as_before(coder):
    rng = random.Random(f"noise-{coder}")
    for stream in streams_at_refill_multiples(coder):
        bits = stream.bits
        variants = [bits[:-k] for k in range(1, 18)] + [bits[k:] for k in range(1, 18)]
        variants += [bits + [1], [1] + bits, [0] + bits]
        variants += [[rng.getrandbits(1) for _ in bits] for _ in range(8)]
        fast, oracle = stream.outcomes(bits)
        assert fast == oracle
        for variant in variants:
            fast, oracle = stream.outcomes(variant)
            assert fast == oracle


def _image(data: bytes, drop: int, clear_padding: bool) -> ByteImage:
    """An image of all of data's bits but the top `drop` of the last byte."""
    if not data:
        return ByteImage(b"", 0)
    if clear_padding and drop:
        data = data[:-1] + bytes([data[-1] & (0xFF >> drop)])
    return ByteImage(data, 8 * len(data) - drop)


@settings(max_examples=400, deadline=None)
@given(
    st.binary(max_size=48),
    st.integers(0, 7),
    st.booleans(),
    st.integers(0, 12),
    st.integers(0, 48),
)
def test_fam_decode_raises_only_fans_errors(data, drop, clear_padding, d, n):
    dictionary = [b"t%d" % i for i in range(d)]
    try:
        fam_decode(unpack(_image(data, drop, clear_padding)), dictionary, n)
    except FansError:
        pass


@settings(max_examples=400, deadline=None)
@given(
    st.binary(max_size=48),
    st.integers(0, 7),
    st.booleans(),
    st.lists(st.integers(1, 6), min_size=1, max_size=8),
    st.sampled_from(list(SpreadStrategy)),
    st.one_of(st.none(), st.integers(0, 60)),
    st.integers(-2, 100),
    st.randoms(use_true_random=False),
)
def test_static_decode_raises_only_fans_errors(
    data, drop, clear_padding, counts, strategy, n, final_state, rng
):
    dictionary = [bytes([65 + i]) for i in range(len(counts))]
    freqs = StaticFrequencies(dict(zip(dictionary, counts)), sum(counts))
    tokens = [t for t, c in zip(dictionary, counts) for _ in range(c)]
    rng.shuffle(tokens)
    table = build_spread(strategy, freqs, dictionary, tokens)
    if n is None:
        n = freqs.total
    try:
        static_decode(unpack(_image(data, drop, clear_padding)), final_state, table, freqs, n)
    except FansError:
        pass
