"""Model construction: numbering, dictionary orders, prepared sequence, indices.

The adaptive order is the one fam_encode_ids returns; the static order is
byte order, which build_dictionary gives."""

import random

from hypothesis import given
from hypothesis import strategies as st

from fans.fam_codec import fam_encode_ids
from fans.fam_model import build_dictionary, number_ids, renumber

from fam_oracle import LT, build_indices, fam_dictionary, prepare

A, B = b"a", b"b"


def test_build_dictionary_byte_order():
    assert build_dictionary([A, B, A]) == [A, B]
    assert build_dictionary([B, A, b"c", B]) == [A, B, b"c"]
    assert build_dictionary([b"ab", A, b"\n", b"\xff", b"a\x00"]) == [
        b"\n", A, b"a\x00", b"ab", b"\xff"
    ]
    assert build_dictionary([A, A]) == [A]
    assert build_dictionary([]) == []


def test_number_ids_numbers_tokens_by_first_sighting():
    assert number_ids([A, B, A]) == ([A, B], [0, 1, 0])
    assert number_ids([B, A, A, b"c", B]) == ([B, A, b"c"], [0, 1, 1, 2, 0])
    assert number_ids([]) == ([], [])


def _fam_order(ids: list[int]) -> list[int]:
    return fam_encode_ids(ids, len(set(ids)))[1]


def test_last_occurrence_order_known_vectors():
    assert _fam_order([0, 1, 0]) == [1, 0]
    assert _fam_order([0, 1, 1, 2, 0]) == [1, 2, 0]
    assert _fam_order([2, 0, 1]) == [2, 0, 1]
    assert _fam_order([]) == []


def test_renumber_gives_dictionary_ids():
    assert renumber([0, 1, 0], [1, 0]) == [1, 0, 1]
    assert renumber([0, 1, 1, 2, 0], [1, 2, 0]) == [2, 0, 0, 1, 2]
    assert renumber([], []) == []


def test_prepare_known_vectors():
    # The marker goes after each last occurrence, then the whole thing is
    # reversed, so every marker ends up immediately before its token.
    assert prepare([A, B, A], [B, A]) == [LT, A, LT, B, A]
    assert prepare([A, A], [A]) == [LT, A, A]
    assert prepare([], []) == []


def test_build_indices_known_vectors():
    idx, freqs = build_indices([LT, A, LT, B, A], [B, A])
    assert idx[A] == [1, 4]
    assert idx[B] == [3]
    assert idx[LT] == [0, 2]
    assert freqs == {A: 1, B: 0, LT: 2}

    idx, freqs = build_indices([LT, A, A], [A])
    assert idx[A] == [1, 2]
    assert idx[LT] == [0]
    assert freqs == {A: 1, LT: 1}


def test_build_indices_empty():
    idx, freqs = build_indices([], [])
    assert idx == {LT: []}
    assert freqs == {LT: 0}


_token_lists = st.lists(
    st.sampled_from([b"a", b"b", b"c", b"d", b"e"]), min_size=0, max_size=60
)


@given(_token_lists)
def test_prepared_length_is_n_plus_d(tokens):
    w0 = fam_dictionary(tokens)
    assert len(prepare(tokens, w0)) == len(tokens) + len(w0)


@given(_token_lists)
def test_index_lists_partition_positions(tokens):
    w0 = fam_dictionary(tokens)
    prepared = prepare(tokens, w0)
    idx, freqs = build_indices(prepared, w0)
    seen = sorted(p for positions in idx.values() for p in positions)
    assert seen == list(range(len(prepared)))
    for positions in idx.values():
        assert positions == sorted(set(positions))


@given(_token_lists)
def test_frequency_sum_equals_token_count(tokens):
    w0 = fam_dictionary(tokens)
    idx, freqs = build_indices(prepare(tokens, w0), w0)
    assert sum(freqs[t] for t in w0) + freqs[LT] == len(tokens)
    assert freqs[LT] == len(w0)


@given(_token_lists)
def test_marker_sits_before_its_token(tokens):
    # In the reversed sequence, each marker occupies the index one below the
    # annotated token's first (lowest) position.
    w0 = fam_dictionary(tokens)
    prepared = prepare(tokens, w0)
    idx, _ = build_indices(prepared, w0)
    lowest = sorted(idx[t][0] for t in w0)
    assert idx[LT] == [p - 1 for p in lowest]


def test_dictionary_order_matches_last_occurrences():
    rng = random.Random(5)
    alphabet = [bytes([c]) for c in range(97, 105)]
    for _ in range(50):
        tokens = [rng.choice(alphabet) for _ in range(rng.randrange(1, 80))]
        seen, ids = number_ids(tokens)
        w0 = [seen[i] for i in _fam_order(ids)]
        last = {t: i for i, t in enumerate(tokens)}
        assert w0 == sorted(set(tokens), key=last.get) == fam_dictionary(tokens)


@given(_token_lists)
def test_number_ids_takes_an_iterator_as_a_list(tokens):
    seen, ids = number_ids(tokens)
    assert number_ids(iter(tokens)) == (seen, ids)
    assert number_ids(t for t in tokens) == (seen, ids)
    assert [seen[i] for i in ids] == tokens
    order = _fam_order(ids)
    dictionary = [seen[i] for i in order]
    assert [dictionary[i] for i in renumber(ids, order)] == tokens
    assert build_dictionary(iter(tokens)) == sorted(dictionary)
