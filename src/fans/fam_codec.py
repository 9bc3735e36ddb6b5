"""Forward-adaptive tabled-ANS coder.

The encoder walks the token stream start to end. Its coding table is the
not-yet-consumed prefix of the prepared (reversed, marker-bearing) sequence,
so the table shrinks by one slot per coded symbol and the per-symbol
frequencies count down as occurrences are used up. A token's last occurrence
is coded as the marker, which is also how the dictionary order reaches the
decoder. For nonempty input the encoder always finishes in state 1 with no
slots left.

The decoder runs the same arithmetic backwards: it starts from state 1,
rebuilds the prepared sequence from position 0 upward, and takes a dictionary
entry (back to front) every time it meets the marker. Next to each rebuilt
slot it keeps the slot's rank among its symbol's slots, and it keeps the
per-symbol counts, so each step's state is count + rank without a search. It
reads each renormalization shift from the packed code bytes at once. Nothing
but the code bits, the dictionary and the token count crosses the wire.

fam_encode_ids/fam_decode_ids code dictionary ids; fam_encode/fam_decode
wrap them for token streams.
"""

from __future__ import annotations

from .bitio import EXPANDED_BITS, BitStack, refill
from .errors import CorruptError, EmptyStackError
from .fam_model import map_ids


def fam_encode_ids(ids: list[int], d: int) -> tuple[bytearray, int, int]:
    """Encode a stream of dictionary ids (0..d-1); the marker id is d.

    Returns (code bits as 0/1 bytes in push order, final state, final slot
    count). For nonempty input the last two are always 1 and 0.
    """
    n = len(ids)
    lt = d
    # Occurrence positions in the prepared (reversed, marker-bearing)
    # sequence, collected in one reverse walk: the first sighting of a token
    # from the end is its last occurrence, and the marker goes right before
    # it, so positions simply count up as we go.
    index_lists: list[list[int]] = [[] for _ in range(d + 1)]
    marker_positions = index_lists[lt]
    seen = bytearray(d)
    pos = 0
    for tok in reversed(ids):
        if not seen[tok]:
            seen[tok] = 1
            marker_positions.append(pos)
            pos += 1
        index_lists[tok].append(pos)
        pos += 1
    f = [len(index_lists[t]) - 1 for t in range(d)]
    f.append(d)

    x = l = n + d
    bits = bytearray()
    expand = EXPANDED_BITS
    for w in ids:
        fw = f[w]
        if fw == 0:
            w = lt
            l -= 1
            fw = f[lt]
        threshold = fw + fw
        if x >= threshold:
            # Emit the low bits that bring x under 2*fw, LSB first, in one
            # or two table lookups instead of a per-bit loop.
            shift = x.bit_length() - fw.bit_length() - 1
            if shift < 0:
                shift = 0
            if (x >> shift) >= threshold:
                shift += 1
            low = x & ((1 << shift) - 1)
            x >>= shift
            while shift >= 8:
                bits += expand[8][low & 255]
                low >>= 8
                shift -= 8
            if shift:
                bits += expand[shift][low]
        x = l + index_lists[w][x - fw]
        l -= 1
        f[w] = fw - 1
    return bits, x, l


def fam_decode_ids(code: BitStack, d: int, n: int) -> tuple[list[int], int]:
    """Decode n dictionary ids from the code bits; consumes the stack.

    Returns (ids in stream order, final state). Raises CorruptError whenever
    the bits, the dictionary size and the token count do not add up.
    """
    if n == 0:
        if d or len(code):
            raise CorruptError("empty stream with leftover dictionary or bits")
        return [], 0
    if d == 0 or d > n:
        raise CorruptError("dictionary size impossible for token count")
    m = n + d
    lt = d
    x = 1
    L = 0
    # rank[q] is the number of earlier slots holding recon[q], and cnt[w] the
    # number of slots holding w so far, so a transition needs no search.
    # Grown by appends rather than preallocated: n comes off the wire, and a
    # corrupt header must not be able to demand an m-sized allocation.
    recon: list[int] = []
    rank: list[int] = []
    cnt = [0] * (d + 1)
    cursor = d
    out: list[int] = []
    image = code.drain()
    data = image.data
    pos = len(data)
    win = 0
    avail = image.bit_length - 8 * pos
    blen = 1  # bound.bit_length(), kept in step with bound = L + 1
    bnext = 2  # 1 << blen
    try:
        while L < m:
            bound = L + 1
            if bound >= bnext:
                blen += 1
                bnext += bnext
            if x < bound:
                # Take the bits that bring x up to bound's length at once;
                # at most one more is then needed to reach bound.
                k = blen - x.bit_length() or 1
                if avail < k:
                    pos, win, avail = refill(data, pos, win, avail, k)
                avail -= k
                x = (x << k) | (win >> avail)
                win &= (1 << avail) - 1
                if x < bound:
                    if not avail:
                        pos, win, avail = refill(data, pos, win, avail, 1)
                    avail -= 1
                    x = x + x + (win >> avail)
                    win &= (1 << avail) - 1
            p = x - bound
            if p > L:
                raise CorruptError("slot reference beyond rebuilt region")
            if p == L or recon[p] == lt:
                # Marker: introduces the next dictionary token (back to
                # front). The marker's own count includes the slot being
                # rebuilt, and that slot ranks last among the markers.
                c = cnt[lt]
                x = c + 1 + (c if p == L else rank[p])
                cnt[lt] = c + 1
                recon.append(lt)
                rank.append(c)
                if cursor == 0:
                    raise CorruptError("dictionary exhausted before stream end")
                if L + 2 > m:
                    raise CorruptError("prepared sequence overrun")
                cursor -= 1
                recon.append(cursor)
                rank.append(0)
                cnt[cursor] = 1
                out.append(cursor)
                L += 2
            else:
                w = recon[p]
                c = cnt[w]
                x = c + rank[p]
                cnt[w] = c + 1
                recon.append(w)
                rank.append(c)
                out.append(w)
                L += 1
        if cursor != 0:
            raise CorruptError("dictionary entries left over after stream end")
        if x < m:
            k = m.bit_length() - x.bit_length() or 1
            if avail < k:
                pos, win, avail = refill(data, pos, win, avail, k)
            avail -= k
            x = (x << k) | (win >> avail)
            win &= (1 << avail) - 1
            if x < m:
                if not avail:
                    pos, win, avail = refill(data, pos, win, avail, 1)
                avail -= 1
                x = x + x + (win >> avail)
    except EmptyStackError:
        raise CorruptError("code bits exhausted mid-decode") from None
    if x != m:
        raise CorruptError("final state does not match token count")
    if avail or pos:
        raise CorruptError("unconsumed code bits after decode")
    out.reverse()
    return out, x


def fam_encode(tokens: list[bytes]) -> tuple[BitStack, list[bytes]]:
    """Encode a token stream; returns (code bits, dictionary).

    The dictionary is ordered by last occurrence and is everything the
    decoder needs besides the bits and the token count.
    """
    if not tokens:
        return BitStack(), []
    w0, ids = map_ids(tokens)
    bits, x, l = fam_encode_ids(ids, len(w0))
    assert x == 1 and l == 0, "encoder did not drain to state 1"
    return BitStack(bits), w0


def fam_decode(code: BitStack, dictionary: list[bytes], n: int) -> list[bytes]:
    """Decode n tokens; consumes (and must empty) the code stack."""
    ids, _ = fam_decode_ids(code, len(dictionary), n)
    return [dictionary[i] for i in ids]
