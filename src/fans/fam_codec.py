"""Forward-adaptive tabled-ANS coder.

The encoder walks the token stream start to end. Its coding table is the
not-yet-consumed prefix of the prepared (reversed, marker-bearing) sequence,
so the table shrinks by one slot per coded symbol and the per-symbol
frequencies count down as occurrences are used up. A token's last occurrence
is coded as the marker, which is also how the dictionary order reaches the
decoder. The encoder takes ids in any numbering and returns that order with
the code. For nonempty input it always finishes in state 1 with no slots
left.

Each encoder step first shifts out the low bits that bring the state x into
[fw, 2*fw), where fw is the coded symbol's live frequency. fw counts the
symbol's slots among the l slots left, and every transition leaves x at l or
above, so fw <= l <= x. The shift s is the bit length of x // fw, less one
(x >> s is in [fw, 2*fw) exactly when x // fw is in [2**s, 2**(s+1))), so it
is never negative and no step tests whether it emits anything. The
occurrence table is held in unsigned arrays, 4 bytes a position ("Q", 8
bytes, only if n + d passes 2**32; see bitio.table_typecode): a signed array
appends an int at about twice the cost. array is imported inside
fam_encode_ids, so the CLI's start-up never loads it.

The decoder runs the same arithmetic backwards: it starts from state 1,
rebuilds the prepared sequence from position 0 upward, and takes a dictionary
entry (back to front) every time it meets the marker. Next to each rebuilt
slot it keeps the slot's rank among its symbol's slots, and it keeps the
per-symbol counts, so each step's state is count + rank without a search.
The rebuilt slots are a list, whose entries share the id objects; the ranks
are an unsigned array sized the same way from the header's n + d, since most
exceed the small-int cache and a list would hold an int object for each; a
signed array would parse a format string per item. The decode loop runs in
segments over which the bound's bit length is fixed, so no step tracks it,
and a common step reads its slot once. It returns the rebuilt sequence,
which read back to front without its markers is the id stream.

Renormalization reads from the packed code bytes in one go: a state x below
bound takes the bits that give it one bit more than bound, and if x then
reaches 2 * bound, the last of them goes back. That read may take one bit
past the last code bit, so the code sits on a zero byte, and a read that
leaves fewer than 8 bits above the floor has run out of code. The decoder
reads the code's ByteImage and leaves it intact. Nothing but the code bits,
the dictionary and the token count crosses the wire.

container.unpack_archive owns every check of those fields against each
other: n = 0 comes with no dictionary and no code bits, and otherwise
1 <= d <= n. The decoder takes them as given and repeats none of it; it
checks only what the code bits say: that they last, that the markers use
up the dictionary exactly within the n + d slots, that the state ends at
n + d, and that no bit is left.

fam_encode_ids/fam_decode_ids code ids; fam_encode/fam_decode
wrap them for token streams and trade the code as a ByteImage. Only the
tests and perfbench/tracing.py call the wrappers, which go once that replay
records through the pipeline.
"""

from __future__ import annotations

from .bitio import EXPANDED_BITS, WINDOW_MASKS, ByteImage, pack_bits, refill, table_typecode
from .errors import CorruptError
from .fam_model import number_ids


def fam_encode_ids(ids: list[int], d: int) -> tuple[bytearray, list[int], int, int]:
    """Encode a stream of ids 0..d-1, numbered in any order; the marker id is d.

    An id of d or more, or one below d that never occurs, raises ValueError;
    a negative id is not checked for (number_ids makes none).
    Returns (code bits as 0/1 bytes in push order, the ids in dictionary
    order, final state, final slot count); for nonempty input the last two
    are always 1 and 0.
    """
    from array import array

    n = len(ids)
    lt = d
    tc = table_typecode(n + d)
    # Occurrence positions in the prepared (reversed, marker-bearing)
    # sequence, collected in one reverse walk: the first sighting of a token
    # from the end is its last occurrence, so the marker goes right before
    # it and the token joins the dictionary order, and positions simply
    # count up as we go. The marker list joins index_lists after the walk,
    # so an id of d or more fails the lookup.
    index_lists = [array(tc) for _ in range(d)]
    marker_positions = array(tc)
    order = []
    pos = 0
    try:
        for tok in reversed(ids):
            positions = index_lists[tok]
            if not positions:
                order.append(tok)
                marker_positions.append(pos)
                pos += 1
            positions.append(pos)
            pos += 1
    except IndexError:
        raise ValueError(f"an id is out of range for a dictionary of {d}") from None
    if len(order) != d:
        raise ValueError(f"ids did not drain the dictionary: {d - len(order)} id(s) never occur")
    order.reverse()
    index_lists.append(marker_positions)
    f = [len(index_lists[t]) - 1 for t in range(d)]
    f.append(d)

    x = l = n + d
    bits = bytearray()
    expand = EXPANDED_BITS
    masks = WINDOW_MASKS
    for w in ids:
        fw = f[w]
        if fw == 0:
            w = lt
            l -= 1
            fw = f[lt]
        # Emit the low bits that bring x into [fw, 2*fw), LSB first, in one
        # or two table lookups instead of a per-bit loop. fw <= x, so the
        # shift is never negative; a shift of 0 appends b"".
        shift = (x // fw).bit_length() - 1
        low = x & masks[shift]
        x >>= shift
        while shift > 8:
            bits += expand[8][low & 255]
            low >>= 8
            shift -= 8
        bits += expand[shift][low]
        x = l + index_lists[w][x - fw]
        l -= 1
        f[w] = fw - 1
    if n and (x != 1 or l != 0):
        raise ValueError(f"encoder did not drain: state {x}, {l} slot(s) left; want 1 and 0")
    return bits, order, x, l


def fam_decode_ids(image: ByteImage, d: int, n: int) -> tuple[list[int], int]:
    """Decode n dictionary ids from the code, which must be used up.

    Returns (the prepared sequence: the ids back to front, each marker d
    before its token's last occurrence; final state). d and n are the
    parser's validated fields, which container.unpack_archive checks and
    this decoder does not: n = 0 comes with d = 0 and no code bits, and
    otherwise 1 <= d <= n. Within that contract it raises CorruptError
    whenever the code bits do not decode to exactly n ids.
    """
    if n == 0:
        return [], 0
    from array import array

    m = n + d
    lt = d
    x = 1
    L = 0
    # rank[q] is the number of earlier slots holding recon[q], and cnt[w] the
    # number of slots holding w so far, so a transition needs no search.
    # Grown by appends rather than preallocated: n comes off the wire, and a
    # corrupt header must not be able to demand an m-sized allocation.
    recon: list[int] = []
    rank = array(table_typecode(m))
    cnt = [0] * (d + 1)
    cursor = d
    # The zero byte below the code bits is the floor that a read's spare bit
    # may come from; 8 * pos + avail - 8 code bits are left to read.
    data = bytes(1) + image.data
    pos = len(data)
    win = 0
    avail = image.bit_length - 8 * len(image.data)
    masks = WINDOW_MASKS
    while L < m:
        # One segment: every bound = L + 1 below stop has blen bits. A
        # marker step may carry L one past stop; the next segment
        # starts from there.
        blen = (L + 1).bit_length()
        stop = min(m, (1 << blen) - 1)
        top = blen + 1
        while L < stop:
            bound = L + 1
            if x < bound:
                # Take the bits that give x one bit more than bound at
                # once. If x then reaches 2 * bound (bound + L + 1), the
                # last bit was one too many and goes back to the window.
                k = top - x.bit_length()
                if avail < k:
                    pos, win, avail = refill(data, pos, win, avail, k)
                avail -= k
                x = (x << k) | (win >> avail)
                if x > bound + L:
                    x >>= 1
                    avail += 1
                win &= masks[avail]
                if not pos and avail < 8:
                    raise CorruptError("code bits exhausted mid-decode")
            p = x - bound
            if p < L:
                w = recon[p]
                if w != lt:
                    c = cnt[w]
                    x = c + rank[p]
                    cnt[w] = c + 1
                    recon.append(w)
                    rank.append(c)
                    L += 1
                    continue
                c = cnt[lt]
                x = c + 1 + rank[p]
            else:
                # Here p == L, since x <= bound + L before every step: x
                # starts at 1 with L = 0, a renormalisation stops there,
                # and otherwise x is the last step's c + rank[p] <= 2c - 1,
                # or a marker's c + 1 + rank <= 2c + 1, where c counts
                # slots among those rebuilt then, so c < L. The slot being
                # rebuilt is itself a marker, and it ranks last among the
                # markers.
                c = cnt[lt]
                x = c + 1 + c
            # Marker: introduces the next dictionary token (back to
            # front). The marker's own count includes the slot being
            # rebuilt.
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
            L += 2
    if cursor != 0:
        raise CorruptError("dictionary entries left over after stream end")
    if x < m:
        k = m.bit_length() + 1 - x.bit_length()
        if avail < k:
            pos, win, avail = refill(data, pos, win, avail, k)
        avail -= k
        x = (x << k) | (win >> avail)
        if x >= m + m:
            x >>= 1
            avail += 1
        if not pos and avail < 8:
            raise CorruptError("code bits exhausted mid-decode")
    if x != m:
        raise CorruptError("final state does not match token count")
    if avail + 8 * pos != 8:
        raise CorruptError("unconsumed code bits after decode")
    return recon, x


def fam_encode(tokens: list[bytes]) -> tuple[ByteImage, list[bytes]]:
    """Encode a token stream; returns (code bits, dictionary).

    The dictionary is ordered by last occurrence and is everything the
    decoder needs besides the bits and the token count.
    """
    seen, ids = number_ids(tokens)
    bits, order, _, _ = fam_encode_ids(ids, len(seen))
    return pack_bits(bits), [seen[i] for i in order]


def fam_decode(code: ByteImage, dictionary: list[bytes], n: int) -> list[bytes]:
    """Decode n tokens; the code must be used up.

    Takes fam_decode_ids's contract: n = 0 comes with an empty dictionary
    and no code bits, and otherwise 1 <= len(dictionary) <= n.
    """
    recon, _ = fam_decode_ids(code, len(dictionary), n)
    d = len(dictionary)
    return [dictionary[i] for i in reversed(recon) if i != d]
