"""The damage census (tests/damage.py), pinned.

Every damaged archive must decode to the original, to wrong bytes, or raise
a FansError, never a bare exception, and no case may take a second. The
SHA-256 of each version's ordered outcomes ("same", "wrong" or the error's
class and message) is pinned, as DIGESTS pins archive bytes: a change that
moves any outcome, even to another message of the same class, moves its pin,
and must say in CHANGES.md which cases moved and why. The outcomes include
zlib's own error texts, so a Python built against another zlib may word
them differently; the pins were taken with zlib 1.2.13.
"""

from __future__ import annotations

from damage import census, digests

OUTCOMES = {
    1: "e1a055e50b87b65d235fc54a8004d4fe2c75d81b9c8dc964f9e0f645c98a7ad4",
    2: "aa1aa858cfb9fd22bde4e3b4ad3e8956d23a713521ac8b8b1a7ad466ec81e045",
    3: "7088cdcfb69ac6270d3eb576a56992389640df58d2c5c3be42ef8aba10bbd3ff",
    4: "6bf746bc8e36f9b8f6ddb3972fb6e0ddd9ee02b91348e36b56d1e46c4496c9a5",
}


def test_damage_census_outcomes_are_pinned(capsys):
    cases = census()
    bare = [c for c in cases if c.outcome.startswith("bare ")]
    assert not bare, bare[:5]
    slow = max(cases, key=lambda c: c.seconds)
    assert slow.seconds < 1.0, slow
    wrong = sum(c.outcome == "wrong" for c in cases)
    with capsys.disabled():
        print(
            f"DAMAGE CENSUS: {len(cases)} cases, {wrong} wrong output, "
            f"slowest {slow.seconds * 1e3:.1f} ms",
            flush=True,
        )
    assert digests(cases) == OUTCOMES
