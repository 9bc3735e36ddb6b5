"""The damage census (tests/damage.py), pinned.

Every damaged archive must decode to the original, to wrong bytes, or raise
a FansError, never a bare exception, and no case may take a second. The
SHA-256 of each version's ordered outcomes ("same", "wrong" or the error's
class and message) is pinned in damage.OUTCOMES, as DIGESTS pins archive
bytes: a change that moves any outcome, even to another message of the same
class, moves its pin, and must say in CHANGES.md which cases moved and why.
"""

from __future__ import annotations

from damage import OUTCOMES, census, digests


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
