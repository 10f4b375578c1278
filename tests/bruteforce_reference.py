"""Test-only reference: the full sweep of git_engine.bruteforce_search.

This is the search `su12fiber.git_engine` ran before it moved to the face
cut out by the marks and then wrote that face's witnesses down in closed
form.  It walks every balanced exponent vector of every power in
lexicographic order through `bounded_compositions`, filters by
nonvanishing afterwards and counts each vector it visits, so it shares no
face, witness or rank code with the package.  It reads the marked slots
point by point (`paper_reference.mark_slots`), not through the package's
mark counts.  Walking the sweep is
what costs here, so it keeps a limit on the sweep's length of its own.
That limit counts with the dynamic-programming table the package used
before its closed form, and `lex_rank` is the rank the package computed
with one count per unit before its closed form, so the two routes share
no counting code either.  test_git_engine.py requires the package search
to return the same BruteForceOutcome, and the package composition_count
and rank to match the table and `lex_rank`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from su12fiber.configuration import Configuration
from su12fiber.errors import LengthMismatchError
from su12fiber.git_engine import (
    BruteForceOutcome,
    GitClass,
    Linearization,
    MonomialIndex,
    bounded_compositions,
)

from paper_reference import mark_slots

# the longest sweep the reference walks: N = 8, r = 1 at middle weight has
# 2.3e6 balanced vectors, N = 8 with r_max = 2 has 2e8
SWEEP_LIMIT = 4_000_000


class SweepTooLongError(RuntimeError):
    """The full sweep would walk more balanced vectors than its limit."""


def composition_count(total: int, cap: int, length: int) -> int:
    """Number of integer vectors of the given length in [0, cap] summing to total."""
    # v -> cap - v pairs the vectors summing to total with those summing to
    # cap * length - total; the table needs only the smaller of the two sums
    total = min(total, cap * length - total)
    if total < 0:
        return 0
    counts = [1] + [0] * total
    for _ in range(length):
        new = [0] * (total + 1)
        window = 0
        for t in range(total + 1):
            window += counts[t]
            if t > cap:
                window -= counts[t - cap - 1]
            new[t] = window
        counts = new
    return counts[total]


def lex_rank(m: Sequence[int], cap: int) -> int:
    """Number of vectors in [0, cap]^len(m) with sum(m) lexicographically before m."""
    rank = 0
    remaining = sum(m)
    for i, mi in enumerate(m):
        # every vector agreeing with m before slot i and smaller at slot i
        for v in range(mi):
            rank += composition_count(remaining - v, cap, len(m) - i - 1)
        remaining -= mi
    return rank


def bruteforce_search(
    c: Configuration,
    lin: Linearization,
    r_max: int = 1,
    limit: int = SWEEP_LIMIT,
) -> BruteForceOutcome:
    """Exhaustive invariant-monomial search, sweeping powers r = 1..r_max.

    Semistable iff some balanced exponent vector is nonvanishing at c.
    Stable iff additionally some such witness keeps an interior exponent
    (so the top and bottom saturated sets do not cover all slots) and c
    itself is not fixed by the torus.  Witnesses are reported as (r, m).
    """
    if c.size != lin.N:
        raise LengthMismatchError(f"configuration has {c.size} slots, expected {lin.N}")
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    # stop summing at the first power that overflows the limit: a huge
    # r_max must be refused without counting every power up to it
    space = 0
    for r in range(1, r_max + 1):
        space += composition_count(lin.N * r * lin.n, lin.N * r, lin.N)
        if space > limit:
            raise SweepTooLongError(
                f"enumeration of balanced exponent vectors up to power "
                f"r = {r} exceeds limit {limit}"
            )

    fixed = all(not p.is_finite() for p in c.points)
    zero_slots, inf_slots = map(tuple, mark_slots(c))
    semistable_witness: Optional[tuple[int, MonomialIndex]] = None
    stable_witness: Optional[tuple[int, MonomialIndex]] = None
    enumerated = 0
    for r in range(1, r_max + 1):
        cap = lin.N * r
        # the enumerator only emits in-bounds balanced vectors, so the
        # per-vector work is exactly the nonvanishing subset test
        for m in bounded_compositions(cap * lin.n, cap, lin.N):
            enumerated += 1
            if not all(m[j] == cap for j in zero_slots):
                continue
            if not all(m[j] == 0 for j in inf_slots):
                continue
            if semistable_witness is None:
                semistable_witness = (r, m)
            if any(0 < mj < cap for mj in m):
                stable_witness = (r, m)
                break
        if stable_witness is not None:
            break

    if stable_witness is not None and not fixed:
        cls = GitClass.STABLE
    elif semistable_witness is not None:
        cls = GitClass.STRICTLY_SEMISTABLE
    else:
        cls = GitClass.UNSTABLE
    return BruteForceOutcome(cls, semistable_witness, stable_witness, enumerated, fixed)
