"""Torus quotient of (P^1)^N: invariant monomials and S-equivalence.

The multiplicative torus scales the first homogeneous coordinate in every
slot.  Linearizing in the r-th power of the product polarization, a basis
of sections is indexed by exponent vectors m with 0 <= m_j <= N*r; the
factors coming from the base line are identically nonvanishing along the
fiber, so only the exponents matter here.  A monomial is invariant exactly
when its total weight is balanced,

    sum_j m_j = N * r * n,

and it is nonvanishing at a configuration exactly when every [0:1] slot
has a saturated exponent m_j = N*r and every [1:0] slot has m_j = 0.

Two independent classifiers are kept deliberately separate:

  classify_closed_form   the mark-count inequalities (n_zero vs n,
                         n_inf vs N - n),
  classify_bruteforce    invariant-monomial search: semistability by a
                         nonvanishing balanced witness, stability by a
                         witness with an interior exponent 0 < m_j < N*r
                         (the closed-orbit criterion) at a non-fixed
                         configuration.

They must agree everywhere; the test suite and the CLI check that they do.

The search never enumerates the whole space of balanced vectors.  Since a
witness must be nonvanishing, it lives on the face where the [0:1] slots
sit at N*r and the [1:0] slots at 0; only the remaining free slots vary,
and the search walks them in lexicographic order.  The report still gives
the position of the stable witness in the lexicographic sweep of all
balanced vectors (monomials_enumerated), computed as a rank: per slot,
the vectors that agree with the witness before it and are smaller in it.
composition_count is a closed-form inclusion-exclusion sum of binomials,
and the rank sums it over each slot's value in closed form too, so
neither walks the sweep.  The work is bounded by N and the highest power
swept, not by the length of the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Iterator, Optional, Sequence

from .configuration import Configuration, act, mark_data, saturate_limit
from .errors import LengthMismatchError
from .stability import ModuliParams


class GitClass(Enum):
    STABLE = "GitStable"
    STRICTLY_SEMISTABLE = "StrictlySemistable"
    UNSTABLE = "GitUnstable"


@dataclass(frozen=True)
class Linearization:
    """Slot count N, weight parameter n, and polarization power r."""

    n: int
    N: int
    r: int = 1

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError(f"need at least one slot, got N = {self.N}")
        if not 0 <= self.n <= self.N:
            raise ValueError(f"weight parameter n = {self.n} outside [0, {self.N}]")
        if self.r < 1:
            raise ValueError(f"polarization power must be >= 1, got {self.r}")

    @staticmethod
    def for_moduli(p: ModuliParams) -> "Linearization":
        return Linearization(p.n, p.N)

    @property
    def cap(self) -> int:
        """Componentwise exponent bound N * r."""
        return self.N * self.r

    @property
    def target(self) -> int:
        """Balanced total weight N * r * n."""
        return self.N * self.r * self.n


MonomialIndex = tuple[int, ...]


def classify_closed_form(c: Configuration, lin: Linearization) -> GitClass:
    """Mark-count classification: strict bounds give stability, weak semistability."""
    if c.size != lin.N:
        raise LengthMismatchError(f"configuration has {c.size} slots, expected {lin.N}")
    marks = mark_data(c)
    n1, n2 = marks.n_zero, marks.n_inf
    if n1 < lin.n and n2 < lin.N - lin.n:
        return GitClass.STABLE
    if n1 <= lin.n and n2 <= lin.N - lin.n:
        return GitClass.STRICTLY_SEMISTABLE
    return GitClass.UNSTABLE


def composition_count(total: int, cap: int, length: int) -> int:
    """Number of integer vectors of the given length in [0, cap] summing to total."""
    if length == 0:
        return 1 if total == 0 else 0
    if not 0 <= total <= cap * length:
        return 0
    # v -> cap - v pairs the vectors summing to total with those summing to
    # cap * length - total; the smaller of the two sums needs fewer terms
    total = min(total, cap * length - total)
    # inclusion-exclusion over the j slots forced above cap: each such set
    # leaves total - j (cap + 1) spread freely over length slots
    return sum(
        (-1) ** j * comb(length, j) * comb(total - j * (cap + 1) + length - 1, length - 1)
        for j in range(min(length, total // (cap + 1)) + 1)
    )


def bounded_compositions(total: int, cap: int, length: int) -> Iterator[MonomialIndex]:
    """All vectors in [0, cap]^length with the given sum, lexicographic order.

    This is the sweep whose positions monomials_enumerated reports; the
    search itself walks only the face and never calls it.
    """
    if length == 0:
        if total == 0:
            yield ()
        return
    if not 0 <= total <= cap * length:
        return
    m = [0] * length
    last = length - 1

    def fill(i: int, remaining: int) -> Iterator[MonomialIndex]:
        if i == last:
            m[i] = remaining
            yield tuple(m)
            return
        lo = remaining - cap * (last - i)
        if lo < 0:
            lo = 0
        hi = cap if cap < remaining else remaining
        for v in range(lo, hi + 1):
            m[i] = v
            yield from fill(i + 1, remaining - v)

    yield from fill(0, total)


def _lex_rank(m: Sequence[int], cap: int) -> int:
    """Number of vectors in [0, cap]^len(m) with sum(m) lexicographically before m."""
    rank = 0
    rest = sum(m)
    length = len(m)
    for mi in m:
        length -= 1
        rest -= mi
        if mi == 0:
            continue
        # vectors agreeing with m before this slot and holding v < mi in it:
        # the later slots sum to a total in (rest, rest + mi], or, reflected by
        # v -> cap - v, in [top - rest - mi, top - rest); (lo, hi] is the range
        # with the smaller upper end.  Summed over it, each inclusion-exclusion
        # term of composition_count telescopes (hockey stick) to
        # C(hi - j(cap+1) + length, length) minus the same at lo, each 0 once
        # its upper index is negative
        top = cap * length
        if rest + mi < top - rest:
            lo, hi = rest, rest + mi
        else:
            lo, hi = top - rest - mi - 1, top - rest - 1
        for j in range(hi // (cap + 1) + 1):
            shift = j * (cap + 1)
            term = comb(hi - shift + length, length)
            if lo >= shift:
                term -= comb(lo - shift + length, length)
            rank += (-1) ** j * comb(length, j) * term
    return rank


def _pack_right(v: list[int], start: int, total: int, cap: int) -> None:
    """Set v[start:] to its lexicographically first value in [0, cap] summing
    to total: caps packed to the right."""
    for k in range(len(v) - 1, start - 1, -1):
        v[k] = min(cap, total)
        total -= v[k]


def _lex_successor(v: list[int], cap: int) -> bool:
    """Advance v in place to the next vector in [0, cap]^len(v) with the same
    sum, in lexicographic order; False when v is already the last one."""
    suffix = 0
    for i in range(len(v) - 1, -1, -1):
        if v[i] < cap and suffix > 0:
            v[i] += 1
            _pack_right(v, i + 1, suffix - 1, cap)
            return True
        suffix += v[i]
    return False


@dataclass(frozen=True)
class BruteForceOutcome:
    git_class: GitClass
    semistable_witness: Optional[tuple[int, MonomialIndex]]
    stable_witness: Optional[tuple[int, MonomialIndex]]
    monomials_enumerated: int
    fixed_point: bool


def bruteforce_search(c: Configuration, lin: Linearization, r_max: int = 1) -> BruteForceOutcome:
    """Invariant-monomial search, sweeping powers r = 1..r_max.

    Semistable iff some balanced exponent vector is nonvanishing at c.
    Stable iff additionally some such witness keeps an interior exponent
    (so the top and bottom saturated sets do not cover all slots) and c
    itself is not fixed by the torus.  Witnesses are reported as (r, m):
    the semistable one is the lexicographically first nonvanishing
    balanced vector, the stable one the first with an interior exponent.

    The search stays independent of classify_closed_form.  Nonvanishing
    alone fixes every [0:1] slot at cap = N*r and every [1:0] slot at 0,
    so the nonvanishing balanced vectors are exactly the face

        {m : m_j = cap on [0:1] slots, m_j = 0 on [1:0] slots,
             the free slots in [0, cap] summing to rest},

    rest = N*r*n - cap * #[0:1].  The face is empty exactly when no free
    vector in [0, cap]^free sums to rest, that is when rest lies outside
    [0, cap * #free]; that is a statement about the pinned exponents, not
    a mark-count inequality.  The pinned slots are constant on the face,
    so the lexicographic order of the full vectors restricted to it is
    the lexicographic order of the free slots, and walking them in that
    order visits the witnesses the full sweep would meet first.  Pinned
    exponents are never interior, so a witness is stable iff a free slot
    is interior.  The first face vector packs caps to the right; if it
    has no interior slot, the second moves one unit left and leaves
    1 and cap - 1 behind, so for cap >= 2 the walk stops within two face
    vectors.

    monomials_enumerated is the number of balanced vectors the full
    lexicographic sweep over r = 1, 2, ... visits up to and including the
    stable witness: the full counts of the earlier powers plus the rank
    of the witness plus one; with no stable witness, the full count up to
    r_max.  A power is counted only once its face holds no stable
    witness, so a stable configuration computes one rank and no count.
    The rank is one inclusion-exclusion sum per slot and the count one
    sum per power, so the work grows with N and r_max, never with the
    length of the sweep; git-classify bounds both.
    """
    if c.size != lin.N:
        raise LengthMismatchError(f"configuration has {c.size} slots, expected {lin.N}")
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    n_zero = sum(1 for p in c.points if p.is_zero())
    free_slots = [j for j, p in enumerate(c.points) if p.is_finite()]
    fixed = not free_slots
    semistable_witness: Optional[tuple[int, MonomialIndex]] = None
    stable_witness: Optional[tuple[int, MonomialIndex]] = None
    enumerated = 0
    for r in range(1, r_max + 1):
        cap = lin.N * r
        rest = lin.N * r * lin.n - cap * n_zero
        if 0 <= rest <= cap * len(free_slots):
            m = [cap if p.is_zero() else 0 for p in c.points]
            v = [0] * len(free_slots)
            _pack_right(v, 0, rest, cap)
            while True:
                for j, vj in zip(free_slots, v):
                    m[j] = vj
                if semistable_witness is None:
                    semistable_witness = (r, tuple(m))
                if any(0 < vj < cap for vj in v):
                    stable_witness = (r, tuple(m))
                    break
                if not _lex_successor(v, cap):
                    break
        if stable_witness is not None:
            enumerated += _lex_rank(stable_witness[1], cap) + 1
            break
        enumerated += composition_count(lin.N * r * lin.n, cap, lin.N)

    if stable_witness is not None and not fixed:
        cls = GitClass.STABLE
    elif semistable_witness is not None:
        cls = GitClass.STRICTLY_SEMISTABLE
    else:
        cls = GitClass.UNSTABLE
    return BruteForceOutcome(cls, semistable_witness, stable_witness, enumerated, fixed)


def classify_bruteforce(c: Configuration, lin: Linearization, r_max: int = 1) -> GitClass:
    return bruteforce_search(c, lin, r_max).git_class


def s_equivalence_representative(c: Configuration, lin: Linearization) -> Configuration:
    """Canonical representative of the orbit-closure equivalence class.

    Stable orbits are free, so the representative rescales the lowest
    finite slot's coordinate to 1.  Strictly semistable configurations all
    degenerate onto the unique fixed point in their orbit closure, their
    saturation limit.  Unstable configurations have no semistable
    representative at all.
    """
    cls = classify_closed_form(c, lin)
    if cls is GitClass.UNSTABLE:
        raise ValueError("unstable configurations have no S-equivalence class")
    if cls is GitClass.STRICTLY_SEMISTABLE:
        return saturate_limit(c, lin.n, lin.N)
    for point in c.points:
        if point.is_finite():
            return act(point.t.inverse(), c)
    return c  # unreachable for stable configurations, kept total
