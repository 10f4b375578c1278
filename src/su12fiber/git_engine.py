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
sit at N*r and the [1:0] slots at 0; only the remaining free slots vary.
That face at power r is the face at power 1 scaled by r, and both
witnesses are among its first two vectors at r = 1, so the search writes
them down instead of walking anything.  The report still gives
the position of the stable witness in the lexicographic sweep of all
balanced vectors (monomials_enumerated), computed as a rank: per slot,
the vectors that agree with the witness before it and are smaller in it.
composition_count is a closed-form inclusion-exclusion sum of binomials,
and the rank sums it over each slot's value in closed form too, so
neither walks the sweep.  The work is bounded by N and the highest power
swept, not by the length of the sweep.
"""

from __future__ import annotations

from enum import Enum
from math import comb
from typing import Iterator, Optional, Sequence

from .configuration import Configuration, PointKind, act, mark_data, saturate_limit
from .errors import InternalInconsistencyError, LengthMismatchError
from .frozen import Value
from .stability import ModuliParams


class GitClass(Enum):
    STABLE = "GitStable"
    STRICTLY_SEMISTABLE = "StrictlySemistable"
    UNSTABLE = "GitUnstable"


class Linearization(Value):
    """Slot count N and weight parameter n; the power r is swept separately."""

    n: int
    N: int

    _fields = ("n", "N")
    __slots__ = ("n", "N", "_counts")

    def __init__(self, n: int, N: int) -> None:
        if N < 1:
            raise ValueError(f"need at least one slot, got N = {N}")
        if not 0 <= n <= N:
            raise ValueError(f"weight parameter n = {n} outside [0, {N}]")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "N", N)
        # balanced vector count per power r, filled by balanced_count as
        # asked; outside _fields, so ==, hash and repr never see it
        object.__setattr__(self, "_counts", {})

    @staticmethod
    def for_moduli(p: ModuliParams) -> "Linearization":
        return Linearization(p.n, p.N)

    def balanced_count(self, r: int) -> int:
        """Number of balanced exponent vectors at power r.  It depends only on
        N, n and r, so it is computed once per power for this linearization,
        however many configurations are searched under it."""
        if r not in self._counts:
            self._counts[r] = composition_count(self.N * r * self.n, self.N * r, self.N)
        return self._counts[r]


MonomialIndex = tuple[int, ...]


def classify_closed_form(c: Configuration, lin: Linearization) -> GitClass:
    """Mark-count classification: strict bounds give stability, weak semistability.

    Stable iff n_zero < n and n_inf < N - n; semistable iff n_zero <= n and
    n_inf <= N - n.  bruteforce_search spells the same inequality from
    exponents, as the face test 0 <= k <= #free (0 < k < #free for
    stability), and git-classify exits 2 if the two disagree.  Both read
    n from ModuliParams; tests/paper_reference.hecke_slope_class derives
    the classes from the paper's Hecke transform instead, reading no bound.
    """
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
    search never calls it, as it writes its witnesses down and computes
    their positions in closed form.
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


class BruteForceOutcome(Value):
    git_class: GitClass
    semistable_witness: Optional[tuple[int, MonomialIndex]]
    stable_witness: Optional[tuple[int, MonomialIndex]]
    monomials_enumerated: int
    fixed_point: bool

    __slots__ = _fields = ("git_class", "semistable_witness", "stable_witness",
                           "monomials_enumerated", "fixed_point")

    def __init__(self, git_class: GitClass,
                 semistable_witness: Optional[tuple[int, MonomialIndex]],
                 stable_witness: Optional[tuple[int, MonomialIndex]],
                 monomials_enumerated: int, fixed_point: bool) -> None:
        object.__setattr__(self, "git_class", git_class)
        object.__setattr__(self, "semistable_witness", semistable_witness)
        object.__setattr__(self, "stable_witness", stable_witness)
        object.__setattr__(self, "monomials_enumerated", monomials_enumerated)
        object.__setattr__(self, "fixed_point", fixed_point)


def bruteforce_search(c: Configuration, lin: Linearization, r_max: int = 1) -> BruteForceOutcome:
    """Invariant-monomial search over the powers r = 1..r_max.

    Semistable iff some balanced exponent vector is nonvanishing at c.
    Stable iff additionally some such witness keeps an interior exponent
    (so the top and bottom saturated sets do not cover all slots) and c
    itself is not fixed by the torus.  Witnesses are reported as (r, m):
    the semistable one is the lexicographically first nonvanishing
    balanced vector, the stable one the first with an interior exponent.

    The search stays independent of classify_closed_form and reasons only
    from pinned exponents.  Nonvanishing fixes every [0:1] slot at
    cap = N*r and every [1:0] slot at 0; the free (finite) slots lie in
    [0, cap] and sum to rest = N*r*n - cap * #[0:1] = cap * k, where
    k = n - #[0:1].  So rest is a whole number of caps, and the face of
    nonvanishing balanced vectors at power r is the face at power 1 scaled
    by r.  Pinned slots are constant on it and never interior, so the face
    is ordered by its free slots, and a stable witness needs an interior
    free slot.  The face is nonempty iff 0 <= k <= #free.  In mark counts,
    with #free = N - #[0:1] - #[1:0], 0 <= k is #[0:1] <= n and k <= #free
    is #[1:0] <= N - n: the weak bounds of classify_closed_form, and
    0 < k < #free below are its strict ones.  Its first
    vector packs k caps to the right, zeros elsewhere, and has no interior
    slot: the semistable witness.  It holds an interior vector iff
    0 < k < #free (sums 0 and cap * #free allow only all zeros and all
    caps), and the next face vector, (..., 0, 1, cap - 1, cap, ..., cap),
    is one, since #free >= 2 gives cap >= 2: the stable witness.  Each
    witness therefore exists at power 1 or at no power, and both are
    written down at r = 1 without walking the face.

    monomials_enumerated is the number of balanced vectors the full
    lexicographic sweep over r = 1, 2, ... visits up to and including the
    stable witness: its rank plus one, or with no stable witness the full
    count of every power up to r_max.  The rank is one inclusion-exclusion
    sum per slot and the count one per power, so the work grows with N and
    r_max, never with the length of the sweep; git-classify bounds both.
    The counts are read through lin.balanced_count, so searches under one
    linearization compute each power's count once between them.
    """
    if c.size != lin.N:
        raise LengthMismatchError(f"configuration has {c.size} slots, expected {lin.N}")
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    cap = lin.N
    m = [0] * cap
    free_slots = []
    k = lin.n
    for j, p in enumerate(c.points):
        kind = p.kind
        if kind is PointKind.ZERO:
            m[j] = cap
            k -= 1
        elif kind is PointKind.FINITE:
            free_slots.append(j)
    cls = GitClass.UNSTABLE
    semistable_witness: Optional[tuple[int, MonomialIndex]] = None
    stable_witness: Optional[tuple[int, MonomialIndex]] = None
    if 0 <= k <= len(free_slots):
        for j in free_slots[len(free_slots) - k:]:
            m[j] = cap
        cls, semistable_witness = GitClass.STRICTLY_SEMISTABLE, (1, tuple(m))
        # two free slots at least, so c is not fixed by the torus
        if 0 < k < len(free_slots):
            m[free_slots[-k - 1]], m[free_slots[-k]] = 1, cap - 1
            cls, stable_witness = GitClass.STABLE, (1, tuple(m))

    if stable_witness is not None:
        enumerated = _lex_rank(stable_witness[1], cap) + 1
    else:
        enumerated = sum(map(lin.balanced_count, range(1, r_max + 1)))
    return BruteForceOutcome(cls, semistable_witness, stable_witness, enumerated,
                             not free_slots)


def classify_bruteforce(c: Configuration, lin: Linearization) -> GitClass:
    return bruteforce_search(c, lin).git_class


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
    # stable means n_zero < n and n_inf < N - n, so fewer than N slots are
    # [0:1] or [1:0]
    raise InternalInconsistencyError(
        f"a stable configuration has a finite slot, and {c} has none"
    )
