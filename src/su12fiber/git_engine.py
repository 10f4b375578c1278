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
  classify_bruteforce    exhaustive enumeration of balanced exponent
                         vectors, semistability by witness, stability by
                         a witness with an interior exponent
                         0 < m_j < N*r (the closed-orbit criterion)
                         at a non-fixed configuration.

They must agree everywhere; the test suite and the CLI check that they do.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Sequence

from .configuration import Configuration, act, mark_data, saturate_limit
from .errors import LengthMismatchError, NoChartError, SearchSpaceError
from .stability import ModuliParams, StabilityClass


class GitClass(Enum):
    STABLE = "GitStable"
    STRICTLY_SEMISTABLE = "StrictlySemistable"
    UNSTABLE = "GitUnstable"


@dataclass(frozen=True)
class Linearization:
    """Slot count N, weight budget n, and polarization power r."""

    n: int
    N: int
    r: int = 1

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError(f"need at least one slot, got N = {self.N}")
        if not 0 <= self.n <= self.N:
            raise ValueError(f"weight budget n = {self.n} outside [0, {self.N}]")
        if self.r < 1:
            raise ValueError(f"polarization power must be >= 1, got {self.r}")

    @staticmethod
    def for_moduli(p: ModuliParams, r: int = 1) -> "Linearization":
        return Linearization(p.n, p.N, r)

    @property
    def cap(self) -> int:
        """Componentwise exponent bound N * r."""
        return self.N * self.r

    @property
    def target(self) -> int:
        """Balanced total weight N * r * n."""
        return self.N * self.r * self.n


MonomialIndex = tuple[int, ...]


def _check_monomial(m: Sequence[int], lin: Linearization) -> None:
    if len(m) != lin.N:
        raise LengthMismatchError(f"exponent vector has {len(m)} slots, expected {lin.N}")
    for j, mj in enumerate(m):
        if not 0 <= mj <= lin.cap:
            raise ValueError(f"exponent m[{j}] = {mj} outside [0, {lin.cap}]")


def is_invariant(m: Sequence[int], lin: Linearization) -> bool:
    """Torus invariance is the balancing condition sum(m) == N*r*n."""
    _check_monomial(m, lin)
    return sum(m) == lin.target


def saturated_slots(m: Sequence[int], lin: Linearization) -> tuple[frozenset[int], frozenset[int]]:
    """Slots at the top exponent N*r and at the bottom exponent 0."""
    _check_monomial(m, lin)
    top = frozenset(j for j, mj in enumerate(m) if mj == lin.cap)
    bottom = frozenset(j for j, mj in enumerate(m) if mj == 0)
    return top, bottom


def monomial_nonvanishing(m: Sequence[int], c: Configuration, lin: Linearization) -> bool:
    """Nonvanishing at c: every [0:1] slot saturated top, every [1:0] slot bottom."""
    _check_monomial(m, lin)
    if c.size != lin.N:
        raise LengthMismatchError(f"configuration has {c.size} slots, expected {lin.N}")
    marks = mark_data(c)
    return all(m[j] == lin.cap for j in marks.zero_slots) and all(
        m[j] == 0 for j in marks.infinity_slots
    )


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


def affine_chart(
    c: Configuration, p: ModuliParams
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Deterministic chart partition (I1, I2, I3) around a stable-locus point.

    Sizes are |I1| = n - 1, |I2| = N - n - 1, |I3| = 2 with membership
    constraints: no [1:0] slot in I1, no [0:1] slot in I2, only finite
    slots in I3.  Greedy, lowest indices first: I3 takes the two lowest
    finite slots; I1 takes every [0:1] slot (nothing else can absorb them)
    then fills up with the lowest remaining finite slots; I2 gets the rest.
    A stable-locus point always has enough room in each part.  The stable
    locus is empty when n lies outside [0, N], where no linearization
    exists.
    """
    try:
        lin = Linearization.for_moduli(p)
    except ValueError:
        lin = None
    if lin is None or classify_closed_form(c, lin) is not GitClass.STABLE:
        raise NoChartError("affine charts exist only over the stable locus")
    n, N = p.n, p.N
    finite = [j for j, pt in enumerate(c.points) if pt.is_finite()]
    zeros = [j for j, pt in enumerate(c.points) if pt.is_zero()]

    i3 = finite[:2]
    i1 = list(zeros)
    for j in finite[2:]:
        if len(i1) >= n - 1:
            break
        i1.append(j)
    i1.sort()
    used = set(i3) | set(i1)
    i2 = [j for j in range(N) if j not in used]
    return tuple(i1), tuple(i2), tuple(i3)


def composition_count(total: int, cap: int, length: int) -> int:
    """Number of integer vectors of the given length in [0, cap] summing to total."""
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


def bounded_compositions(total: int, cap: int, length: int) -> Iterator[MonomialIndex]:
    """All vectors in [0, cap]^length with the given sum, lexicographic order."""
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


# admits the largest honest sweep (N = 8, r = 1, middle weight: 2.3e6
# balanced vectors, a few seconds) and rejects N = 8 with r_max = 2
# (2e8 vectors) before any work happens
DEFAULT_SEARCH_BUDGET = 4_000_000


@dataclass(frozen=True)
class BruteForceOutcome:
    git_class: GitClass
    semistable_witness: Optional[tuple[int, MonomialIndex]]
    stable_witness: Optional[tuple[int, MonomialIndex]]
    monomials_enumerated: int
    fixed_point: bool


def bruteforce_search(
    c: Configuration,
    lin: Linearization,
    r_max: int = 1,
    budget: int = DEFAULT_SEARCH_BUDGET,
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
    # stop summing at the first power that overflows the budget: a huge
    # r_max must be refused without counting every power up to it
    space = 0
    for r in range(1, r_max + 1):
        space += composition_count(lin.N * r * lin.n, lin.N * r, lin.N)
        if space > budget:
            raise SearchSpaceError(
                f"enumeration of {space} balanced exponent vectors up to power "
                f"r = {r} exceeds budget {budget}"
            )

    fixed = all(not p.is_finite() for p in c.points)
    marks = mark_data(c)
    zero_slots = tuple(marks.zero_slots)
    inf_slots = tuple(marks.infinity_slots)
    semistable_witness: Optional[tuple[int, MonomialIndex]] = None
    stable_witness: Optional[tuple[int, MonomialIndex]] = None
    enumerated = 0
    for r in range(1, r_max + 1):
        lin_r = Linearization(lin.n, lin.N, r)
        cap = lin_r.cap
        # the enumerator only emits in-bounds balanced vectors, so the
        # per-vector work is exactly the nonvanishing subset test
        for m in bounded_compositions(lin_r.target, cap, lin_r.N):
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


def classify_bruteforce(
    c: Configuration,
    lin: Linearization,
    r_max: int = 1,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> GitClass:
    return bruteforce_search(c, lin, r_max, budget).git_class


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


def git_class_of_stability(s: StabilityClass) -> GitClass:
    """Dictionary between partition stability and torus-quotient classes."""
    if s is StabilityClass.STABLE:
        return GitClass.STABLE
    if s in (StabilityClass.STRICTLY_POLYSTABLE, StabilityClass.SEMISTABLE_NOT_POLYSTABLE):
        return GitClass.STRICTLY_SEMISTABLE
    return GitClass.UNSTABLE
