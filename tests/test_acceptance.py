"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every check is an exact (tolerance-zero) identity.  Run with -s to see the
per-criterion lines:  python3 -m pytest tests/test_acceptance.py -v -s
"""

import itertools
import time
from random import Random

from su12fiber import local_model
from su12fiber.configuration import (
    Configuration,
    FiberPoint,
    act,
    mark_data,
    saturate_limit,
)
from su12fiber.exact import DEFAULT_ORDER, Scalar
from su12fiber.git_engine import (
    GitClass,
    Linearization,
    bruteforce_search,
    classify_bruteforce,
    classify_closed_form,
    composition_count,
    s_equivalence_representative,
)
from su12fiber.stability import ModuliParams, StabilityClass, census, classify_counts

from paper_reference import (
    classify_partition,
    git_class_of_stability,
    is_invariant,
    monomial_nonvanishing,
    orbit_equivalent,
    saturated_slots,
    stratum_of,
    torus_acts_as_gauge,
    vanishing_counts,
)

G2D0 = ModuliParams(2, 0)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _report_suite(num: int, name: str, runs) -> None:
    """Run local_model self-check suite checks in order: (check, rng, order, cases)."""
    try:
        details = [check(rng, order, cases) for check, rng, order, cases in runs]
    except AssertionError as exc:
        _report(num, name, False, str(exc))
    else:
        _report(num, name, True, "; ".join(details))


def _random_nonzero_scalar(rng: Random) -> Scalar:
    while True:
        s = Scalar.from_ratios(rng.randint(-9, 9), rng.randint(1, 9), 0, 1)
        if not s.is_zero():
            return s


def _config_from_pattern(pattern, rng: Random) -> Configuration:
    points = []
    for ch in pattern:
        if ch == "z":
            points.append(FiberPoint.zero())
        elif ch == "i":
            points.append(FiberPoint.infinity())
        else:
            points.append(FiberPoint.finite(_random_nonzero_scalar(rng)))
    return Configuration.of("L0", points)


def _all_patterns(size: int):
    return itertools.product("zif", repeat=size)


def test_criterion_1_bruteforce_matches_closed_form():
    rng = Random(101)
    start = time.monotonic()
    checked = 0
    mismatches = []
    lin_main = Linearization.for_moduli(G2D0)  # N = 4, n = 2
    for pattern in _all_patterns(4):
        c = _config_from_pattern(pattern, rng)
        expected = classify_closed_form(c, lin_main)
        for r_max in (1, 2):
            got = bruteforce_search(c, lin_main, r_max).git_class
            checked += 1
            if got is not expected:
                mismatches.append((pattern, r_max, expected, got))
    # every weight parameter n on four slots, including the degenerate ends
    for n in range(5):
        lin = Linearization(n, 4)
        for pattern in _all_patterns(4):
            c = _config_from_pattern(pattern, rng)
            expected = classify_closed_form(c, lin)
            for r_max in (1, 2):
                got = bruteforce_search(c, lin, r_max).git_class
                checked += 1
                if got is not expected:
                    mismatches.append((pattern, n, r_max, expected, got))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 60.0
    _report(
        1,
        "brute-force vs closed-form equivalence",
        ok,
        f"{checked} classifications agree in {elapsed:.1f}s"
        if ok
        else f"mismatches={mismatches[:3]} elapsed={elapsed:.1f}s",
    )


def _dictionary_failures(p: ModuliParams, c: Configuration) -> list:
    """Each side of the stability/GIT dictionary against the closed form: the
    labels of stratum_of, the vanishing counts read through the local model,
    and the invariant-monomial search."""
    lin = Linearization.for_moduli(p)
    git = classify_closed_form(c, lin)
    failures = []
    partition_class = classify_partition(p, stratum_of(c))
    if git_class_of_stability(partition_class) is not git:
        failures.append(("dictionary", c, partition_class, git))
    local_class = classify_counts(p, *vanishing_counts(c))
    if git_class_of_stability(local_class) is not git:
        failures.append(("local model", c, local_class, git))
    searched = bruteforce_search(c, lin).git_class
    if searched is not git:
        failures.append(("search", c, searched, git))
    return failures


def _genus_100_boundary_configurations(rng: Random):
    """At each degree, mark counts at and next to both bounds, slots shuffled.

    The degrees sit near the Milnor-Wood ends, where the stable witness's
    rank is cheap, and on both sides of 0, where gamma_bound != beta_bound.
    """
    for d in (-97, -90, 97):
        p = ModuliParams(100, d)
        n, m = p.gamma_bound, p.beta_bound
        for n_zero, n_inf in (
            (n - 1, m - 1), (n - 1, 0), (0, m - 1),  # stable
            (n, m - 1), (n - 1, m), (n, m),  # strictly semistable
            (n + 1, 0), (0, m + 1),  # unstable
        ):
            points = [FiberPoint.zero()] * n_zero + [FiberPoint.infinity()] * n_inf
            points += [
                FiberPoint.finite(_random_nonzero_scalar(rng))
                for _ in range(p.N - n_zero - n_inf)
            ]
            rng.shuffle(points)
            yield p, Configuration.of("L0", points)


def test_criterion_2_stability_git_dictionary():
    rng = Random(202)
    patterns = list(_all_patterns(4))
    failures = []
    for _ in range(1000):
        failures += _dictionary_failures(G2D0, _config_from_pattern(rng.choice(patterns), rng))
    classes = set()
    for p, c in _genus_100_boundary_configurations(Random(2020)):
        failures += _dictionary_failures(p, c)
        classes.add(classify_closed_form(c, Linearization.for_moduli(p)))
    ok = not failures and classes == set(GitClass)
    _report(
        2,
        "stability-GIT dictionary",
        ok,
        "1000 random configurations and 24 genus-100 ones, read through the labels, "
        "the local model and the search"
        if ok
        else f"failures={failures[:3]} classes={sorted(c.name for c in classes)}",
    )


def test_criterion_3_census_counts():
    r0 = census(G2D0)
    r1 = census(ModuliParams(2, 1))
    checks = {
        "g2d0 stable": r0.stable_total == 21,
        "g2d0 strictly polystable": r0.class_total(StabilityClass.STRICTLY_POLYSTABLE) == 6,
        "g2d0 total": sum(r.labeled_count for r in r0.rows) == 81,
        "g2d1 stable": r1.stable_total == 0,
        "g2d1 total": sum(r.labeled_count for r in r1.rows) == 81,
    }
    bad = [k for k, v in checks.items() if not v]
    _report(
        3,
        "census counts",
        not bad,
        "21 stable / 6 strictly polystable / 81 total; degree 1 has none"
        if not bad
        else f"failed: {bad}",
    )


def test_criterion_4_smith_form():
    rng = Random(404)
    _report_suite(
        4,
        "Smith reduction to diag(1, zeta)",
        [
            (local_model._check_smith_randomized, rng, 8, 200),
            (local_model._check_smith_worked_examples, rng, 8, 3),
        ],
    )


def test_criterion_5_normal_form():
    rng = Random(505)
    _report_suite(
        5,
        "local normal form",
        [(local_model._check_normal_form, rng, order, 20) for order in range(2, 13)],
    )


def test_criterion_6_hecke_round_trip():
    _report_suite(
        6,
        "Hecke kernel round trip",
        [(local_model._check_hecke_round_trip, Random(606), DEFAULT_ORDER, 500)],
    )


def test_criterion_7_orbit_s_equivalence():
    rng = Random(707)
    lin = Linearization.for_moduli(G2D0)
    stable_patterns = [
        pattern
        for pattern in _all_patterns(4)
        if pattern.count("z") < 2 and pattern.count("i") < 2
    ]
    failures = []
    for _ in range(500):
        x = _config_from_pattern(rng.choice(stable_patterns), rng)
        c = _random_nonzero_scalar(rng)
        if orbit_equivalent(x, act(c, x)) != c:
            failures.append((x, c, "orbit scale"))
        if s_equivalence_representative(act(c, x), lin) != s_equivalence_representative(x, lin):
            failures.append((x, c, "representative not orbit-constant"))
    semistable_count = 0
    for pattern in _all_patterns(4):
        c = _config_from_pattern(pattern, rng)
        if classify_closed_form(c, lin) is not GitClass.STRICTLY_SEMISTABLE:
            continue
        semistable_count += 1
        rep = s_equivalence_representative(c, lin)
        if rep != saturate_limit(c, lin.n, lin.N):
            failures.append((pattern, "representative is not the limit"))
        if act(_random_nonzero_scalar(rng), rep) != rep:
            failures.append((pattern, "representative is not fixed"))
    ok = not failures and semistable_count > 0
    _report(
        7,
        "orbit and S-equivalence structure",
        ok,
        f"500 stable orbits + {semistable_count} strictly semistable patterns"
        if ok
        else f"failures={failures[:3]}",
    )


def test_criterion_8_scaling_invariance():
    rng = Random(808)
    lin = Linearization.for_moduli(G2D0)
    failures = []
    for pattern in _all_patterns(4):
        x = _config_from_pattern(pattern, rng)
        base = (
            classify_closed_form(x, lin),
            stratum_of(x),
            (mark_data(x).n_zero, mark_data(x).n_inf),
            vanishing_counts(x),
        )
        for _ in range(100):
            y = act(_random_nonzero_scalar(rng), x)
            scaled = (
                classify_closed_form(y, lin),
                stratum_of(y),
                (mark_data(y).n_zero, mark_data(y).n_inf),
                vanishing_counts(y),
            )
            if scaled != base:
                failures.append((pattern, base, scaled))
                break
        # the brute-force route must be scale-invariant too
        if classify_bruteforce(act(_random_nonzero_scalar(rng), x), lin) is not base[0]:
            failures.append((pattern, "brute-force drifted under scaling"))
    # the torus acts on each slot's Hecke frame as the gauge diag(1, scale)
    gauge_rng = Random(818)
    for order in (2, 8, 16):
        for _ in range(10):
            t = local_model.random_scalar(gauge_rng, nonzero=True)
            for point in (FiberPoint.zero(), FiberPoint.infinity(), FiberPoint.finite(t)):
                scale = local_model.random_scalar(gauge_rng, nonzero=True)
                if not torus_acts_as_gauge(point, scale, order):
                    failures.append((order, str(point), str(scale), "not the gauge"))
    _report(
        8,
        "scaling invariance of all classifiers",
        not failures,
        "81 patterns x 100 random scalings, plus brute-force spot checks; "
        "90 Hecke frames moved by the gauge diag(1, scale)"
        if not failures
        else f"failures={failures[:3]}",
    )


def test_criterion_9_face_search_at_genus_4():
    # N = 12 slots with n = 6: the full sweep has about 7.1e11 vectors at
    # r = 1, and no search may report more than the full count
    p = ModuliParams(4, 0)
    lin = Linearization.for_moduli(p)
    assert (lin.N, lin.n) == (12, 6)
    rng = Random(909)
    failures = []
    checked = 0
    for r_max in (1, 2):
        full = sum(
            composition_count(lin.N * r * lin.n, lin.N * r, lin.N) for r in range(1, r_max + 1)
        )
        for n_zero in range(lin.N + 1):
            for n_inf in range(lin.N + 1 - n_zero):
                pattern = ["z"] * n_zero + ["i"] * n_inf + ["f"] * (lin.N - n_zero - n_inf)
                rng.shuffle(pattern)
                c = _config_from_pattern(pattern, rng)
                outcome = bruteforce_search(c, lin, r_max)
                expected = classify_closed_form(c, lin)
                checked += 1
                if outcome.git_class is not expected:
                    failures.append((pattern, r_max, expected, outcome.git_class))
                if (outcome.semistable_witness is None) != (expected is GitClass.UNSTABLE):
                    failures.append((pattern, r_max, "semistable witness"))
                if expected is GitClass.STABLE and outcome.stable_witness is None:
                    failures.append((pattern, r_max, "stable witness"))
                if not 1 <= outcome.monomials_enumerated <= full:
                    failures.append((pattern, r_max, outcome.monomials_enumerated))
                for kind, witness in (
                    ("semistable", outcome.semistable_witness),
                    ("stable", outcome.stable_witness),
                ):
                    if witness is None:
                        continue
                    r, m = witness
                    top, bottom = saturated_slots(m, lin, r)
                    interior = lin.N - len(top) - len(bottom)
                    if not (
                        1 <= r <= r_max
                        and is_invariant(m, lin, r)
                        and monomial_nonvanishing(m, c, lin, r)
                        and (kind == "semistable" or interior > 0)
                    ):
                        failures.append((pattern, r_max, kind, witness))
    _report(
        9,
        "face search at genus 4",
        not failures,
        f"{checked} mark patterns on 12 slots, r_max 1 and 2, agree with the closed form"
        if not failures
        else f"failures={failures[:3]}",
    )
