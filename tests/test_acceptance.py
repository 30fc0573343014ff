"""End-to-end acceptance checks, one per headline guarantee.

Each test prints exactly one PASS/FAIL line (visible under pytest -s)
and enforces its own wall-clock budget. All comparisons are exact.
"""

import itertools
import random
import time

import helpers
from latcov.covariogram import compute_covariogram, convolve
from latcov.homometry import (
    HexagonParams,
    WidthOneParams,
    condition_i,
    condition_ii,
    corollary_pair_generator,
    decompose_plane,
    product_pair,
    sum_is_direct,
    width_one_T,
)
from latcov.invariants import delta_bound_check, invariants_direct
from latcov.lattice import (
    AffineMap2,
    LatticeError,
    canonical_form,
    is_centrally_symmetric,
    is_lattice_convex,
)
from latcov.reconstruct import (
    edge_pair_from_covariogram,
    invariants_from_covariogram,
    reconstruct_all,
)
from latcov.search import enumerate_lattice_convex, homometric_classes


def report(tag, ok, elapsed, budget, detail=""):
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"[{tag}] {status} ({elapsed:.1f}s / budget {budget:.0f}s){extra}")
    assert ok, f"{tag}: {detail}"
    assert elapsed <= budget, f"{tag}: over budget ({elapsed:.1f}s)"


def test_1_search_reproduction_6x5():
    t0 = time.monotonic()
    rep1 = homometric_classes(6, 5, match=True)
    single = time.monotonic() - t0
    t0 = time.monotonic()
    rep2 = homometric_classes(6, 5, jobs=8, match=True)
    at_jobs_8 = time.monotonic() - t0
    pairs = [pr for c in rep1.classes for pr in c.pairs]
    unmatched = [pr for pr in pairs if pr.match is None]
    ok = (len(pairs) >= 1 and not unmatched and rep1 == rep2
          and at_jobs_8 <= 120)
    report("1 search 6x5 + corollary match", ok, single, 600,
           f"pairs={len(pairs)} matched={len(pairs) - len(unmatched)} "
           f"jobs8_run={at_jobs_8:.1f}s identical={rep1 == rep2}")


def test_2_certified_uniqueness():
    t0 = time.monotonic()
    bad = []
    checked = 0
    for K in enumerate_lattice_convex(5, 4):
        if not invariants_direct(K).certified:
            continue
        checked += 1
        hits = reconstruct_all(compute_covariogram(K))
        if hits != [canonical_form(K)]:
            bad.append(sorted(K))
    report("2 certificate implies unique reconstruction", not bad,
           time.monotonic() - t0, 300, f"certified={checked} failures={len(bad)}")


def test_3_invariants_determined_by_covariogram():
    t0 = time.monotonic()
    bad = 0
    total = 0
    for K in enumerate_lattice_convex(5, 4):
        total += 1
        a = invariants_direct(K)
        b = invariants_from_covariogram(compute_covariogram(K))
        if (a.m_prime, a.m_doubleprime, a.m, a.delta, a.normals) != \
                (b.m_prime, b.m_doubleprime, b.m, b.delta, b.normals):
            bad += 1
    report("3 invariants readable from covariogram", bad == 0,
           time.monotonic() - t0, 120, f"sets={total} mismatches={bad}")


def test_4_edge_recovery_random():
    t0 = time.monotonic()
    rng = random.Random(12120)
    bad = 0
    edges = 0
    for _ in range(1000):
        K = helpers.random_lattice_convex(rng, 12, 12)
        g = compute_covariogram(K)
        rec = invariants_from_covariogram(g)
        for u in sorted(rec.normals):
            edges += 1
            sk = edge_pair_from_covariogram(g, u)
            f_pos = helpers.support_points(K, u)
            f_neg = helpers.support_points(K, (-u[0], -u[1]))
            got = {canonical_form(sk.long_row), canonical_form(sk.short_row)}
            want = {canonical_form(f_pos), canonical_form(f_neg)}
            if got != want:
                bad += 1
    report("4 edge pair recovery", bad == 0, time.monotonic() - t0, 60,
           f"hulls=1000 edges={edges} mismatches={bad}")


def test_5_condition_equivalence():
    t0 = time.monotonic()
    bad = 0
    total = 0
    cells = [(i, j) for i in range(3) for j in range(3)]
    for k, ell in [(1, 0), (2, 0), (2, 1), (3, 2)]:
        params = WidthOneParams(k, ell)
        for mask in range(1, 2 ** 9):
            coords = [c for b, c in enumerate(cells) if mask >> b & 1]
            S = frozenset(params.from_coords(c) for c in coords)
            total += 1
            if condition_i(S, params) != condition_ii(S, params):
                bad += 1
    report("5 direct-sum condition equivalence", bad == 0,
           time.monotonic() - t0, 120,
           f"instances={total} disagreements={bad}")


def test_6_generator_sweep():
    t0 = time.monotonic()
    bad = 0
    total = 0
    for k in (1, 2, 3):
        params = WidthOneParams(k, k - 1)
        for a2, b2 in itertools.product(range(4), repeat=2):
            for g1 in range(-b2, a2 + 1):
                for g2 in range(g1, min(g1 + 3, a2) + 1):
                    try:
                        hx = HexagonParams(0, a2, 0, b2, g1, g2)
                    except LatticeError:
                        continue
                    total += 1
                    rep = corollary_pair_generator(params, hx)
                    good = (rep.homometric
                            and is_lattice_convex(rep.first)
                            and is_lattice_convex(rep.second)
                            and rep.nontrivial == (
                                not is_centrally_symmetric(rep.base)))
                    bad += not good
    report("6 hexagon family generator sweep", bad == 0,
           time.monotonic() - t0, 60, f"instances={total} failures={bad}")


def test_7_plane_decomposition():
    t0 = time.monotonic()
    bad = 0
    total = 0
    for k, ell in [(1, 0), (2, 0), (2, 1), (3, 2)]:
        params = WidthOneParams(k, ell)
        T = sorted(width_one_T(params))
        for x in range(-20, 21):
            for y in range(-20, 21):
                total += 1
                lam, t = decompose_plane((x, y), params)
                witnesses = [s for s in T
                             if params.contains((x - s[0], y - s[1]))]
                if (witnesses != [t]
                        or (lam[0] + t[0], lam[1] + t[1]) != (x, y)
                        or not params.contains(lam)):
                    bad += 1
    report("7 unique plane decomposition", bad == 0,
           time.monotonic() - t0, 10, f"points={total} failures={bad}")


def _rand_set(rng, span, npts):
    return frozenset((rng.randint(-span, span), rng.randint(-span, span))
                     for _ in range(rng.randint(1, npts)))


def _rand_unimodular(rng):
    m = ((1, 0), (0, 1))
    gens = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, -1), (1, 0)),
            ((-1, 0), (0, -1))]
    for _ in range(rng.randint(1, 5)):
        g = rng.choice(gens)
        m = (
            (m[0][0] * g[0][0] + m[0][1] * g[1][0],
             m[0][0] * g[0][1] + m[0][1] * g[1][1]),
            (m[1][0] * g[0][0] + m[1][1] * g[1][0],
             m[1][0] * g[0][1] + m[1][1] * g[1][1]),
        )
    return AffineMap2(m, (rng.randint(-5, 5), rng.randint(-5, 5)))


def test_8_identity_suite_10000():
    t0 = time.monotonic()
    rng = random.Random(88888)
    failures = 0

    for _ in range(3000):  # symmetry, peak at origin, total mass
        K = _rand_set(rng, 6, 12)
        g = compute_covariogram(K)
        n = len(K)
        ok = (g.value((0, 0)) == n
              and g.mass == n * n
              and all(g.value((-u[0], -u[1])) == v and v <= n
                      for u, v in g.entries.items()))
        failures += not ok

    for _ in range(2000):  # unimodular equivariance
        K = _rand_set(rng, 5, 9)
        fn = _rand_unimodular(rng)
        g = compute_covariogram(K)
        gt = compute_covariogram(fn.apply_set(K))
        mapped = {(fn.matrix[0][0] * u[0] + fn.matrix[0][1] * u[1],
                   fn.matrix[1][0] * u[0] + fn.matrix[1][1] * u[1]): v
                  for u, v in g.entries.items()}
        failures += gt.entries != mapped

    for _ in range(2000):  # direct sum convolution identity
        S = frozenset((10 * x, 10 * y) for x, y in _rand_set(rng, 2, 4))
        T = _rand_set(rng, 1, 5)
        if not sum_is_direct(S, T):
            failures += 1
            continue
        sum_set = frozenset((s[0] + t[0], s[1] + t[1]) for s in S for t in T)
        got = convolve(compute_covariogram(S), compute_covariogram(T))
        failures += got.entries != compute_covariogram(sum_set).entries

    for _ in range(2500):  # discrepancy never above 2 n^2
        K = helpers.random_lattice_convex(rng, 7, 7)
        failures += not delta_bound_check(invariants_direct(K).normals, len(K))

    for _ in range(500):  # product pairs are homometric in Z^4
        K = _rand_set(rng, 1, 4)
        L = _rand_set(rng, 1, 4)
        rep = product_pair(K, L)
        ga = compute_covariogram(rep.first)
        gb = compute_covariogram(rep.second)
        ok = rep.homometric and ga == gb
        failures += not ok

    report("8 covariogram identity suite", failures == 0,
           time.monotonic() - t0, 60, f"cases=10000 failures={failures}")


def test_9_enumeration_completeness():
    t0 = time.monotonic()
    bad = 0
    for w in (1, 2, 3):
        for h in (1, 2, 3):
            want = helpers.translation_classes(
                helpers.spanning_convex_subsets(w, h))
            got = {helpers.min_normalize(K)
                   for K in enumerate_lattice_convex(w, h)}
            if got != want:
                bad += 1
    report("9 enumeration completeness vs subset filter", bad == 0,
           time.monotonic() - t0, 30, "boxes<=3x3")
