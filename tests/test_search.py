import os
import random
import subprocess
import sys
import time
import tracemalloc
from math import gcd

import pytest

import helpers
from latcov import _polygons, lattice, reconstruct, search
from latcov.covariogram import compute_covariogram
from latcov.homometry import (
    HexagonParams,
    WidthOneParams,
    corollary_pair_generator,
    mirror_pair,
    width_one_T,
)
from latcov.invariants import invariants_direct
from latcov.lattice import (
    AffineMap2,
    LatticeError,
    affine_witnesses,
    canonical_form,
    convex_hull,
    is_lattice_convex,
    translate,
)
from latcov.search import (
    enumerate_lattice_convex,
    homometric_classes,
    match_corollary,
)


def nine_point_pair():
    rep = corollary_pair_generator(
        WidthOneParams(1, 0), HexagonParams(0, 1, 0, 1, 0, 1))
    return rep.first, rep.second


def test_enumerate_2x2():
    got = set(enumerate_lattice_convex(2, 2))
    assert len(got) == 5
    assert frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}) in got
    classes = {canonical_form(K) for K in got}
    assert len(classes) == 3  # triangle, reflected triangle pair, square


def test_enumerate_degenerate_boxes_empty():
    assert list(enumerate_lattice_convex(1, 5)) == []
    assert list(enumerate_lattice_convex(4, 1)) == []


def test_empty_extents_answered_before_any_ray(monkeypatch):
    # a chain needs both extents at least 1: a box with a side of 1 is
    # answered before any ray table is built, however long its other side
    def refuse(*args):
        raise AssertionError("ray table built for an empty box")

    monkeypatch.setattr(_polygons, "_ray_groups", refuse)
    monkeypatch.setattr(search, "_ray_groups", refuse)
    assert list(enumerate_lattice_convex(1, 2 ** 31)) == []
    assert list(enumerate_lattice_convex(2 ** 31, 1)) == []
    assert _polygons.count_chains(0, 2 ** 31) == 0
    for box in [(1, 2 ** 31), (2 ** 31, 1)]:
        rep = homometric_classes(*box, allow_large=True)
        assert (rep.total_classes, rep.classes) == (0, ())


def test_enumerate_rejects_bad_box():
    with pytest.raises(LatticeError):
        list(enumerate_lattice_convex(0, 3))
    # positivity is checked before the desk-scale limit, whose product of
    # two negative sides is large
    for w, h in [(-7, -7), (-1, -50), (0, 3)]:
        with pytest.raises(LatticeError, match="positive"):
            homometric_classes(w, h)


def test_enumerate_sound():
    for K in enumerate_lattice_convex(4, 3):
        assert is_lattice_convex(K)
        assert helpers.spans_plane(K)


def test_enumerate_complete_small_boxes():
    for w, h in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        want = helpers.translation_classes(helpers.spanning_convex_subsets(w, h))
        got = set(enumerate_lattice_convex(w, h))
        assert {helpers.min_normalize(K) for K in got} == want
        assert len(got) == len(want)  # no duplicates either


def test_enumerate_deterministic_and_parallel_identical():
    a = list(enumerate_lattice_convex(4, 4))
    b = list(enumerate_lattice_convex(4, 4, jobs=4))
    assert a == b
    c = list(enumerate_lattice_convex(4, 4))
    assert a == c


def test_homometric_classes_2x2_empty():
    rep = homometric_classes(2, 2)
    assert rep.total_classes == 5
    assert rep.classes == ()


def test_homometric_classes_4x4_finds_nine_point_pair():
    rep = homometric_classes(4, 4)
    assert rep.total_classes == 1633
    assert len(rep.classes) >= 1
    first, second = nine_point_pair()
    targets = {canonical_form(first), canonical_form(second)}
    hit = any(set(c.members) == targets for c in rep.classes)
    assert hit
    for c in rep.classes:
        for pr in c.pairs:
            assert compute_covariogram(pr.first) == compute_covariogram(pr.second)
            assert canonical_form(pr.first) != canonical_form(pr.second)


def test_homometric_classes_guardrail():
    with pytest.raises(LatticeError):
        homometric_classes(7, 7)
    # explicit override allowed: tiny-but-flagged call still works
    rep = homometric_classes(2, 2, allow_large=True)
    assert rep.classes == ()


def test_match_corollary_nine_point():
    first, second = nine_point_pair()
    m = match_corollary(first, second)
    assert m is not None
    assert m.params.k == 1 and m.params.ell == 0
    T = width_one_T(m.params)
    S = frozenset(m.params.from_coords(c)
                  for c in m.hexagon.region())
    pair = {frozenset((s[0] + t[0], s[1] + t[1]) for s in S for t in T),
            frozenset((s[0] - t[0], s[1] - t[1]) for s in S for t in T)}
    # witness maps really carry the two members onto the generated pair
    gen = sorted(pair, key=sorted)
    img1 = m.first_map.apply_set(first)
    img2 = m.second_map.apply_set(second)
    got = sorted({frozenset(img1), frozenset(img2)}, key=sorted)
    assert got == gen


def test_match_corollary_sheared():
    first, second = nine_point_pair()
    shear = AffineMap2(((1, 1), (0, 1)), (3, -5))
    m = match_corollary(shear.apply_set(first), shear.apply_set(second))
    assert m is not None
    assert m.first_map.matrix != ((1, 0), (0, 1))


def test_match_corollary_reflected_member():
    first, second = nine_point_pair()
    refl = frozenset((-x, -y) for x, y in second)
    m = match_corollary(first, translate(refl, (7, 3)))
    assert m is not None


def test_match_corollary_beyond_k_4():
    # |K| = 33: the strip sizes 3 and 11 divide it, and only k = 5 matches
    rep = corollary_pair_generator(
        WidthOneParams(5, 4), HexagonParams(0, 1, 0, 1, 0, 1))
    m = match_corollary(rep.first, rep.second)
    assert m is not None
    assert (m.params.k, m.params.ell) == (5, 4)


def test_affine_witnesses_oracle_order_on_6x5_candidates():
    # each member against every generated member match_corollary tries
    matched = 0
    for cls in homometric_classes(6, 5).classes:
        for hom in cls.pairs:
            n = len(hom.first)
            for k in range(1, (n - 1) // 2 + 1):
                params = WidthOneParams(k, k - 1)
                if n % params.index:
                    continue
                for hx in helpers.hexagon_candidates(n // params.index):
                    pair = corollary_pair_generator(params, hx)
                    if not pair.nontrivial:
                        continue
                    for K in (hom.first, hom.second):
                        for P in (pair.first, pair.second):
                            got = list(affine_witnesses(K, P))
                            want = list(
                                helpers.affine_witnesses_by_triples(K, P))
                            assert got == want
                            matched += bool(got)
    assert matched


def test_match_corollary_precondition():
    sq = {(0, 0), (1, 0), (0, 1), (1, 1)}
    tri = {(0, 0), (1, 0), (0, 1)}
    with pytest.raises(LatticeError):
        match_corollary(sq, tri)  # not homometric
    with pytest.raises(LatticeError):
        match_corollary(sq, translate(sq, (4, 4)))  # trivial pair
    a = {(0, 0, 0, 0), (1, 0, 0, 0)}
    with pytest.raises(LatticeError, match="dimension"):
        match_corollary(a, a)


def test_hexagon_candidates_are_the_tight_windows():
    # a window (0, a2, 0, b2, g1, g2) is tight when every bound is met:
    # g1 <= min(0, a2 - b2) and g2 >= max(0, a2 - b2); its region is the
    # rectangle less the two corners cut by g1 and g2
    def tri(m):
        return m * (m + 1) // 2

    for size in range(1, 31):
        tight = [(a2, b2, g1, g2)
                 for a2 in range(size) for b2 in range(size)
                 for g1 in range(-b2, min(0, a2 - b2) + 1)
                 for g2 in range(max(0, a2 - b2), a2 + 1)
                 if (a2 + 1) * (b2 + 1) - tri(b2 + g1) - tri(a2 - g2) == size]
        got = [(hx.a2, hx.b2, hx.g1, hx.g2)
               for hx in helpers.hexagon_candidates(size)]
        assert got == tight


# unimodular matrices that place generated pairs in general position
PLACEMENTS = [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (0, 1)),
              ((2, 1), (1, 1)), ((1, 0), (-1, 1)), ((-1, 2), (0, 1)),
              ((0, -1), (1, 0)), ((3, 2), (1, 1))]


def test_match_corollary_equals_window_scan():
    pairs = [(pr.first, pr.second)
             for box in [(6, 5), (5, 6), (7, 6)]
             for c in homometric_classes(*box, allow_large=True).classes
             for pr in c.pairs]
    assert len(pairs) == 12 + 12 + 36
    rng = random.Random(2005)
    while len(pairs) < 60 + 30:
        k, a2, b2 = rng.randint(1, 3), rng.randint(0, 3), rng.randint(0, 3)
        g1 = rng.randint(-b2, a2)
        rep = corollary_pair_generator(
            WidthOneParams(k, k - 1),
            HexagonParams(0, a2, 0, b2, g1, rng.randint(g1, a2)))
        if not rep.nontrivial:
            continue
        fn = AffineMap2(rng.choice(PLACEMENTS),
                        (rng.randint(-9, 9), rng.randint(-9, 9)))
        first, second = fn.apply_set(rep.first), fn.apply_set(rep.second)
        if rng.random() < 0.5:
            second = frozenset((-x, -y) for x, y in second)
        pairs.append((second, first) if rng.random() < 0.5
                     else (first, second))
    for first, second in pairs:
        m = match_corollary(first, second)
        assert m is not None
        assert m == helpers.match_corollary_by_windows(first, second)


@pytest.mark.parametrize("S, T", [
    # no group of free lines has three lines
    ({(0, 1), (1, 0), (1, 1), (2, 1)}, {(0, 2), (2, 0), (3, 2)}),
    # one map of the triangle gives k != l + 1, and another gives no tile
    ({(1, 0), (3, 0), (3, 2)}, {(1, 1), (2, 1), (3, 0)}),
    # a window that fits |K| builds a trivial family pair
    ({(0, 2), (2, 1), (3, 0)}, {(0, 1), (0, 2), (1, 2), (3, 2)}),
])
def test_match_corollary_refuses_pairs_off_the_family(S, T):
    rep = mirror_pair(S, T)
    assert rep.nontrivial
    assert match_corollary(rep.first, rep.second) is None
    assert helpers.match_corollary_by_windows(rep.first, rep.second) is None


def test_match_corollary_in_time_at_k_20():
    rep = corollary_pair_generator(
        WidthOneParams(20, 19), HexagonParams(0, 1, 0, 1, 0, 1))
    shear = AffineMap2(((2, 1), (1, 1)), (0, 0))
    second = frozenset((-x, -y) for x, y in shear.apply_set(rep.second))
    t0 = time.monotonic()
    m = match_corollary(shear.apply_set(rep.first), second)
    assert time.monotonic() - t0 < 2
    assert m is not None and m.params.k == 20


def test_search_5x4_report_shape():
    rep = homometric_classes(5, 4, match=True)
    assert rep.total_classes == 5024
    pairs = [pr for c in rep.classes for pr in c.pairs]
    assert len(pairs) >= 1
    for pr in pairs:
        assert pr.match is not None


def test_homometric_classes_matches_covariogram_grouping():
    # every box up to 5x4, both orientations, against the exhaustive oracle
    boxes = {(w, h) for w in range(1, 6) for h in range(1, 5)}
    boxes |= {(h, w) for w, h in boxes}
    for w, h in sorted(boxes):
        rep = homometric_classes(w, h)
        total, classes = helpers.covariogram_grouping(w, h)
        assert rep.total_classes == total, (w, h)
        got = [(c.members, [(p.first, p.second) for p in c.pairs])
               for c in rep.classes]
        assert got == classes, (w, h)


def test_chain_key_read_off_covariogram_5x4():
    chains = list(map(tuple, _polygons.walk_chains(4, 3)))
    sets = set()
    for chain in chains:
        sig = _polygons._signature(chain)
        K = _polygons._lattice_points_of_chain(chain)
        sets.add(K)
        g = compute_covariogram(K)
        assert helpers.chain_key(chain) == helpers.covariogram_key(g), \
            sorted(K)
        assert reconstruct._edge_lines(g) == sig, sorted(K)
    assert len(chains) == len(sets) == 5024
    assert sets == set(enumerate_lattice_convex(5, 4))


def test_signature_has_one_order_the_ray_order():
    # an edge signature lists its lines in the angle order of the ray
    # table: every chain up to (5, 4) and (4, 5), by the rank of its
    # lines among _ray_groups' rays, and the sheared and far sets
    # (supports with few points per row, and coordinates near 2^31),
    # whose lines lie outside any small ray table, by their exact angle;
    # _edge_lines reads the same tuple, order included, off each of
    # their covariograms (and off those of the 5x4 box, above)
    rank = {group[0]: i
            for i, group in enumerate(_polygons._ray_groups(5, 5))}
    upper = [d for d in rank if d == helpers.edge_line(d)]
    assert sorted(upper, key=helpers.line_angle) == sorted(upper, key=rank.get)
    for chain in [*_polygons.walk_chains(5, 4), *_polygons.walk_chains(4, 5)]:
        lines = [d for d, _, _ in _polygons._signature(chain)]
        assert lines == sorted(lines, key=rank.get), chain
    for F in [*sheared_sets(), *far_sets()]:
        sig = _polygons._signature(convex_hull(F).chain)
        assert sig == helpers.in_angle_order(sig), sorted(F)
        assert reconstruct._edge_lines(compute_covariogram(F)) == sig, \
            sorted(F)


FAR = (2 ** 31 - 1, 1)


def sheared_sets():
    """200 seeded lattice-convex sets of the 6x5 box under shears of up
    to 40 along either axis."""
    rng = random.Random(404)
    for _ in range(200):
        K = helpers.random_lattice_convex(rng, 6, 5)
        s = rng.randint(-40, 40)
        if rng.random() < 0.5:
            yield {(x + s * y, y) for x, y in K}
        else:
            yield {(x, y + s * x) for x, y in K}


def test_chain_fill_exact_on_sheared_and_far_sets():
    for F in sheared_sets():
        assert _polygons._lattice_points_of_chain(convex_hull(F).chain) == \
            helpers.min_normalize(F)
    chain = [(1, 0), (FAR[0] - 1, 1), (-FAR[0], -1)]
    assert _polygons._lattice_points_of_chain(chain) == {(0, 0), (1, 0), FAR}


def far_sets():
    """The far triangle, its point reflection, and 100 seeded sets of the
    6x5 box sheared by about +-2^29 along either axis, so that their
    coordinates reach about 2^31 in absolute value, of either sign."""
    rng = random.Random(405)
    yield {(0, 0), (1, 0), FAR}
    yield {(0, 0), (-1, 0), (-FAR[0], -FAR[1])}
    for _ in range(100):
        K = helpers.random_lattice_convex(rng, 6, 5)
        s = rng.choice([-1, 1]) * (2 ** 29 - rng.randint(1, 40))
        if rng.random() < 0.5:
            yield {(x + s * y, y) for x, y in K}
        else:
            yield {(x, y + s * x) for x, y in K}


def test_convex_hull_matches_all_points_oracle():
    # the row-extreme hull gives the all-points chain's exact Hull2:
    # every set of the 5x4 and 4x5 boxes, each minus one point, their
    # covariograms' supports, sheared and far sets, collinear sets and
    # single points, as lists, as a generator and with duplicates
    boxes = [*enumerate_lattice_convex(5, 4), *enumerate_lattice_convex(4, 5)]
    sets = [*boxes, *(K - {p} for K in boxes for p in K),
            *(compute_covariogram(K).entries for K in boxes),
            *sheared_sets(), *far_sets()]
    for n in range(1, 6):
        for dx, dy in [(1, 0), (0, 1), (1, 1), (1, -1), (3, -2), (FAR[0], 1)]:
            sets.append({(7 + i * dx, -4 + i * dy) for i in range(n)})
    assert len(sets) > 4 * 5024
    for K in sets:
        want = helpers.convex_hull_by_all_points(K)
        assert convex_hull(K) == want, sorted(K)
        assert convex_hull(list(map(list, K))) == want, sorted(K)
        assert convex_hull(p for p in [*K, *K]) == want, sorted(K)
    for bad in [[], [(1, 2, 3)], [(0, 0, 0), (1, 1, 1)], [(5,)]]:
        with pytest.raises(LatticeError) as want:
            helpers.convex_hull_by_all_points(bad)
        for arg in [bad, iter(bad)]:
            with pytest.raises(LatticeError) as got:
                convex_hull(arg)
            assert (type(got.value), str(got.value)) == \
                (type(want.value), str(want.value)), bad


def test_chain_fill_matches_all_edges_fill():
    # each row from its two spanning edges gives what the min and max
    # over all edges gave: every chain up to (5, 4) and (4, 5), every
    # closing the 6x5, 5x6 and 7x6 searches fill, and sheared and far
    # chains whose lower edges need the exact ceiling
    chains = [*map(tuple, _polygons.walk_chains(5, 4)),
              *map(tuple, _polygons.walk_chains(4, 5))]
    assert len(chains) == 2 * 53524
    for box in [(6, 5), (5, 6), (7, 6)]:
        for twice_n, sig in helpers.split_keys(*box):
            chains.extend(_polygons._closing_chains(sig, twice_n))
    assert len(chains) > 2 * 53524 + 2 * 1304
    for chain in chains:
        assert _polygons._lattice_points_of_chain(chain) == \
            helpers.lattice_points_by_all_edges(chain), chain
    for F in [*sheared_sets(), *far_sets()]:
        chain = convex_hull(F).chain
        K = _polygons._lattice_points_of_chain(chain)
        assert K == helpers.lattice_points_by_all_edges(chain), sorted(F)
        assert K == helpers.min_normalize(F), sorted(F)


def signatures_5x4():
    return {helpers.chain_key(chain)
            for chain in map(tuple, _polygons.walk_chains(4, 3))}


def test_closings_in_angle_order_match_sort_oracle():
    # each line's edges placed in angle order give the sorted chains,
    # in the same order: every key of 6x5, 5x6 and 7x6, and every
    # signature of the 5x4 box
    keys = set(signatures_5x4())
    assert len(keys) > 1000
    for box in [(6, 5), (5, 6), (7, 6)]:
        keys |= helpers.split_keys(*box)
    for twice_n, sig in keys:
        assert list(_polygons._closing_chains(sig, twice_n)) == \
            list(helpers.closing_chains_by_sort(sig, twice_n)), sig


def test_row_moments_equal_moments_of_filled_set():
    # every chain up to (5, 4) and (4, 5), every closing of the 6x5, 5x6
    # and 7x6 keys and of the 5x4 signatures, and the sheared and far
    # chains, whose negative coordinates need the exact ceiling
    chains = [*map(tuple, _polygons.walk_chains(5, 4)),
              *map(tuple, _polygons.walk_chains(4, 5))]
    keys = set(signatures_5x4())
    for box in [(6, 5), (5, 6), (7, 6)]:
        keys |= helpers.split_keys(*box)
    for twice_n, sig in keys:
        chains.extend(_polygons._closing_chains(sig, twice_n))
    chains += [convex_hull(F).chain for F in [*sheared_sets(), *far_sets()]]
    assert len(chains) > 2 * 53524 + 20503 + 300
    for chain in chains:
        assert _polygons._row_moments(chain) == \
            helpers.moments(_polygons._lattice_points_of_chain(chain)), chain


def test_moments_are_half_the_covariogram_second_moments():
    # over pairs (p, q), sum (p - q)(p - q)^T = 2 (n sum p p^T - sum p sum p^T)
    sets = [*enumerate_lattice_convex(5, 4), *sheared_sets(),
            {(0, 0), (1, 0), FAR}]
    for K in sets:
        g = compute_covariogram(K).entries
        second = [sum(c * u[i] * u[j] for u, c in g.items())
                  for i, j in [(0, 0), (0, 1), (1, 1)]]
        assert all(s % 2 == 0 for s in second), sorted(K)
        assert helpers.moments(K) == tuple(s // 2 for s in second), \
            sorted(K)


def test_difference_table_equals_pair_list_count():
    # counted in C over the ordered pairs of _normal_pair's list, the
    # counts are those of a list of every pair, packed with the same w
    for K in helpers.box_sets_with_far_shears(4, 3):
        a, _, w = lattice._normal_pair(K)
        counts = lattice._difference_counts(a)
        assert frozenset(counts.items()) == \
            helpers.difference_table_by_pairs(K, w), sorted(K)
        assert sum(counts.values()) == len(K) ** 2


def test_search_builds_tables_only_for_moment_collisions(monkeypatch):
    # only the 16 sets of the 8 equal-moment splits at 6x5 and their
    # mirror images get difference counts, once per canonical form:
    # 30 forms, of which the 12 classes hold 24
    counts = search._difference_counts
    built = []

    def counted(packed):
        built.append(packed)
        return counts(packed)

    monkeypatch.setattr(search, "_difference_counts", counted)
    rep = homometric_classes(6, 5)
    assert len(rep.classes) == 12
    assert len(built) == len(set(built)) == 30


def test_search_builds_points_only_for_moment_collisions(monkeypatch):
    # moments come off the rows, so only the two sets of each of the 8
    # splits at 6x5 whose moments agree are filled
    assert len(list(search._splits(6, 5))) == 8
    fill = search._lattice_points_of_chain
    built = []

    def counted(chain):
        built.append(chain)
        return fill(chain)

    monkeypatch.setattr(search, "_lattice_points_of_chain", counted)
    rep = homometric_classes(6, 5)
    assert len(rep.classes) == 12
    assert len(built) == 16


def test_found_pairs_verified_once(monkeypatch):
    # each of the 12 pairs at 6x5 is verified by the search, and the
    # matcher does not verify it again: two covariograms per pair
    calls = []
    count = search._covariogram

    def counted(K):
        calls.append(K)
        return count(K)

    monkeypatch.setattr(search, "_covariogram", counted)
    rep = homometric_classes(6, 5, match=True)
    pairs = [pr for c in rep.classes for pr in c.pairs]
    assert len(pairs) == 12
    assert all(pr.match is not None for pr in pairs)
    assert len(calls) == 2 * 12


@pytest.mark.parametrize("box", [(6, 5), (5, 6), (7, 6)])
def test_found_members_have_m_two_and_no_certificate(box):
    # the paper's certificate m >= delta^2 + delta + 1 forces
    # determination, so no member of a found class may carry it; every
    # member found so far has m = 2 (the hexagon family forces it)
    members = [K for c in homometric_classes(*box, allow_large=True).classes
               for K in c.members]
    assert len(members) >= 24
    for K in members:
        inv = invariants_direct(K)
        assert inv.m == 2, sorted(K)
        assert inv.certified is False, sorted(K)


def test_faces_of_hull_chain_match_hull_edges():
    # the one face reader, on a hull's edge vectors, against a reader
    # that takes each edge's lattice length by itself
    sets = [*enumerate_lattice_convex(5, 4), *sheared_sets(),
            {(0, 0), (1, 0), FAR}]
    assert len(sets) == 5024 + 200 + 1
    for K in sets:
        assert _polygons._faces(convex_hull(K).chain) == \
            helpers.faces_by_hull(K), sorted(K)


def test_zonotopes_match_scan_of_lines():
    # the multiples of each line come from the ray groups of the box
    def parts(zs):
        return sorted(tuple(sorted(z)) for z in zs)

    for rx in range(7):
        for ry in range(7):
            assert parts(search._zonotopes(rx, ry)) == \
                parts(helpers.zonotopes_by_scan(rx, ry)), (rx, ry)


def test_enumeration_streams_the_search_chains_in_shard_order():
    chains = list(map(tuple, _polygons.walk_chains(4, 3)))
    assert list(enumerate_lattice_convex(5, 4)) == \
        [_polygons._lattice_points_of_chain(chain) for chain in chains]


def test_walk_matches_oracle_walk():
    # every extent up to (5, 4) and (4, 5): same chains, same order
    extents = {(dx, dy) for dx in range(6) for dy in range(5)}
    extents |= {(dy, dx) for dx, dy in extents}
    for dx, dy in sorted(extents):
        assert list(map(tuple, _polygons.walk_chains(dx, dy))) == \
            helpers.oracle_chains(dx, dy), (dx, dy)


def test_keyed_chain_drops_chains_with_fewer_than_six_free_lines():
    kept = 0
    chains = list(map(tuple, _polygons.walk_chains(5, 4)))
    for chain in chains:
        free = sum(q != p for _, q, p in helpers.chain_key(chain)[1])
        keyed = helpers.keyed_chain(chain)
        assert (keyed is None) == (free < 6), chain
        if keyed is not None:
            assert keyed == helpers.chain_key(chain)
            kept += 1
    assert (kept, len(chains)) == (8466, 53524)
    assert sum(helpers.keyed_walk_counts((5, 4)).values()) == kept


@pytest.mark.parametrize("extent", [(5, 4), (4, 5)])
def test_keyed_walk_meets_closing_chains_twice(extent):
    # a key's sets are filled back through _closing_chains: per key, the
    # walk holds exactly those chains and their point reflections, each
    # once, so twice as many chains
    walked = {}
    for chain in map(tuple, _polygons.walk_chains(*extent)):
        key = helpers.keyed_chain(chain)
        if key is not None:
            walked.setdefault(key, []).append(tuple(sorted(chain)))
    assert walked
    assert {k: len(c) for k, c in walked.items()} == \
        helpers.keyed_walk_counts(extent)
    for (twice_n, sig), chains in walked.items():
        built = [tuple(sorted(c))
                 for c in _polygons._closing_chains(sig, twice_n)]
        mirrored = [tuple(sorted((-dx, -dy) for dx, dy in c)) for c in built]
        assert sorted(chains) == sorted(built + mirrored), (twice_n, sig)


def test_split_keys_are_the_walk_keys_with_two_classes():
    # every extent up to (5, 4) and (4, 5): the splits Z + A +- B give
    # exactly the keys the walk counts four or more times
    extents = {(dx, dy) for dx in range(6) for dy in range(5)}
    extents |= {(dy, dx) for dx, dy in extents}
    for dx, dy in sorted(extents):
        counts = helpers.keyed_walk_counts((dx, dy))
        want = {key for key, count in counts.items() if count >= 4}
        assert helpers.split_keys(dx + 1, dy + 1) == want, (dx, dy)
    assert len(helpers.split_keys(6, 5)) == len(helpers.split_keys(5, 6)) == 633


def test_split_keys_are_the_oracle_keys_whose_closings_share_moments():
    # every box up to 6x5 and 5x6, 6x6 (the transpose too) and 7x6: the
    # keys of the splits' sets, closed under the box's maps, are exactly
    # the split keys with two closings of equal second moments, though
    # the search tries one pair of each orbit of the box's symmetries
    boxes = {(dx + 1, dy + 1) for dx in range(6) for dy in range(5)}
    boxes |= {(h, w) for w, h in boxes} | {(6, 6), (7, 6)}
    counts = {}
    for box in sorted(boxes):
        oracle = helpers.split_keys(*box)
        want = set()
        for twice_n, sig in oracle:
            moments = [_polygons._row_moments(chain)
                       for chain in _polygons._closing_chains(sig, twice_n)]
            if len(set(moments)) < len(moments):
                want.add((twice_n, sig))
        keys = {helpers.chain_key(chain)
                for pair in search._splits(*box) for chain in pair}
        keys |= {helpers.key_image(key, search._MIRROR) for key in keys}
        if box[0] == box[1]:
            keys |= {helpers.key_image(key, search._TRANSPOSE)
                     for key in keys}
        assert keys == want, box
        counts[box] = len(keys)
    assert (counts[6, 5], counts[5, 6], counts[6, 6], counts[7, 6]) == \
        (15, 15, 38, 53)


def test_key_image_is_the_key_of_the_mirror_and_the_transpose():
    # every chain up to extent (5, 4): the key of its image under
    # x -> -x and under x <-> y is its own key mapped line by line
    for chain in _polygons.walk_chains(5, 4):
        key = helpers.chain_key(chain)
        for matrix in (search._MIRROR, search._TRANSPOSE):
            (a, b), (c, d) = matrix
            image = [(a * x + b * y, c * x + d * y) for x, y in chain[::-1]]
            assert helpers.chain_key(image) == \
                helpers.key_image(key, matrix), (chain, matrix)


@pytest.mark.parametrize("box", [(6, 5), (5, 6), (7, 6)])
def test_strip_windows_equal_hull_rebuilding_oracle(box):
    # every found pair, in both member orders: reading the faces of each
    # triangle map's image off K's mapped hull chain proposes the same
    # windows, in the same order, as rebuilding the image's hull
    report = homometric_classes(*box, allow_large=True)
    pairs = [(p.first, p.second) for c in report.classes for p in c.pairs]
    assert len(pairs) == {(7, 6): 36}.get(box, 12)
    for K, L in pairs + [(L, K) for K, L in pairs]:
        assert list(search._strip_windows(K, L)) == \
            list(helpers.strip_windows_by_hulls(K, L))


@pytest.mark.parametrize("box, builds", [((6, 5), 3), ((7, 6), 8)])
def test_search_builds_each_family_pair_once(box, builds, monkeypatch):
    # the matcher builds each (params, hexagon) pair once per search,
    # not once per found pair that proposes it (12 and 36 of them), and
    # every verdict is the one match_corollary gives alone
    calls = []
    generator = search.corollary_pair_generator

    def counted(params, hexagon):
        calls.append((params, hexagon))
        return generator(params, hexagon)

    monkeypatch.setattr(search, "corollary_pair_generator", counted)
    report = homometric_classes(*box, match=True, allow_large=True)
    assert len(calls) == len(set(calls)) == builds
    verdicts = [p for c in report.classes for p in c.pairs]
    assert len(verdicts) == {(7, 6): 36}.get(box, 12)
    monkeypatch.setattr(search, "corollary_pair_generator", generator)
    for p in verdicts:
        assert p.match is not None
        assert p.match == match_corollary(p.first, p.second)


def test_search_closes_only_the_colliding_keys(monkeypatch):
    # the 6x5 search groups the sets of its splits as they are: it
    # rebuilds no key's closings, not even of its 15 colliding keys
    calls = []
    closing_chains = _polygons._closing_chains

    def counted(lines, twice_n):
        calls.append(twice_n)
        return closing_chains(lines, twice_n)

    monkeypatch.setattr(_polygons, "_closing_chains", counted)
    monkeypatch.setattr(search, "_closing_chains", counted, raising=False)
    assert len(homometric_classes(6, 5).classes) == 12
    assert calls == []


def test_part_walk_matches_filtered_walk():
    # every extent up to (5, 4) and (4, 5), so every box up to 6x6 and
    # 7x6 and 6x7: the part walk gives parallel-free chains of the full
    # walk once up to sign, with the mask of its lines, and among them
    # every one with a line-disjoint partner that fits beside it in the
    # box one larger
    extents = {(dx, dy) for dx in range(6) for dy in range(5)}
    extents |= {(dy, dx) for dx, dy in extents}
    for dx, dy in sorted(extents):
        groups = _polygons._ray_groups(dx, dy)
        line = {group[0]: i % (len(groups) // 2)
                for i, group in enumerate(groups)}
        got = []
        for chain, lines, extent in _polygons.walk_chains(dx, dy, parts=True):
            primitive = [(x // gcd(x, y), y // gcd(x, y)) for x, y in chain]
            assert lines == sum(1 << line[d] for d in primitive), chain
            assert lines.bit_count() == len(chain), chain
            assert extent == (sum(x for x, _ in chain if x > 0),
                              sum(y for _, y in chain if y > 0)), chain
            neg = tuple(sorted((-x, -y) for x, y in chain))
            got.append(min(tuple(sorted(chain)), neg))
        assert len(got) == len(set(got)), (dx, dy)
        assert helpers.split_parts_with_partner(dx, dy) <= set(got) <= \
            helpers.split_parts_by_filter(dx, dy), (dx, dy)
    # the walk drops most parts that cannot pair: at (4, 3), 249 can
    assert len(helpers.split_parts_by_filter(4, 3)) == 1015
    assert len(helpers.split_parts_with_partner(4, 3)) == 249
    assert sum(1 for _ in _polygons.walk_chains(4, 3, parts=True)) == 288
    # and the partner table keeps its pruning power at the larger extents
    assert sum(1 for _ in _polygons.walk_chains(5, 4, parts=True)) == 2367
    assert sum(1 for _ in _polygons.walk_chains(4, 5, parts=True)) == 2367


def test_partner_table_on_clipped_rays_equals_full_rays(monkeypatch):
    # clipping the walk's rays to the half box, each ray keeping its
    # index, tabulates the same parts with the same line masks, in the
    # same order: every box up to (7, 7)
    boxes = [(dx, dy) for dx in range(2, 8) for dy in range(2, 8)]
    want = {box: helpers.partner_table_by_full_rays(*box) for box in boxes}
    tabled = []

    def recorded(*args):
        for part in chains_from_root(*args):
            tabled.append(part)
            yield part

    chains_from_root = _polygons._chains_from_root
    monkeypatch.setattr(_polygons, "_chains_from_root", recorded)
    for dx, dy in boxes:
        tabled.clear()
        _polygons._partner_test(_polygons._ray_groups(dx - 1, dy - 1), dx, dy)
        assert tabled == want[dx, dy], (dx, dy)
    assert [len(want[box]) for box in [(4, 3), (5, 5), (6, 6), (7, 7)]] == \
        [7, 32, 360, 360]


@pytest.mark.parametrize("box", [(6, 5), (5, 6), (6, 6), (7, 6), (6, 7),
                                 (4, 12), (12, 4)])
def test_splits_equal_the_unpruned_walk_in_order(box):
    # dropping the parts that cannot pair keeps every tried pair, and
    # the kept parts keep their walk order, so the splits come the same
    splits = list(search._splits(*box))
    assert splits == list(helpers.splits_by_unpruned_walk(*box))
    if 4 in box:
        assert len(splits) == 25


def test_thin_boxes_have_no_split():
    # two parts of extent 1 along one axis share that axis' line, so a
    # box with a side of 3 points has no split, and the search answers
    # without walking its long side
    for n in range(1, 31):
        for box in [(3, n), (n, 3)]:
            assert list(search._splits(*box)) == [] == \
                list(helpers.splits_by_unpruned_walk(*box)), box
    t0 = time.monotonic()
    report = homometric_classes(3, 201, allow_large=True)
    assert time.monotonic() - t0 < 2
    assert (report.total_classes, report.classes) == \
        (_polygons.count_chains(2, 200), ())


def test_reach_test_keeps_every_walk_in_the_box_rows(monkeypatch):
    # edges with dy <= 0 alone cannot close, so no lower ray is a root,
    # and from an upper root y rises and falls back to 0: every vertex
    # that passes the reach test has 0 <= y <= the table's y bound, so
    # the walk needs no y-extent test; a ray order that breaks this fails
    passed = []

    class Reach(frozenset):
        def __contains__(self, v):
            found = frozenset.__contains__(self, v)
            if found:
                passed.append((-v[1], self.lim_y))
            return found

    suffix_sums = _polygons._suffix_sums

    def probed(groups, lim_x, lim_y):
        sums = list(map(Reach, suffix_sums(groups, lim_x, lim_y)))
        for reach in sums:
            reach.lim_y = lim_y
        return sums

    monkeypatch.setattr(_polygons, "_suffix_sums", probed)
    extents = {(dx, dy) for dx in range(1, 6) for dy in range(1, 5)}
    extents |= {(dy, dx) for dx, dy in extents}
    for dx, dy in sorted(extents):
        groups = _polygons._ray_groups(dx, dy)
        sums = _polygons._suffix_sums(groups, dx, dy)
        passed.clear()
        for root in range(len(groups) // 2, len(groups)):
            assert next(_polygons._chains_from_root(groups, sums, dx, root),
                        None) is None, (dx, dy, root)
        for root in range(len(groups) // 2):
            for _ in _polygons._chains_from_root(groups, sums, dx, root):
                pass
        assert {y for y, _ in passed} == set(range(dy + 1)), (dx, dy)
        assert all(lim == dy for _, lim in passed), (dx, dy)
    # the part walk at (6, 6) and its partner table's walk at (3, 3)
    passed.clear()
    assert sum(1 for _ in _polygons.walk_chains(6, 6, parts=True)) > 0
    assert {lim for _, lim in passed} == {3, 6}
    assert all(0 <= y <= lim for y, lim in passed)


def test_chain_count_is_the_walk_count():
    extents = {(dx, dy) for dx in range(6) for dy in range(5)}
    extents |= {(dy, dx) for dx, dy in extents}
    for dx, dy in sorted(extents):
        walked = sum(1 for _ in map(len, _polygons.walk_chains(dx, dy)))
        assert _polygons.count_chains(dx, dy) == walked, (dx, dy)
    # the walk-measured counts of larger boxes, without walking them
    assert _polygons.count_chains(6, 5) == 508374
    assert _polygons.count_chains(6, 6) == 1588952
    assert _polygons.count_chains(7, 6) == 4402020
    assert _polygons.count_chains(-1, 3) == _polygons.count_chains(0, 0) == 0


def test_side_one_count_is_the_knapsack_count():
    # an x-extent of 1 is two vertical runs: (N + 1)^3 pairs of runs up
    # to translation, less the 2N + 1 pairs of two points
    for n in range(1, 41):
        closed = (n + 1) ** 3 - (2 * n + 1)
        assert _polygons.count_chains(1, n) == closed, n
        assert _polygons.count_chains(n, 1) == closed, n
        assert helpers.count_chains_by_knapsack(1, n) == closed, n
        assert helpers.count_chains_by_knapsack(n, 1) == closed, n


def test_search_walks_only_the_parts_of_splits(monkeypatch):
    # the search walks 288 split parts at extent (4, 3), one of each
    # pair +-A, not all 1,015 of them, the 5,024 chains there nor the
    # 53,524 of the box, plus the 32 parts at (2, 2) of its partner
    # table, and counts the box without walking it
    walk = _polygons._chains_from_root
    leaves = []

    def counted(*args):
        for chain in walk(*args):
            leaves.append(1)
            yield chain

    monkeypatch.setattr(_polygons, "_chains_from_root", counted)
    rep = homometric_classes(6, 5)
    assert rep.total_classes == 53524
    assert len(rep.classes) == 12
    assert len(leaves) == 288 + 32


def test_import_loads_no_process_pool():
    # no pool module loads, on import nor at jobs above 1, which the
    # enumeration and the search check and otherwise ignore
    code = ("import sys, latcov.cli\n"
            "from latcov import enumerate_lattice_convex, homometric_classes\n"
            "n = sum(1 for _ in enumerate_lattice_convex(6, 5, jobs=2))\n"
            "rep = homometric_classes(4, 4, jobs=2)\n"
            "print(n, sorted(m for m in sys.modules if "
            "m in ('concurrent.futures.process', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ,
                         "PYTHONPATH": os.pathsep.join(sys.path)}).stdout
    assert out == "53524 []\n"


def test_map_chains_streams_shard_by_shard(monkeypatch):
    # roots run one at a time, in angle order, as the stream is consumed
    ran = []
    walk = _polygons._chains_from_root

    def counted(groups, sums, lim_x, root, can_pair=None):
        ran.append(root)
        return walk(groups, sums, lim_x, root, can_pair)

    monkeypatch.setattr(_polygons, "_chains_from_root", counted)
    serial = list(map(tuple, _polygons.walk_chains(3, 3)))
    ran.clear()
    chains = map(tuple, _polygons.walk_chains(3, 3))
    assert ran == []
    assert next(chains) == serial[0]
    assert ran == [0]
    assert [serial[0], *chains] == serial
    assert ran == list(range(16))


def test_map_chains_walk_streams_within_a_shard():
    # the walk yields each chain as it closes, so counting the chains of
    # a box holds one chain at a time, not a root's worth of lists
    tracemalloc.start()
    try:
        count = sum(1 for _ in map(len, _polygons.walk_chains(5, 4)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 53524
    assert peak < 2 * 1024 * 1024


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_refused(jobs, monkeypatch):
    with pytest.raises(LatticeError, match="jobs"):
        list(enumerate_lattice_convex(3, 3, jobs=jobs))
    # refused before any work, also on boxes that hold no split
    def no_work(*args):
        raise AssertionError("work done before jobs was checked")

    monkeypatch.setattr(_polygons, "_ray_groups", no_work)
    monkeypatch.setattr(search, "_ray_groups", no_work)
    monkeypatch.setattr(search, "count_chains", no_work)
    for w, h in [(1, 1), (2, 2), (2, 5), (3, 3), (6, 5)]:
        with pytest.raises(LatticeError, match="jobs"):
            homometric_classes(w, h, jobs=jobs)


@pytest.mark.parametrize("call, message", [
    (lambda: homometric_classes(6.0, 5), "box dimensions must be integers"),
    (lambda: homometric_classes(6, "5"), "box dimensions must be integers"),
    (lambda: list(enumerate_lattice_convex(3.0, 3)),
     "box dimensions must be integers"),
    (lambda: homometric_classes(6, 5, jobs=1.5), "jobs must be an integer"),
    (lambda: list(enumerate_lattice_convex(3, 3, jobs=2.0)),
     "jobs must be an integer"),
], ids=["classes-width", "classes-height", "enumerate-width", "classes-jobs",
        "enumerate-jobs"])
def test_non_integer_box_and_jobs_refused(call, message, monkeypatch):
    # refused up front, where a float side used to fail deep in the walk
    # with TypeError and a float jobs was accepted
    def no_work(*args):
        raise AssertionError("work done before the arguments were checked")

    monkeypatch.setattr(_polygons, "_ray_groups", no_work)
    monkeypatch.setattr(search, "count_chains", no_work)
    with pytest.raises(LatticeError, match=message):
        call()
