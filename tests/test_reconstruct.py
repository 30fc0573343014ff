import random
import time

import pytest

import helpers
from latcov import _polygons, reconstruct
from latcov.covariogram import Covariogram, compute_covariogram, support_of
from latcov.homometry import HexagonParams, WidthOneParams, corollary_pair_generator
from latcov.invariants import invariants_direct
from latcov.lattice import (
    LatticeError,
    canonical_form,
    convex_hull,
    difference_set,
    hull_lattice_points,
)
from latcov.reconstruct import (
    determination_verdict,
    edge_pair_from_covariogram,
    invariants_from_covariogram,
    reconstruct_all,
    verdict_of,
)
from latcov.search import enumerate_lattice_convex, homometric_classes
from test_search import far_sets, sheared_sets

TRAPEZOID = frozenset({(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1)})


def nine_point_pair():
    return corollary_pair_generator(
        WidthOneParams(1, 0), HexagonParams(0, 1, 0, 1, 0, 1))


def test_diffset_roundtrip():
    rng = random.Random(400)
    for _ in range(60):
        K = helpers.random_lattice_convex(rng, 6, 6)
        g = compute_covariogram(K)
        assert support_of(g) == difference_set(K)


def test_edge_pair_trapezoid():
    g = compute_covariogram(TRAPEZOID)
    sk = edge_pair_from_covariogram(g, (0, -1))
    assert len(sk.long_row) == 4
    assert len(sk.short_row) == 2
    assert canonical_form(sk.long_row) == canonical_form(
        {(0, 0), (1, 0), (2, 0), (3, 0)})
    assert canonical_form(sk.short_row) == canonical_form({(0, 0), (1, 0)})
    # vertex side
    sv = edge_pair_from_covariogram(g, (1, 0))
    assert len(sv.long_row) == 1 or len(sv.short_row) == 1


def test_edge_pair_errors():
    g = compute_covariogram(TRAPEZOID)
    with pytest.raises(LatticeError):
        edge_pair_from_covariogram(g, (0, 0))
    with pytest.raises(LatticeError):
        edge_pair_from_covariogram(g, (0, -2))  # not primitive
    # the dimension is read first, also when the direction has a second
    # fault: (2, 0, 0) is not primitive and (0, 0, 0) is zero
    for u in ((1, 0, 0), (1,), (2, 0, 0), (0, 0, 0)):
        with pytest.raises(LatticeError,
                           match="^direction has the wrong dimension$"):
            edge_pair_from_covariogram(g, u)
    for u in ((1.0, 0), (0, -1.0), ("1", 0)):    # not integers
        with pytest.raises(LatticeError, match="^coordinates must be integers$"):
            edge_pair_from_covariogram(g, u)


def test_edge_pair_matches_vertex_scan_oracle():
    # reading the face through _support_set gives the rows the vertex
    # scan gives, as sets: every set of the 5x4 box, sheared and far
    # sets, every primitive u with |ux|, |uy| <= 2
    sets = [*enumerate_lattice_convex(5, 4), *sheared_sets(), *far_sets()]
    directions = helpers.primitive_directions(2)
    for K in sets:
        g = compute_covariogram(K)
        for u in directions:
            assert edge_pair_from_covariogram(g, u) == \
                helpers.edge_pair_by_vertex_scan(g, u)


def test_edge_pair_matches_support_sets():
    rng = random.Random(401)
    for _ in range(120):
        K = helpers.random_lattice_convex(rng, 8, 8)
        g = compute_covariogram(K)
        rec = invariants_from_covariogram(g)
        for u in rec.normals:
            sk = edge_pair_from_covariogram(g, u)
            f_pos = helpers.support_points(K, u)
            f_neg = helpers.support_points(K, (-u[0], -u[1]))
            got = {canonical_form(sk.long_row), canonical_form(sk.short_row)}
            want = {canonical_form(f_pos), canonical_form(f_neg)}
            assert got == want
            assert {len(sk.long_row), len(sk.short_row)} == \
                {len(f_pos), len(f_neg)}


def test_invariants_from_covariogram_agrees():
    rng = random.Random(402)
    for _ in range(100):
        K = helpers.random_lattice_convex(rng, 7, 7)
        a = invariants_from_covariogram(compute_covariogram(K))
        b = invariants_direct(K)
        assert (a.normals, a.m_prime, a.m_doubleprime, a.m, a.delta,
                a.det_set, a.certified) == \
               (b.normals, b.m_prime, b.m_doubleprime, b.m, b.delta,
                b.det_set, b.certified)


def test_reconstruct_nine_point_ambiguous():
    rep = nine_point_pair()
    g = compute_covariogram(rep.first)
    hits = reconstruct_all(g)
    assert len(hits) == 2
    assert canonical_form(rep.first) in hits
    assert canonical_form(rep.second) in hits
    assert determination_verdict(g, 5, 5) == "ambiguous(2)"


def test_reconstruct_trapezoid_unique():
    g = compute_covariogram(TRAPEZOID)
    hits = reconstruct_all(g)
    assert hits == [canonical_form(TRAPEZOID)]
    assert determination_verdict(g) == "unique"


def test_reconstruct_random_always_recovers_self():
    rng = random.Random(403)
    for _ in range(25):
        K = helpers.random_lattice_convex(rng, 5, 4)
        g = compute_covariogram(K)
        hits = reconstruct_all(g)
        assert canonical_form(K) in hits


def test_reconstruct_unrealizable():
    # symmetric and well-formed, but no spanning set has 2 points
    g = Covariogram(2, {(0, 0): 2, (9, 9): 1, (-9, -9): 1})
    assert reconstruct_all(g) == []
    assert determination_verdict(g, 12, 12) == "unrealizable"
    # mass 5 is not a perfect square
    g2 = Covariogram(2, {(0, 0): 3, (1, 0): 1, (-1, 0): 1})
    assert reconstruct_all(g2) == []
    # square mass and a spanning support, but no 3-point set realizes it
    g3 = Covariogram(2, {(0, 0): 3, (1, 1): 2, (-1, -1): 2,
                         (2, 1): 1, (-2, -1): 1})
    assert reconstruct_all(g3) == []


def test_reconstruct_face_lengths_must_fill_support_edge():
    # symmetric, mass 16, but the profile on the support's edge of
    # direction (1, 0) peaks at its start only, so p = q = 0 there and
    # the faces could not span that edge of length 1
    g = Covariogram(2, {(0, 0): 4, (2, 3): 3, (-2, -3): 3, (1, 3): 1,
                        (-1, -3): 1, (0, 1): 1, (0, -1): 1, (1, 1): 1,
                        (-1, -1): 1})
    assert reconstruct_all(g) == []
    assert helpers.reconstruct_by_enumeration(g) == []
    assert determination_verdict(g) == "unrealizable"
    with pytest.raises(LatticeError):
        invariants_from_covariogram(g)


def test_reconstruct_perturbed_covariograms_match_enumeration():
    # move masses between symmetric entries of real covariograms:
    # well-formed tables, nearly all unrealizable, that must never raise
    rng = random.Random(2)
    sets = list(enumerate_lattice_convex(5, 4))
    checked = 0
    for _ in range(3000):
        e = dict(compute_covariogram(rng.choice(sets)).entries)
        for _ in range(rng.randint(1, 3)):
            v = rng.choice([k for k in e if k != (0, 0)])
            w = (rng.randint(-4, 4), rng.randint(-3, 3))
            if w in ((0, 0), v, (-v[0], -v[1])):
                continue
            c = e[v] if rng.random() < 0.5 else 1
            for s in (1, -1):
                vv, ww = (s * v[0], s * v[1]), (s * w[0], s * w[1])
                e[vv] -= c
                if e[vv] == 0:
                    del e[vv]
                e[ww] = e.get(ww, 0) + c
        try:
            g = Covariogram(2, e)
        except LatticeError:
            continue
        assert reconstruct_all(g) == helpers.reconstruct_by_enumeration(g) \
            == helpers.reconstruct_unfiltered(g)
        assert determination_verdict(g) in ("unique", "ambiguous(2)",
                                            "unrealizable")
        checked += 1
    assert checked > 2000


def test_reconstruct_box_errors(monkeypatch):
    g = compute_covariogram(TRAPEZOID)
    with pytest.raises(LatticeError):
        determination_verdict(g, 0, 3)
    with pytest.raises(LatticeError):
        determination_verdict(g, 4, 0)
    # a side that is not an integer is refused, before g is read: a
    # 2.5 x 3 box used to answer 'unique'
    hits = [canonical_form(TRAPEZOID)]

    def no_work(g):
        raise AssertionError("g was read before the box was checked")

    monkeypatch.setattr(reconstruct, "reconstruct_all", no_work)
    for box in [(2.5, 3), (3, 2.5), (None, 4.0), ("4", None)]:
        with pytest.raises(LatticeError,
                           match="box dimensions must be integers"):
            verdict_of(hits, *box)
        with pytest.raises(LatticeError,
                           match="box dimensions must be integers"):
            determination_verdict(g, *box)


def test_reconstruct_out_of_box():
    # the trapezoid has extent (3, 1): a 3x2 box is too narrow for it
    g = compute_covariogram(TRAPEZOID)
    assert determination_verdict(g, 3, 2) == "out-of-box"
    assert determination_verdict(g, 4, 1) == "out-of-box"
    assert determination_verdict(g, 4, 2) == "unique"
    rep = nine_point_pair()
    assert determination_verdict(compute_covariogram(rep.first), 2, 2) == \
        "out-of-box"
    # no set realizes this one, so a small box does not make it out-of-box
    g3 = Covariogram(2, {(0, 0): 3, (1, 1): 2, (-1, -1): 2,
                         (2, 1): 1, (-2, -1): 1})
    assert determination_verdict(g3, 1, 1) == "unrealizable"


@pytest.mark.parametrize("box", [(5, 4), (4, 5)], ids=["5x4", "4x5"])
def test_reconstruct_matches_enumeration_on_whole_box(box):
    # every set of every smaller box, in this orientation, is in this one
    count = 0
    for K in enumerate_lattice_convex(*box):
        g = compute_covariogram(K)
        assert reconstruct_all(g) == helpers.reconstruct_by_enumeration(g) \
            == helpers.reconstruct_unfiltered(g)
        count += 1
    assert count == 5024


def test_reconstruct_6x5_pairs_give_two_classes():
    report = homometric_classes(6, 5)
    pairs = [pr for c in report.classes for pr in c.pairs]
    assert len(pairs) == 12
    for pr in pairs:
        for K in (pr.first, pr.second):
            g = compute_covariogram(K)
            hits = reconstruct_all(g)
            assert hits == helpers.reconstruct_by_enumeration(g)
            assert hits == sorted({canonical_form(pr.first),
                                   canonical_form(pr.second)}, key=sorted)


def test_reconstruct_builds_one_table_per_closing(monkeypatch):
    # the first closing of g's signature, and each later one with the
    # realizing set's second moments, is filled and packed once and its
    # difference counts compared with g's own; no other closing is filled
    counts, pack = reconstruct._difference_counts, reconstruct._normal_pair
    built, packed_sets = [], []

    def counted(packed):
        built.append(packed)
        return counts(packed)

    def packed_once(K):
        packed_sets.append(K)
        return pack(K)

    pairs = [pr for c in homometric_classes(6, 5).classes for pr in c.pairs]
    assert len(pairs) == 12
    sets = [K for pr in pairs for K in (pr.first, pr.second)]
    sets += list(enumerate_lattice_convex(4, 4))
    monkeypatch.setattr(reconstruct, "_difference_counts", counted)
    monkeypatch.setattr(reconstruct, "_normal_pair", packed_once)
    skipped = 0
    for K in sets:
        g = compute_covariogram(K)
        closings = list(_polygons._closing_chains(reconstruct._edge_lines(g),
                                                  2 * len(K)))
        kept = closings[:1] + [c for c in closings[1:] if
                               _polygons._row_moments(c) == helpers.moments(K)]
        built.clear()
        packed_sets.clear()
        assert reconstruct_all(g) == helpers.reconstruct_by_enumeration(g)
        assert len(built) == len(packed_sets) == len(kept), sorted(K)
        skipped += len(closings) - len(kept)
    assert skipped > 0


def test_reconstruct_set_missing_a_point_is_unrealizable():
    calls = 0
    for K in enumerate_lattice_convex(4, 4):
        vertices = set(convex_hull(K).vertices)
        for p in sorted(K - vertices):
            g = compute_covariogram(K - {p})
            assert reconstruct_all(g) == []
            assert helpers.reconstruct_by_enumeration(g) == []
            assert helpers.reconstruct_unfiltered(g) == []
            calls += 1
    assert calls > 1000


@pytest.mark.parametrize("K", [
    hull_lattice_points(convex_hull([(0, 0), (12, 0), (0, 4)])),
    hull_lattice_points(convex_hull([(0, 0), (40, 0), (0, 9)])),
    frozenset({(0, 0), (1, 0), (2 ** 31 - 1, 1)}),
    frozenset({(0, 0), (1, 1), (2 ** 31 - 1, 2 ** 31)}),
], ids=["triangle-12x4", "triangle-40x9", "far-vertex", "far-sheared"])
def test_reconstruct_large_inputs(K):
    g = compute_covariogram(K)
    t0 = time.monotonic()
    hits = reconstruct_all(g)
    assert time.monotonic() - t0 < 10
    assert hits == [canonical_form(K)]


def test_reconstruct_many_free_lines_in_time():
    # 24 free lines: 604 closings pass Pick's test, and only one of
    # them has g's second moments, so only it and the first are filled
    K = helpers.triangle_sum(1, 8)
    g = compute_covariogram(K)
    assert (len(K), len(g.entries)) == (1078, 4373)
    t0 = time.monotonic()
    hits = reconstruct_all(g)
    assert time.monotonic() - t0 < 2
    assert hits == [canonical_form(K)]


def test_reconstruct_refuses_free_lines_over_the_limit(monkeypatch):
    # g's free lines are counted before any closing is enumerated, and a
    # g with more than FREE_LINE_LIMIT of them is refused unless
    # allow_large is set; the 24 free lines above stay under the limit
    assert reconstruct.FREE_LINE_LIMIT == 28
    K = helpers.triangle_sum(1, 2)
    g = compute_covariogram(K)
    closing_chains = reconstruct._closing_chains

    def no_closings(*args):
        raise AssertionError("closings enumerated before the count")

    monkeypatch.setattr(reconstruct, "FREE_LINE_LIMIT", 5)
    monkeypatch.setattr(reconstruct, "_closing_chains", no_closings)
    for call in (lambda: reconstruct_all(g), lambda: determination_verdict(g)):
        with pytest.raises(LatticeError,
                           match="6 free lines exceed the limit of 5"):
            call()
    monkeypatch.setattr(reconstruct, "_closing_chains", closing_chains)
    assert reconstruct_all(g, allow_large=True) == [canonical_form(K)]
    monkeypatch.setattr(reconstruct, "FREE_LINE_LIMIT", 6)
    assert reconstruct_all(g) == [canonical_form(K)]


def test_invariants_from_covariogram_rejects_degenerate():
    g = compute_covariogram({(0, 0), (1, 0), (2, 0)})
    with pytest.raises(LatticeError):
        invariants_from_covariogram(g)


def edge_line_tables():
    """Covariograms for the edge-line oracle: the 5x4 box's sets of
    helpers.box_sets_with_far_shears, the lone origin, horizontal,
    vertical and diagonal segments, and 2,000 seeded random symmetric
    tables."""
    sets = helpers.box_sets_with_far_shears(5, 4)
    sets += [{(0, 0)}, {(0, 0), (1, 0), (2, 0)}, {(0, 0), (0, 1)},
             {(0, 0), (1, 1), (2, 2)}, {(0, 0), (2, 4), (1, 2)},
             {(0, 0), (-1, 1), (-2, 2)}, {(0, 0), (3, 0)}]
    tables = [compute_covariogram(K) for K in sets]
    rng = random.Random(2910)
    tables += [helpers.random_symmetric_table(rng, rng.randint(1, 4))
               for _ in range(2000)]
    return tables


def test_edge_lines_match_full_hull_oracle():
    # reading the right chain of g's symmetric support gives the lines,
    # in angle order, or the error, of reading its full hull; accepted
    # lines rise and fall through the support's height, sum (p + q) d_y
    # = 2 max y, so every closing has g's y-extent
    outcomes = set()
    for g in edge_line_tables():
        try:
            want = helpers.edge_lines_by_full_hull(g)
        except LatticeError as e:
            with pytest.raises(LatticeError) as got:
                reconstruct._edge_lines(g)
            assert str(got.value) == str(e), dict(g.entries)
            outcomes.add(str(e))
        else:
            assert reconstruct._edge_lines(g) == want, dict(g.entries)
            assert sum((p + q) * dy for (_, dy), q, p in want) == \
                2 * max(y for _, y in g.entries), dict(g.entries)
            outcomes.add("lines")
    assert outcomes == {"lines", "degenerate set", "not realizable"}
