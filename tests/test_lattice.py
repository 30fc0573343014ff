import random
import time

import pytest

import helpers
from latcov.lattice import (
    AffineMap2,
    Hull2,
    LatticeError,
    affine_equivalent,
    affine_witnesses,
    canonical_form,
    convex_hull,
    difference_set,
    hull_lattice_points,
    is_centrally_symmetric,
    is_lattice_convex,
    point_set,
    _anchor_triple,
    _normal_pair,
    primitive,
    support_set,
    translate,
)
from latcov.search import enumerate_lattice_convex


def test_primitive():
    assert primitive((4, 6)) == (2, 3)
    assert primitive((-4, 6)) == (-2, 3)
    assert primitive((0, -7)) == (0, -1)
    assert primitive((5, 0)) == (1, 0)
    with pytest.raises(LatticeError):
        primitive((0, 0))


def test_point_set_validation():
    with pytest.raises(LatticeError):
        point_set([])
    with pytest.raises(LatticeError):
        point_set([(1, 2), (1, 2, 3)])
    assert point_set([(1, 2), (1, 2)]) == frozenset({(1, 2)})


def test_convex_hull_square():
    pts = [(x, y) for x in range(3) for y in range(3)]
    h = convex_hull(pts)
    assert h.vertices == ((0, 0), (2, 0), (2, 2), (0, 2))
    assert not h.is_degenerate
    assert h.chain == [(2, 0), (0, 2), (-2, 0), (0, -2)]


def test_convex_hull_segment_and_point():
    h = convex_hull([(0, 0), (2, 4), (1, 2)])
    assert h.is_degenerate
    assert set(h.vertices) == {(0, 0), (2, 4)}
    hp = convex_hull([(5, -3)])
    assert hp.vertices == ((5, -3),)
    assert hp.chain == []


def test_hull_ccw_random():
    rng = random.Random(20260822)
    for _ in range(300):
        pts = {(rng.randint(-9, 9), rng.randint(-9, 9))
               for _ in range(rng.randint(3, 12))}
        h = convex_hull(pts)
        if h.is_degenerate:
            continue
        v = h.vertices
        n = len(v)
        for i in range(n):
            a, b, c = v[i], v[(i + 1) % n], v[(i + 2) % n]
            turn = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            assert turn > 0  # strictly convex, counterclockwise


def test_hull_chain_steps_through_vertices():
    rng = random.Random(77)
    sets = [{(0, 0)}, {(0, 0), (3, 6)}, {(2 ** 31, 0), (0, 1), (0, 0)}]
    sets += [{(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(n)}
             for n in range(1, 40) for _ in range(5)]
    for K in sets:
        hull = convex_hull(K)
        vs, chain = hull.vertices, hull.chain
        assert len(chain) == (len(vs) if len(vs) > 1 else 0)
        assert sum(x for x, _ in chain) == sum(y for _, y in chain) == 0
        p = vs[0]
        for v, (dx, dy) in zip(vs, chain):
            assert p == v
            p = (p[0] + dx, p[1] + dy)
        assert p == vs[0]


def test_hull_lattice_points_matches_scan():
    rng = random.Random(7)
    for _ in range(200):
        pts = {(rng.randint(-6, 6), rng.randint(-6, 6))
               for _ in range(rng.randint(1, 9))}
        assert hull_lattice_points(convex_hull(pts)) == helpers.brute_hull_points(pts)
    # every set of the 5x4 box, its hull starting at each of its vertices,
    # as a Hull2 built by hand may
    for K in enumerate_lattice_convex(5, 4):
        vs = convex_hull(K).vertices
        want = helpers.brute_hull_points(vs)
        for i in range(len(vs)):
            assert hull_lattice_points(Hull2(vs[i:] + vs[:i])) == want
    # segments along non-primitive directions, either way round, and points
    for a, d in [((0, 0), (6, 4)), ((3, -2), (0, -5)), ((-1, 7), (9, -6)),
                 ((2, 2), (-8, 0)), ((5, 1), (4, 4)), ((0, 0), (1, 3))]:
        b = (a[0] + d[0], a[1] + d[1])
        want = helpers.brute_hull_points([a, b])
        assert hull_lattice_points(Hull2((a, b))) == want
        assert hull_lattice_points(Hull2((b, a))) == want
        assert hull_lattice_points(Hull2((a,))) == helpers.brute_hull_points([a])


def test_hull_lattice_points_refuses_what_is_not_a_convex_hull():
    # the row fill reads any Hull2 as a convex chain, so a clockwise
    # triangle would give 3 of its 6 points and a pentagon a wrong set
    for vs in [((0, 0), (0, 2), (2, 0)),                   # clockwise
               ((0, 0), (4, 0), (4, 4), (2, 1), (0, 4)),   # not convex
               ((0, 0), (2, 0), (2, 0), (0, 2)),           # repeated vertex
               ((0, 0), (1, 0), (2, 0), (0, 2)),           # collinear middle
               ((0, 0), (0, 0))]:
        with pytest.raises(LatticeError, match="^not a convex hull$"):
            hull_lattice_points(Hull2(vs))


def test_hull_lattice_points_fills_far_hulls_by_rows():
    # the 6-point set sheared by x += 2^20 y: a box scan visits 2^21 cells
    # per row, the row fill only the hull's points
    base = {(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (1, 2)}
    K = frozenset((x + 2 ** 20 * y, y) for x, y in base)
    t0 = time.monotonic()
    assert hull_lattice_points(convex_hull(K)) == K
    assert time.monotonic() - t0 < 0.5


def test_is_lattice_convex_matches_brute():
    rng = random.Random(99)
    cases = 0
    for _ in range(400):
        pts = frozenset((rng.randint(0, 4), rng.randint(0, 4))
                        for _ in range(rng.randint(3, 9)))
        got = is_lattice_convex(pts)
        want = helpers.brute_lattice_convex(pts)
        assert got == want
        cases += got
    assert cases > 10  # sanity: the sample hit both answers


def test_lattice_convex_segment():
    assert is_lattice_convex({(0, 0), (1, 0), (2, 0)})
    assert not is_lattice_convex({(0, 0), (2, 0)})
    assert is_lattice_convex({(3, 7)})
    assert is_lattice_convex({(2 ** 31, -2 ** 31)})
    # a point or a segment is decided by its lattice length: every
    # nonempty subset of a few collinear rows, against the box scan
    rows = [[(i, 2 * i) for i in range(5)], [(3 * i, i) for i in range(5)],
            [(i, 0) for i in range(5)], [(-i, i) for i in range(5)]]
    for row in rows:
        for mask in range(1, 2 ** len(row)):
            K = frozenset(p for b, p in enumerate(row) if mask >> b & 1)
            assert is_lattice_convex(K) == helpers.brute_lattice_convex(K), \
                sorted(K)


def test_spans_plane():
    spans_plane = helpers.spans_plane
    assert spans_plane({(0, 0), (1, 0), (0, 1)})
    assert not spans_plane({(0, 0), (1, 1), (2, 2)})
    assert not spans_plane({(4, 5)})


def test_support_set():
    K = {(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1)}
    assert support_set(K, (0, -1)) == frozenset({(0, 0), (1, 0), (2, 0), (3, 0)})
    assert support_set(K, (0, 1)) == frozenset({(0, 1), (1, 1)})
    assert support_set(K, (1, 0)) == frozenset({(3, 0)})
    for u in ((0, 0), (1, 0, 0), (1,)):
        with pytest.raises(LatticeError):
            support_set(K, u)


def test_translate():
    assert translate({(0, 0), (1, 2)}, (3, -1)) == frozenset({(3, -1), (4, 1)})
    for t in ((1, 0, 0), (1,)):
        with pytest.raises(LatticeError, match="^translation has the wrong dimension$"):
            translate({(0, 0)}, t)


def test_difference_set_small():
    T = {(0, 0), (1, 0), (0, 1)}
    assert difference_set(T) == frozenset(
        {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)})


def test_difference_set_in_three_dimensions():
    K = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)]
    assert difference_set(K) == frozenset(
        (a - x, b - y, c - z) for a, b, c in K for x, y, z in K)


def test_difference_set_symmetric_random():
    rng = random.Random(3)
    for _ in range(100):
        K = frozenset((rng.randint(-5, 5), rng.randint(-5, 5))
                      for _ in range(rng.randint(1, 8)))
        D = difference_set(K)
        assert D == frozenset((-x, -y) for x, y in D)
        assert (0, 0) in D


def test_centrally_symmetric():
    assert is_centrally_symmetric({(0, 0), (1, 0), (0, 1), (1, 1)})
    assert is_centrally_symmetric({(0, 0), (1, 0), (2, 0)})
    assert not is_centrally_symmetric({(0, 0), (1, 0), (0, 1)})


def test_canonical_form_class_invariance():
    rng = random.Random(17)
    for _ in range(200):
        K = frozenset((rng.randint(-5, 5), rng.randint(-5, 5))
                      for _ in range(rng.randint(1, 7)))
        c = canonical_form(K)
        shift = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert canonical_form(translate(K, shift)) == c
        assert canonical_form(frozenset((-x, -y) for x, y in K)) == c
        # canonical form is idempotent and min-cornered at the origin
        assert canonical_form(c) == c
        assert min(p[0] for p in c) == 0 and min(p[1] for p in c) == 0


def test_normal_form_equals_two_pass_oracle():
    # K and -K moved to the origin in one pass give the forms and the
    # symmetry verdicts of moving each on its own, and a planar set's
    # packed lists, unpacked, are its tuple lists in the same order (other
    # dimensions keep the tuple lists): every set of the 5x4 and 4x4 boxes
    # and each of those minus one point, the same sheared out to +-2^31,
    # the far triangle, seeded 1-D and 3-D sets, and single points
    far = 2 ** 31
    sets = helpers.box_sets_with_far_shears(5, 4)
    sets += [{(far, -far), (-far, far), (1 - far, far)},
             {(-far, far), (far, -far), (far - 1, -far)}]
    box = []
    for K in enumerate_lattice_convex(4, 4):
        box.append(K)
        box.extend(K - {p} for p in K)
    sets += box
    sets += [frozenset((x + (far // 3) * y - far, far - y) for x, y in K)
             for K in box[::7]]
    sets += [frozenset((x - far, far - 3 * x - y) for x, y in K)
             for K in box[::11]]
    assert max(abs(c) for K in sets for p in K for c in p) == far
    rng = random.Random(24)
    for d in (1, 3):
        for _ in range(300):
            sets.append(frozenset(
                tuple(rng.randint(-3, 3) for _ in range(d))
                for _ in range(rng.randint(1, 9))))
    sets += [frozenset({p}) for p in [(0,), (5, 7), (-far, far), (1, 2, 3)]]
    sym = 0
    for K in sets:
        assert canonical_form(K) == helpers.canonical_form_by_two_passes(K), \
            sorted(K)
        verdict = is_centrally_symmetric(K)
        assert verdict == helpers.is_centrally_symmetric_by_two_passes(K), \
            sorted(K)
        sym += verdict
        a, b, w = _normal_pair(K)
        if w is not None:
            # twice the y-extent plus one, so differences pack one-to-one
            ys = [p[1] for p in K]
            assert w == 2 * (max(ys) - min(ys)) + 1, sorted(K)
            a, b = ([divmod(v, w) for v in a], [divmod(v, w) for v in b])
        assert (a, b) == helpers.normal_pair_by_tuples(K), sorted(K)
        assert (w is None) == (len(next(iter(K))) != 2)
    assert 0 < sym < len(sets)


def test_canonical_form_separates():
    a = {(0, 0), (1, 0), (0, 1)}
    b = {(0, 0), (1, 0), (1, 1)}
    assert canonical_form(a) != canonical_form(b)


def test_affine_map_validation():
    with pytest.raises(LatticeError):
        AffineMap2(((2, 0), (0, 1)), (0, 0))
    # a float matrix entry or shift once built a map onto (0.5, 0)
    for matrix, shift in [(((1.0, 0), (0, 1)), (0, 0)),
                          (((1, 0), (0.5, 1)), (0, 0)),
                          (((1, 0), (0, 1)), (0.5, 0)),
                          (((1, 0), (0, 1)), (0, "1"))]:
        with pytest.raises(LatticeError,
                           match="^coordinates must be integers$"):
            AffineMap2(matrix, shift)
    m = AffineMap2(((1, 1), (0, 1)), (3, -2))
    assert m.apply((1, 0)) == (4, -2)
    inv = m.inverse()
    assert inv.apply(m.apply((5, 7))) == (5, 7)
    assert m.det == 1


def test_affine_equivalent_recovers_random_maps():
    rng = random.Random(123)
    shears = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, -1), (1, 0)),
              ((-1, 0), (0, -1)), ((2, 1), (1, 1)), ((1, 2), (1, 3))]
    for _ in range(120):
        K = helpers.random_lattice_convex(rng, 5, 5)
        mat = rng.choice(shears)
        t = (rng.randint(-4, 4), rng.randint(-4, 4))
        fn = AffineMap2(mat, t)
        L = fn.apply_set(K)
        wit = affine_equivalent(K, L)
        assert wit is not None
        assert wit.apply_set(K) == frozenset(L)


def test_affine_equivalent_negative():
    sq = {(0, 0), (1, 0), (0, 1), (1, 1)}
    tri = {(0, 0), (1, 0), (0, 1)}
    strip = {(0, 0), (1, 0), (2, 0), (0, 1)}
    assert affine_equivalent(sq, tri) is None
    assert affine_equivalent(sq, strip) is None
    # same cardinality, different shape
    seg4 = {(0, 0), (1, 1), (2, 2), (3, 3)}
    with pytest.raises(LatticeError):
        affine_equivalent(sq, seg4)  # degenerate second argument


def test_affine_witnesses_include_self_symmetries():
    sq = frozenset({(0, 0), (1, 0), (0, 1), (1, 1)})
    wits = list(affine_witnesses(sq, sq))
    assert len(wits) == 8  # dihedral symmetries of the square
    mats = {w.matrix for w in wits}
    assert ((1, 0), (0, 1)) in mats
    assert ((0, 1), (1, 0)) in mats
    for w in wits:
        assert w.apply_set(sq) == sq


# reflections, rotations and shears, each with a shift
ORDER_MAPS = [AffineMap2(m, t) for m, t in [
    (((1, 0), (0, 1)), (3, -2)), (((0, 1), (1, 0)), (0, 0)),
    (((-1, 0), (0, 1)), (5, 1)), (((0, -1), (1, 0)), (-2, 7)),
    (((1, 1), (0, 1)), (0, 0)), (((1, 0), (-2, 1)), (1, 1)),
    (((2, 1), (1, 1)), (-4, 0)), (((1, 2), (1, 1)), (2, -3))]]


def assert_oracle_order(K, L):
    got = [(w.matrix, w.shift) for w in affine_witnesses(K, L)]
    want = [(w.matrix, w.shift)
            for w in helpers.affine_witnesses_by_triples(K, L)]
    assert got == want
    return len(got)


@pytest.mark.parametrize("fn", ORDER_MAPS, ids=lambda fn: str(fn.matrix))
def test_affine_witnesses_oracle_order_on_images(fn):
    for K in enumerate_lattice_convex(4, 4):
        assert assert_oracle_order(K, fn.apply_set(K)) >= 1


def test_affine_witnesses_oracle_order_on_random_pairs():
    by_size = {}
    for K in enumerate_lattice_convex(4, 4):
        by_size.setdefault(len(K), []).append(K)
    sizes = sorted(by_size)
    rng = random.Random(412)
    found = 0
    for _ in range(400):
        group = by_size[rng.choice(sizes)]
        K, L = rng.choice(group), rng.choice(group)
        found += assert_oracle_order(K, rng.choice(ORDER_MAPS).apply_set(L))
    assert found


def test_affine_witnesses_oracle_order_off_lattice_convex():
    sq = frozenset({(0, 0), (1, 0), (0, 1), (1, 1)})
    assert assert_oracle_order(sq, sq) == 8
    grid = frozenset((2 * i, 2 * j) for i in range(3) for j in range(3))
    assert assert_oracle_order(grid, grid) == 8
    # a 4x3 grid minus an inner point, and its mirror image
    rect = frozenset((i, j) for i in range(4) for j in range(3))
    holed, mirrored = rect - {(1, 1)}, rect - {(2, 1)}
    for fn in ORDER_MAPS:
        assert assert_oracle_order(grid, fn.apply_set(grid)) == 8
        assert assert_oracle_order(holed, fn.apply_set(holed)) == 2
        assert assert_oracle_order(holed, fn.apply_set(mirrored)) == 2
    # sets of the 4x4 box minus a point that is not a hull vertex
    for n, K in enumerate(enumerate_lattice_convex(4, 4)):
        inner = sorted(K - set(convex_hull(K).vertices))
        if n % 4 or not inner:
            continue
        fn = ORDER_MAPS[n // 4 % len(ORDER_MAPS)]
        D = K - {inner[0]}
        assert assert_oracle_order(D, fn.apply_set(D)) >= 1
        assert_oracle_order(D, fn.apply_set(K - {inner[-1]}))


def test_affine_equivalent_in_time_on_large_sets():
    grid = frozenset((i, j) for i in range(18) for j in range(18))
    strip = frozenset((i, j) for i in range(162) for j in range(2))
    fn = AffineMap2(((2, 1), (1, 1)), (0, 0))
    t0 = time.monotonic()
    assert affine_equivalent(grid, strip) is None
    assert time.monotonic() - t0 < 2
    t0 = time.monotonic()
    assert affine_equivalent(grid, fn.apply_set(grid)) == fn
    assert time.monotonic() - t0 < 2


def test_affine_witnesses_in_time_without_a_unimodular_triangle():
    # 2Z^2: every triangle has |det| at least 4, the index of the
    # difference lattice, where the anchor scan stops
    grid = frozenset((2 * i, 2 * j) for i in range(18) for j in range(18))
    t0 = time.monotonic()
    assert len(list(affine_witnesses(grid, grid))) == 8
    assert time.monotonic() - t0 < 2


def test_anchor_triple_matches_full_scan():
    rng = random.Random(1331)
    sets = [frozenset((a * i, b * j) for i in range(w) for j in range(h))
            for a, b, w, h in [(2, 2, 4, 4), (3, 1, 3, 5), (2, 3, 5, 3)]]
    sets.append(frozenset({(0, 0), (2, 0), (0, 2), (3, 3)}))
    for _ in range(60):
        pts = {(rng.randrange(-6, 7), rng.randrange(-6, 7))
               for _ in range(rng.randint(3, 12))}
        sets.append(frozenset(pts))
        # sparse: scaled and sheared, so no small triangle need exist
        s = rng.choice([2, 3])
        sets.append(frozenset((s * x + y, s * y) for x, y in pts))
    for K in sets:
        pts = sorted(K)
        assert _anchor_triple(pts) == helpers.anchor_triple_by_scan(pts)


def test_halfopen_parallelogram_count():
    assert helpers.halfopen_parallelogram_count((1, 0), (0, 1)) == 1
    assert helpers.halfopen_parallelogram_count((2, 0), (0, 2)) == 4
    assert helpers.halfopen_parallelogram_count((2, 1), (1, 1)) == 1
    assert helpers.halfopen_parallelogram_count((-2, 1), (1, 1)) == 3
    rng = random.Random(5)
    for _ in range(60):
        u = (rng.randint(-4, 4), rng.randint(-4, 4))
        v = (rng.randint(-4, 4), rng.randint(-4, 4))
        d = u[0] * v[1] - u[1] * v[0]
        if d == 0:
            continue
        assert helpers.halfopen_parallelogram_count(u, v) == abs(d)
