"""Shared test oracles, deliberately independent of the library internals.

Everything here recomputes geometry the slow way (scans, triangle
decompositions, subset filters, exhaustive grouping) so library results
can be checked against a second opinion.
"""

import functools
import itertools
import random


def brute_covariogram(K):
    """Overlap counts by literal set intersection, one shift at a time."""
    K = set(K)
    out = {}
    for a in K:
        for b in K:
            u = tuple(x - y for x, y in zip(a, b))
            shifted = {tuple(x + d for x, d in zip(p, u)) for p in K}
            out[u] = len(K & shifted)
    return out


def sign(x):
    return (x > 0) - (x < 0)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def in_triangle(p, a, b, c):
    """Exact point-in-nondegenerate-triangle test, boundary inclusive."""
    d1 = _cross(a, b, p)
    d2 = _cross(b, c, p)
    d3 = _cross(c, a, p)
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (has_neg and has_pos)


def on_segment(p, a, b):
    return (_cross(a, b, p) == 0
            and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def in_hull(p, pts):
    """p inside conv(pts): some proper triangle holds it, or some segment
    does (planar Caratheodory)."""
    pts = list(pts)
    if p in pts:
        return True
    for a, b in itertools.combinations(pts, 2):
        if on_segment(p, a, b):
            return True
    for a, b, c in itertools.combinations(pts, 3):
        if _cross(a, b, c) != 0 and in_triangle(p, a, b, c):
            return True
    return False


def convex_hull_by_all_points(K):
    """convex_hull's Hull2 by the monotone chain over every point of K,
    sorted: lower chain left to right, then upper chain back."""
    from latcov.lattice import Hull2, LatticeError
    pts = sorted(set(tuple(p) for p in K))
    if not pts:
        raise LatticeError("empty set")
    if len(pts[0]) != 2:
        raise LatticeError("convex hull requires dimension 2")
    if len(pts) == 1:
        return Hull2((pts[0],))
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return Hull2(tuple(lower[:-1] + upper[:-1]))


def brute_hull_points(pts):
    """All lattice points of conv(pts), by scanning the bounding box."""
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    out = set()
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if in_hull((x, y), pts):
                out.add((x, y))
    return out


def brute_lattice_convex(K):
    return set(K) == brute_hull_points(K)


def brute_spanning(K):
    pts = list(K)
    o = pts[0]
    return any(_cross(o, a, b) != 0 for a, b in itertools.combinations(pts[1:], 2))


def spans_plane(K):
    """True iff the planar set contains three non-collinear points."""
    from latcov.lattice import det2, point_set, vsub

    pts = list(point_set(K))
    if len(pts) < 3:
        return False
    p0 = pts[0]
    base = None
    for p in pts[1:]:
        if base is None:
            base = vsub(p, p0)
        elif det2(base, vsub(p, p0)) != 0:
            return True
    return False


def spanning_convex_subsets(width, height):
    """Every spanning lattice-convex subset of the box, the 2^(w*h) way."""
    cells = [(x, y) for x in range(width) for y in range(height)]
    found = []
    for mask in range(1, 2 ** len(cells)):
        sub = [c for i, c in enumerate(cells) if mask >> i & 1]
        if len(sub) < 3:
            continue
        if not brute_spanning(sub):
            continue
        if brute_lattice_convex(sub):
            found.append(frozenset(sub))
    return found


def min_normalize(pts):
    """pts translated so its componentwise minimum is the origin, in any
    dimension."""
    lo = [min(c) for c in zip(*pts)]
    return frozenset(tuple(x - m for x, m in zip(p, lo)) for p in pts)


def canonical_form_by_two_passes(K):
    """The canonical form as it was computed before K and -K shared one
    pass: each moved to the origin on its own, the smaller sorted point
    list kept."""
    a = sorted(min_normalize(K))
    b = sorted(min_normalize([tuple(-x for x in p) for p in K]))
    return frozenset(a if a <= b else b)


def is_centrally_symmetric_by_two_passes(K):
    """-K is a translate of K, by moving each to the origin on its own."""
    return min_normalize(K) == min_normalize([tuple(-x for x in p) for p in K])


def translation_classes(sets):
    return {min_normalize(s) for s in sets}


def random_lattice_convex(rng: random.Random, width, height, min_pts=3):
    """Random spanning lattice-convex set inside a width x height box."""
    while True:
        k = rng.randint(min_pts, 8)
        seed = {(rng.randrange(width), rng.randrange(height)) for _ in range(k)}
        if len(seed) < 3 or not brute_spanning(seed):
            continue
        return frozenset(brute_hull_points(seed))


def support_points(K, u):
    """argmax of the scalar product, the direct way."""
    best = max(p[0] * u[0] + p[1] * u[1] for p in K)
    return frozenset(p for p in K if p[0] * u[0] + p[1] * u[1] == best)


def edge_pair_by_vertex_scan(g, u):
    """edge_pair_from_covariogram with its face read by its own scan of
    the support hull's vertices, as it was before it read the face
    through lattice.support_set."""
    from math import gcd

    from latcov.lattice import LatticeError, convex_hull, primitive
    from latcov.reconstruct import EdgePairSketch, _face_run

    if g.dim != 2:
        raise LatticeError("expected a planar covariogram")
    u = tuple(u)
    if u == (0, 0):
        raise LatticeError("zero direction")
    if primitive(u) != u:
        raise LatticeError("direction must be primitive")
    (ux, uy), vs = u, convex_hull(g.entries).vertices
    top = max(x * ux + y * uy for x, y in vs)
    E = [(x, y) for x, y in vs if x * ux + y * uy == top]
    if len(E) == 1:
        (e,) = E
        return EdgePairSketch(frozenset({e}), frozenset({(0, 0)}), u)
    (ax, ay), (bx, by) = min(E), max(E)
    steps = gcd(bx - ax, by - ay)
    dx, dy = (bx - ax) // steps, (by - ay) // steps
    k2, k3 = _face_run(g, (ax, ay), (dx, dy), steps + 1)
    long_row = frozenset((ax + i * dx, ay + i * dy) for i in range(k3 + 1))
    short_row = frozenset((i * dx, i * dy) for i in range(-k2, 1))
    return EdgePairSketch(long_row, short_row, u)


def primitive_directions(bound):
    """All primitive integer vectors with coordinates in [-bound, bound]."""
    from math import gcd
    out = []
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if (x, y) != (0, 0) and gcd(abs(x), abs(y)) == 1:
                out.append((x, y))
    return out


def brute_edge_invariants(K):
    """(edge normal set, m_prime, m_doubleprime) by scanning all primitive
    directions large enough to see every hull edge."""
    import math
    xs = [p[0] for p in K]
    ys = [p[1] for p in K]
    bound = max(max(xs) - min(xs), max(ys) - min(ys)) + 1
    normals = set()
    m_prime = None
    m_double = None
    for u in primitive_directions(bound):
        a = len(support_points(K, u))
        if a < 2:
            continue
        normals.add(u)
        if m_prime is None or a < m_prime:
            m_prime = a
        b = len(support_points(K, (-u[0], -u[1])))
        if a > b > 1 and (m_double is None or a - b + 1 < m_double):
            m_double = a - b + 1
    return normals, m_prime, (math.inf if m_double is None else m_double)


def _suffix_reach(groups):
    """Per suffix of the ray list, the extreme total x and y displacement
    still achievable (one vector per ray at most)."""
    n = len(groups)
    neg_x = [0] * (n + 1)
    pos_x = [0] * (n + 1)
    neg_y = [0] * (n + 1)
    pos_y = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        xs = [v[0] for v in groups[i]]
        ys = [v[1] for v in groups[i]]
        neg_x[i] = neg_x[i + 1] + min(0, min(xs))
        pos_x[i] = pos_x[i + 1] + max(0, max(xs))
        neg_y[i] = neg_y[i + 1] + min(0, min(ys))
        pos_y[i] = pos_y[i + 1] + max(0, max(ys))
    return neg_x, pos_x, neg_y, pos_y


def _chains_from_root(groups, reach, lim_x, lim_y, root):
    """Closed convex chains whose lowest-angle ray is groups[root], one
    call per ray in turn: skip it, or take one of its vectors."""
    neg_x, pos_x, neg_y, pos_y = reach
    ngroups = len(groups)
    out = []
    chosen: list = []

    def rec(gi, x, y, mnx, mxx, mny, mxy):
        if x + neg_x[gi] > 0 or x + pos_x[gi] < 0:
            return
        if y + neg_y[gi] > 0 or y + pos_y[gi] < 0:
            return
        if gi == ngroups:
            if x == 0 and y == 0 and len(chosen) >= 3:
                out.append(chosen.copy())
            return
        rec(gi + 1, x, y, mnx, mxx, mny, mxy)
        for dx, dy in groups[gi]:
            nx, ny = x + dx, y + dy
            nmnx = nx if nx < mnx else mnx
            nmxx = nx if nx > mxx else mxx
            if nmxx - nmnx > lim_x:
                continue
            nmny = ny if ny < mny else mny
            nmxy = ny if ny > mxy else mxy
            if nmxy - nmny > lim_y:
                continue
            chosen.append((dx, dy))
            rec(gi + 1, nx, ny, nmnx, nmxx, nmny, nmxy)
            chosen.pop()

    for dx, dy in groups[root]:
        if abs(dx) > lim_x or abs(dy) > lim_y:
            continue
        chosen.append((dx, dy))
        rec(root + 1, dx, dy, min(0, dx), max(0, dx), min(0, dy), max(0, dy))
        chosen.pop()
    return out


def oracle_chains(max_dx, max_dy):
    """Every closed convex chain fitting the box extent (max_dx, max_dy),
    as tuples of edge vectors in shard order, by the ray-at-a-time walk
    with per-axis reach bounds that the library's walk replaced (over the
    library's ray groups, which the 2^(w*h) subset filter checks)."""
    from latcov._polygons import _ray_groups

    groups = _ray_groups(max_dx, max_dy)
    reach = _suffix_reach(groups)
    return [tuple(c) for root in range(len(groups))
            for c in _chains_from_root(groups, reach, max_dx, max_dy, root)]


def count_chains_by_knapsack(max_dx, max_dy):
    """_polygons.count_chains as it was before it answered a side of
    extent 1 in closed form: a knapsack per quadrant of rays on the
    chains' positive x and y parts, joined where the parts close."""
    from latcov._polygons import _ray_groups

    nx, ny = max_dx + 1, max_dy + 1
    tables = [[[0] * ny for _ in range(nx)] for _ in range(4)]
    for t in tables:
        t[0][0] = 1
    for group in _ray_groups(max_dx, max_dy):
        rx, ry = group[0]
        t = tables[(0 if ry >= 0 else 3) if rx > 0 else (1 if ry > 0 else 2)]
        for u in range(max_dx, -1, -1):
            for v in range(max_dy, -1, -1):
                for dx, dy in group:
                    a, b = u - abs(dx), v - abs(dy)
                    if a >= 0 and b >= 0:
                        t[u][v] += t[a][b]
    q0, q1, q2, q3 = tables
    right = [[[sum(q0[a][v] * q3[x - a][w] for a in range(x + 1))
               for w in range(ny)] for v in range(ny)] for x in range(nx)]
    left = [[[sum(q1[a][v] * q2[x - a][w] for a in range(x + 1))
              for w in range(ny)] for v in range(ny)] for x in range(nx)]
    closed = sum(right[x][v1][v4] * left[x][v2][v1 + v2 - v4]
                 for x in range(nx) for v1 in range(ny) for v4 in range(ny)
                 for v2 in range(max(0, v4 - v1), ny - v1))
    return closed - 1 - ((2 * max_dx + 1) * (2 * max_dy + 1) - 1) // 2


def covariogram_grouping(width, height):
    """Homometric classes of a box the exhaustive way: every set of the
    oracle walk gets a covariogram and a canonical form, and sets are
    grouped by covariogram.  Returns (total sets, [(members, [(first,
    second)])]) with members sorted and classes in the library's report
    order."""
    from itertools import combinations

    from latcov._polygons import _lattice_points_of_chain
    from latcov.covariogram import compute_covariogram
    from latcov.lattice import canonical_form

    groups = {}
    total = 0
    for chain in oracle_chains(width - 1, height - 1):
        K = _lattice_points_of_chain(chain)
        total += 1
        fp = tuple(sorted(compute_covariogram(K).entries.items()))
        groups.setdefault(fp, set()).add(canonical_form(K))
    classes = []
    for forms in groups.values():
        if len(forms) < 2:
            continue
        members = tuple(sorted(forms, key=sorted))
        classes.append((members, list(combinations(members, 2))))
    classes.sort(key=lambda c: sorted(c[0][0]))
    return total, classes


def chain_key(chain):
    """(2|K|, edge signature) of the polygon traced by a closed convex
    chain, without building its points.  2|K| is Pick's theorem: twice
    the shoelace area plus the boundary point count plus 2.  The
    covariogram of the set determines both parts."""
    from latcov._polygons import _signature, _twice_area

    sig = _signature(chain)
    return _twice_area(chain) + sum(p + q for _, q, p in sig) + 2, sig


def keyed_chain(chain):
    """The (2|K|, edge signature) key of a chain, or None when fewer than
    six of its edge lines are free (faces of unequal length)."""
    if len(chain) < 6:
        return None
    key = chain_key(chain)
    if sum(q != p for _, q, p in key[1]) < 6:
        return None
    return key


def keyed_walk_counts(extent):
    """Key -> number of chains, over every chain of the box extent with
    six or more free lines: the count table the search kept before it
    enumerated splits.  A key counted four or more times holds two or
    more reflection classes."""
    from latcov._polygons import walk_chains

    counts = {}
    for chain in map(tuple, walk_chains(*extent)):
        key = keyed_chain(chain)
        if key is not None:
            counts[key] = counts.get(key, 0) + 1
    return counts


def key_image(key, matrix) -> tuple:
    """The key of a set's image under a unimodular matrix: each line goes
    to its image's line, with the same face lengths."""
    (a, b), (c, d) = matrix
    return key[0], in_angle_order((edge_line((a * x + b * y, c * x + d * y)),
                                   q, p) for (x, y), q, p in key[1])


def edge_line(d):
    """The direction of {d, -d} in the upper half-plane (or +x)."""
    return d if d[1] > 0 or (d[1] == 0 and d[0] > 0) else (-d[0], -d[1])


def line_angle(d):
    """A sort key of upper directions d (y > 0, or y == 0 < x) by angle
    from +x, in exact arithmetic: +x first, then by falling x / y."""
    from fractions import Fraction

    return (d[1] > 0, Fraction(-d[0], d[1]) if d[1] else 0)


def in_angle_order(lines) -> tuple:
    """(line, q, p) signature entries sorted by the angle of their line:
    the order of an edge signature."""
    return tuple(sorted(lines, key=lambda entry: line_angle(entry[0])))


def covariogram_key(g):
    """(2|K|, edge signature) read off a covariogram alone: the origin
    entry gives |K|, and for each edge line of the support's hull the
    boundary row pair gives the two face lengths (points minus one)."""
    from latcov.lattice import convex_hull, primitive
    from latcov.reconstruct import edge_pair_from_covariogram

    sig = set()
    for v in convex_hull(g.entries).chain:
        d = primitive(v)
        sketch = edge_pair_from_covariogram(g, (d[1], -d[0]))
        sig.add((edge_line(d), len(sketch.short_row) - 1,
                 len(sketch.long_row) - 1))
    return 2 * g.entries[(0, 0)], in_angle_order(sig)


_candidates: dict = {}


def _candidates_of(tx, ty, n):
    """(K, difference set) for every enumerated set K of n points and
    tight extent (tx, ty).  The box is walked once per extent, and its
    sets are kept between calls, grouped by size."""
    from latcov.lattice import difference_set, extent
    from latcov.search import enumerate_lattice_convex

    if (tx, ty) not in _candidates:
        by_size = _candidates[tx, ty] = {}
        for K in enumerate_lattice_convex(tx + 1, ty + 1):
            if extent(K) == (tx, ty):
                by_size.setdefault(len(K), []).append((K, difference_set(K)))
    return _candidates[tx, ty].get(n, [])


def reconstruct_by_enumeration(g, box_width=None, box_height=None):
    """reconstruct_all the exhaustive way: walk every set of the
    enumeration with the size and tight extent a realizing set must have
    (|K| squared is the mass, and the extent is half the support's),
    keeping those with the support as difference set and covariogram g."""
    from math import isqrt

    from latcov.covariogram import compute_covariogram
    from latcov.lattice import canonical_form, extent

    D = frozenset(g.entries)
    ex, ey = extent(D)
    box_width = ex + 1 if box_width is None else box_width
    box_height = ey + 1 if box_height is None else box_height
    n = isqrt(g.mass)
    if n * n != g.mass or n < 3 or g.entries[(0, 0)] != n:
        return []
    if not spans_plane(D) or ex % 2 or ey % 2:
        return []
    tx, ty = ex // 2, ey // 2
    if tx == 0 or ty == 0 or tx > box_width - 1 or ty > box_height - 1:
        return []
    found = set()
    for K, KD in _candidates_of(tx, ty, n):
        if KD == D and compute_covariogram(K).entries == g.entries:
            found.add(canonical_form(K))
    return sorted(found, key=sorted)


def reconstruct_unfiltered(g):
    """reconstruct_all as it was before it skipped closings by second
    moments: every closing of g's signature is filled, and kept when its
    difference table is g's."""
    from math import isqrt

    from latcov._polygons import _closing_chains, _lattice_points_of_chain
    from latcov.lattice import LatticeError, canonical_form
    from latcov.reconstruct import _edge_lines

    n = isqrt(g.mass)
    if n * n != g.mass or n < 3 or g.entries[(0, 0)] != n:
        return []
    try:
        lines = _edge_lines(g)
    except LatticeError:
        return []
    # its own stride, read off the signature as 2 max y + 1, and its own
    # pair count, sharing no packing with lattice._normal_pair
    stride = sum((p + q) * dy for (_, dy), q, p in lines) + 1
    table = frozenset((x * stride + y, c) for (x, y), c in g.entries.items())
    hits = set()
    for chain in _closing_chains(lines, 2 * n):
        K = _lattice_points_of_chain(chain)
        if table == difference_table_by_pairs(K, stride):
            hits.add(canonical_form(K))
    return sorted(hits, key=sorted)


@functools.cache
def triangle_sum(seed: int, m: int) -> frozenset:
    """The lattice points of the Minkowski sum of m seeded triangles
    whose 3m edge lines are all distinct, so its covariogram has 3m free
    lines and one class.  A triangle is the one whose counterclockwise
    edges are a, b and -a - b, for a and b with coordinates in [-5, 5],
    drawn again when parallel or when one of its lines is taken.  Seed 1
    and m = 8 give 1,078 points, 4,373 covariogram entries and 604
    closings that pass Pick's test."""
    from math import gcd

    from latcov.lattice import convex_hull, hull_lattice_points

    rng = random.Random(seed)
    lines, vertices = set(), {(0, 0)}
    for _ in range(m):
        while True:
            a = (rng.randint(-5, 5), rng.randint(-5, 5))
            b = (rng.randint(-5, 5), rng.randint(-5, 5))
            det = a[0] * b[1] - a[1] * b[0]
            if det == 0:
                continue
            new = {edge_line((x // gcd(x, y), y // gcd(x, y)))
                   for x, y in (a, b, (-a[0] - b[0], -a[1] - b[1]))}
            if not new & lines:
                break
        lines |= new
        # its third vertex is a + b when a turns left into b, else -b
        c = (a[0] + b[0], a[1] + b[1]) if det > 0 else (-b[0], -b[1])
        vertices = convex_hull({(x + u, y + v) for x, y in vertices
                                for u, v in ((0, 0), a, c)}).vertices
    return hull_lattice_points(convex_hull(vertices))


def halfopen_parallelogram_count(u, v) -> int:
    """Number of lattice points in [0,1)u + [0,1)v, by direct enumeration.

    For nonparallel u, v this equals |det(u, v)|.
    """
    from latcov.lattice import LatticeError, det2, primitive

    def halfopen_interval(c):
        # Reachable multiples s*c for s in [0,1): half-open toward c.
        return (0, True, c, False) if c > 0 else (c, False, 0, True)

    u = tuple(u)
    v = tuple(v)
    if u == (0, 0) or v == (0, 0):
        raise LatticeError("zero direction")
    corners = [(0, 0), u, v, (u[0] + v[0], u[1] + v[1])]
    xs = [c[0] for c in corners]
    ys = [c[1] for c in corners]
    dd = det2(u, v)
    count = 0
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            p = (x, y)
            if dd != 0:
                s_num = det2(p, v)
                t_num = det2(u, p)
                if dd > 0:
                    ok = 0 <= s_num < dd and 0 <= t_num < dd
                else:
                    ok = dd < s_num <= 0 and dd < t_num <= 0
            else:
                p0 = primitive(u)
                if det2(p, p0) != 0:
                    ok = False
                else:
                    axis = 0 if p0[0] else 1
                    m, rem = divmod(p[axis], p0[axis])
                    a = u[axis] // p0[axis]
                    b = v[axis] // p0[axis]
                    if rem:
                        ok = False
                    else:
                        lo_a, cl_a, hi_a, ch_a = halfopen_interval(a)
                        lo_b, cl_b, hi_b, ch_b = halfopen_interval(b)
                        lo, lo_closed = lo_a + lo_b, cl_a and cl_b
                        hi, hi_closed = hi_a + hi_b, ch_a and ch_b
                        ok = ((m > lo or (lo_closed and m == lo))
                              and (m < hi or (hi_closed and m == hi)))
            if ok:
                count += 1
    return count


def affine_witnesses_by_triples(K, L):
    """affine_witnesses the exhaustive way: anchor K at a minimal-determinant
    independent triple and try every ordered triple of L with the same
    absolute determinant, in lexicographic order, checking each integral
    map on all of K.  Cubic in |L|."""
    from latcov.lattice import (AffineMap2, LatticeError, _anchor_triple,
                                det2, point_set, vsub)

    Kp = sorted(point_set(K))
    Lp = sorted(point_set(L))
    if len(Kp[0]) != 2 or len(Lp[0]) != 2:
        raise LatticeError("affine equivalence requires dimension 2")
    if not spans_plane(Kp) or not spans_plane(Lp):
        raise LatticeError("degenerate set")
    if len(Kp) != len(Lp):
        return
    d, p0, p1, p2 = _anchor_triple(Kp)
    e1 = vsub(p1, p0)
    e2 = vsub(p2, p0)
    detm = det2(e1, e2)
    Lset = set(Lp)
    for q0 in Lp:
        for q1 in Lp:
            if q1 == q0:
                continue
            f1 = vsub(q1, q0)
            for q2 in Lp:
                if q2 == q0 or q2 == q1:
                    continue
                f2 = vsub(q2, q0)
                if abs(det2(f1, f2)) != d:
                    continue
                n00 = f1[0] * e2[1] - f2[0] * e1[1]
                n01 = -f1[0] * e2[0] + f2[0] * e1[0]
                n10 = f1[1] * e2[1] - f2[1] * e1[1]
                n11 = -f1[1] * e2[0] + f2[1] * e1[0]
                if any(n % detm for n in (n00, n01, n10, n11)):
                    continue
                mat = ((n00 // detm, n01 // detm), (n10 // detm, n11 // detm))
                t = (q0[0] - mat[0][0] * p0[0] - mat[0][1] * p0[1],
                     q0[1] - mat[1][0] * p0[0] - mat[1][1] * p0[1])
                fn = AffineMap2(mat, t)
                if all(fn.apply(p) in Lset for p in Kp):
                    yield fn


def anchor_triple_by_scan(pts):
    """_anchor_triple without its early stop: the first affinely
    independent triple of minimal |det| over every triple of pts."""
    best = None
    for p0, p1, p2 in itertools.combinations(pts, 3):
        d = abs(_cross(p0, p1, p2))
        if d and (best is None or d < best[0]):
            best = (d, p0, p1, p2)
    return best


def hexagon_candidates(size):
    """Hexagon windows holding exactly size points, one per translation
    class of the coordinate region, by scanning every window with its
    corner at 0: the window list match_corollary once tried per strip
    size.  For fixed a2, b2 and g1 a region only grows with g2, so the
    g2 loop stops once it holds more than size points."""
    from latcov.homometry import HexagonParams
    from latcov.lattice import LatticeError

    seen = set()
    out = []
    for a2 in range(size):
        for b2 in range(size):
            for g1 in range(-b2, a2 + 1):
                for g2 in range(g1, a2 + 1):
                    try:
                        hx = HexagonParams(0, a2, 0, b2, g1, g2)
                    except LatticeError:
                        continue
                    region = hx.region()
                    if len(region) > size:
                        break
                    if len(region) != size:
                        continue
                    mi = min(i for i, _ in region)
                    mj = min(j for _, j in region)
                    key = frozenset((i - mi, j - mj) for i, j in region)
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append(hx)
    return out


def match_corollary_by_windows(K, L):
    """match_corollary the exhaustive way: every strip size k = l + 1
    whose size 2k + 1 divides |K|, and every hexagon window of
    |K| / (2k + 1) points, each pair built by corollary_pair_generator
    and confirmed by the same loop."""
    from latcov.covariogram import compute_covariogram
    from latcov.homometry import WidthOneParams, corollary_pair_generator
    from latcov.lattice import (AffineMap2, LatticeError, affine_witnesses,
                                canonical_form, point_set)
    from latcov.search import CorollaryMatch, _translation_to

    Kp = point_set(K)
    Lp = point_set(L)
    if compute_covariogram(Kp) != compute_covariogram(Lp):
        raise LatticeError("pair is not homometric")
    if canonical_form(Kp) == canonical_form(Lp):
        raise LatticeError("pair is trivial")
    n = len(Kp)
    for k in range(1, (n - 1) // 2 + 1):
        params = WidthOneParams(k, k - 1)
        if n % params.index:
            continue
        for hx in hexagon_candidates(n // params.index):
            pair = corollary_pair_generator(params, hx)
            if not pair.nontrivial:
                continue
            for swapped, (P, Q) in enumerate(
                    [(pair.first, pair.second), (pair.second, pair.first)]):
                for wit in affine_witnesses(Kp, P):
                    m = wit.matrix
                    for mm in (m, ((-m[0][0], -m[0][1]), (-m[1][0], -m[1][1]))):
                        t = _translation_to(mm, Lp, Q)
                        if t is not None:
                            return CorollaryMatch(
                                params, hx, wit,
                                AffineMap2(mm, t), bool(swapped))
    return None


def faces_by_hull(K):
    """Lattice lengths [along +d, along -d] of the hull's two faces
    across each edge line d, d in the upper half-plane (or +x), read off
    the hull's edge vectors one at a time: an edge's lattice length is
    the gcd of its vector."""
    from math import gcd

    from latcov.lattice import convex_hull

    faces = {}
    for dx, dy in convex_hull(K).chain:
        n = gcd(dx, dy)
        dx, dy = dx // n, dy // n
        if dy > 0 or (dy == 0 and dx > 0):
            faces.setdefault((dx, dy), [0, 0])[0] = n
        else:
            faces.setdefault((-dx, -dy), [0, 0])[1] = n
    return faces


def zonotopes_by_scan(rx, ry):
    """Every centrally symmetric chain part of x-extent at most rx and
    y-extent at most ry, by a scan of the primitive lines in the box and
    their multiples: m >= 1 times the segment of each chosen line, as the
    edge pairs (m*u, -m*u), the empty part included."""
    from math import gcd

    lines = [(x, y) for y in range(ry + 1) for x in range(-rx, rx + 1)
             if (y > 0 or x > 0) and gcd(x, y) == 1]
    out = []

    def rec(i, rx, ry, edges):
        out.append(edges)
        for j in range(i, len(lines)):
            x, y = lines[j]
            m = 1
            while m * abs(x) <= rx and m * y <= ry:
                rec(j + 1, rx - m * abs(x), ry - m * y,
                    edges + [(m * x, m * y), (-m * x, -m * y)])
                m += 1

    rec(0, rx, ry, [])
    return out


def split_parts_by_filter(max_dx, max_dy):
    """Every closed convex chain of the box extent with no two parallel
    edges, one of each pair +-A as the lesser of the two sorted edge
    tuples: the full walk, filtered and deduplicated by sign afterwards,
    that the split search ran before the walk took only parts."""
    from latcov._polygons import _faces, walk_chains

    parts = set()
    for chain in map(tuple, walk_chains(max_dx, max_dy)):
        if len(_faces(chain)) == len(chain):
            neg = tuple(sorted((-x, -y) for x, y in chain))
            parts.add(min(tuple(sorted(chain)), neg))
    return parts


def split_parts_with_partner(max_dx, max_dy):
    """The parts of split_parts_by_filter(max_dx, max_dy) that have a
    line-disjoint partner among them whose extent, added to their own,
    fits the box one larger, (max_dx + 1, max_dy + 1): every part that
    can be in a split of that box, found by trying every partner of a
    fitting extent, with lines named by their primitive directions."""
    from math import gcd

    def lines(part):
        return frozenset(edge_line((x // gcd(x, y), y // gcd(x, y)))
                         for x, y in part)

    by_extent = {}
    for part in split_parts_by_filter(max_dx, max_dy):
        extent = (sum(x for x, _ in part if x > 0),
                  sum(y for _, y in part if y > 0))
        by_extent.setdefault(extent, []).append((part, lines(part)))
    kept = set()
    for (ax, ay), group in by_extent.items():
        partners = [lb for (bx, by), other in by_extent.items()
                    if ax + bx <= max_dx + 1 and ay + by <= max_dy + 1
                    for _, lb in other]
        kept.update(a for a, la in group
                    if any(not la & lb for lb in partners))
    return kept


def partner_table_by_full_rays(dx, dy):
    """The (chain, lines, extent) parts that _polygons._partner_test
    tabulates for the box (dx, dy), walked on the walk's unclipped rays
    at (dx - 1, dy - 1): the table as it was built before its rays were
    clipped to the half box."""
    from latcov._polygons import _chains_from_root, _ray_groups, _reach_index

    groups = _ray_groups(dx - 1, dy - 1)
    hx, hy = dx // 2, dy // 2
    index = _reach_index(groups, hx, hy)
    return [part for root in range(len(groups) // 2)
            for part in _chains_from_root(groups, index, hx, root,
                                          lambda ex, ey, lines: True)]


def suffix_sum_sets(groups, lim_x, lim_y) -> list:
    """Per suffix groups[j:] of the ray list, j = 0..len(groups), the set
    of displacements within [-lim_x, lim_x] x [-lim_y, 0] that one vector
    per ray at most can reach: the table that _polygons._reach_index
    replaced, and the sets that the index encodes."""
    sums = [frozenset({(0, 0)})]
    for group in reversed(groups):
        prev = sums[-1]
        sums.append(prev | {(sx + dx, sy + dy) for dx, dy in group
                            for sx, sy in prev
                            if -lim_x <= sx + dx <= lim_x
                            and -lim_y <= sy + dy <= 0})
    return sums[::-1]


def parts_by_full_scan(groups, sums, lim_x, root, can_pair):
    """_polygons._chains_from_root's part walk as it was before each
    step's ray scan started at the reach index's bound: the reach test
    looks -v up in the suffix set sums[j + 1] of suffix_sum_sets, and
    every node scans every later ray, latest first.  Yields what the
    library's part walk yields, in its order."""
    half = len(groups) // 2
    bits = [1 << (j % half) for j in range(len(groups))]
    keep = -1 << root
    after = [range(len(groups) - 1, j, -1) for j in range(len(groups))]
    chosen = []

    def rec(rays, x, y, mnx, mxx, mxy, used):
        for j in rays:
            if used & bits[j]:
                continue
            reach = sums[j + 1]
            for dx, dy in groups[j]:
                nx, ny = x + dx, y + dy
                if (-nx, -ny) not in reach:
                    continue
                nmnx = nx if nx < mnx else mnx
                nmxx = nx if nx > mxx else mxx
                if nmxx - nmnx > lim_x:
                    continue
                nmxy = ny if ny > mxy else mxy
                nused = used | bits[j]
                if not can_pair(nmxx - nmnx, nmxy, nused & keep):
                    continue
                chosen.append((dx, dy))
                if nx or ny:
                    yield from rec(after[j], nx, ny, nmnx, nmxx, nmxy, nused)
                elif len(chosen) >= 3:
                    yield chosen.copy(), nused & keep, (nmxx - nmnx, nmxy)
                chosen.pop()

    yield from rec((root,), 0, 0, 0, 0, 0, ~keep)


def part_walk_by_filter(max_dx, max_dy):
    """(chain, lines) for every chain of the full walk with no two
    parallel edges whose first edge is on the upper side of its lowest
    line, in the walk's order, bit i of lines set for an edge on the line
    of the i-th upper ray: the part walk before it dropped the parts that
    cannot pair."""
    from math import gcd

    from latcov._polygons import _faces, _ray_groups, walk_chains

    groups = _ray_groups(max_dx, max_dy)
    half = len(groups) // 2
    ray = {group[0]: i for i, group in enumerate(groups)}
    for chain in walk_chains(max_dx, max_dy):
        rays = [ray[x // gcd(x, y), y // gcd(x, y)] for x, y in chain]
        lines = sum(1 << r % half for r in rays)
        if len(_faces(chain)) == len(chain) and lines & -lines == 1 << rays[0]:
            yield chain, lines


def end_row_sums(chain):
    """(l_0 l_(h-1) + l_1 l_h over the rows y = 0..h, the same over the
    columns) of the set that chain fills, from the lengths of its rows
    and columns, counted point by point: sum g(u) over u_y = h - 1 and
    over u_x = w - 1, as _polygons._end_rows reads them off the edges."""
    from collections import Counter

    K = lattice_points_by_all_edges(chain)
    sums = []
    for axis in (1, 0):
        lengths = Counter(p[axis] for p in K)
        h = max(lengths)
        sums.append(lengths[0] * lengths[h - 1] + lengths[1] * lengths[h])
    return tuple(sums)


def splits_by_unpruned_walk(width, height):
    """search._splits as it was before the part walk dropped the parts
    that cannot pair: the same pairs, Pick test, two-row test
    (end_row_sums) and moment test, over every part of
    part_walk_by_filter."""
    from latcov._polygons import _ray_groups, _row_moments, _twice_area
    from latcov.search import _pairs, _sum_chain, _zonotopes

    dx, dy = width - 1, height - 1
    square = dx == dy
    by_extent = {}
    for chain, lines in part_walk_by_filter(dx - 1, dy - 1):
        extent = (sum(x for x, _ in chain if x > 0),
                  sum(y for _, y in chain if y > 0))
        tilt = sum(x * x - y * y for x, y in chain) if square else 0
        by_extent.setdefault(extent, {}).setdefault(
            sum(x * y for x, y in chain), []).append((chain, lines, tilt))
    rank = {v: i for i, group in enumerate(_ray_groups(dx, dy)) for v in group}
    extents = sorted(by_extent)
    zonotopes = {}
    for i, (ax, ay) in enumerate(extents):
        for bx, by in extents[i:]:
            rx, ry = dx - ax - bx, dy - ay - by
            if rx < 0 or ry < 0:
                continue
            for a, b in _pairs(by_extent[ax, ay], by_extent[bx, by]):
                plus = _sum_chain(rank, (a, b))
                minus = _sum_chain(rank, (a, [(-x, -y) for x, y in b]))
                if _twice_area(plus) != _twice_area(minus):
                    continue
                if (rx, ry) not in zonotopes:
                    zonotopes[rx, ry] = _zonotopes(rx, ry)
                for z in zonotopes[rx, ry]:
                    chain = _sum_chain(rank, (plus, z)) if z else plus
                    other = _sum_chain(rank, (minus, z)) if z else minus
                    if (end_row_sums(chain) == end_row_sums(other)
                            and _row_moments(chain) == _row_moments(other)):
                        yield chain, other


def lattice_points_by_all_edges(chain):
    """Lattice points of the polygon traced by a closed convex chain,
    box corner at the origin, by rows parallel to the longest edge with
    each row's bounds the min and max over every edge of that side: the
    fill _polygons._lattice_points_of_chain made before it took each row
    from the two edges that span it."""
    from math import gcd

    ex, ey = max(chain, key=lambda v: gcd(*v))
    g = gcd(ex, ey)
    ex, ey = ex // g, ey // g
    u = pow(ex, -1, abs(ey)) if ey else ex
    v = (1 - ex * u) // ey if ey else 0
    fx, fy = -v, u
    x = y = mnx = mny = 0
    verts = []
    for dx, dy in chain:
        verts.append((x * fy - y * fx, ex * y - ey * x))
        x += dx
        y += dy
        mnx = min(x, mnx)
        mny = min(y, mny)
    upper = []
    lower = []
    for i, (ps, pt) in enumerate(verts):
        qs, qt = verts[(i + 1) % len(verts)]
        if qt > pt:
            upper.append((ps, pt, qs - ps, qt - pt))
        elif qt < pt:
            lower.append((ps, pt, qs - ps, qt - pt))
    pts = []
    for t in range(min(v[1] for v in verts), max(v[1] for v in verts) + 1):
        hi = min(ps + ds * (t - pt) // dt for ps, pt, ds, dt in upper)
        lo = max(ps - (ds * (pt - t)) // dt for ps, pt, ds, dt in lower)
        pts.extend((t * fx - mnx + s * ex, t * fy - mny + s * ey)
                   for s in range(lo, hi + 1))
    return frozenset(pts)


def closing_chains_by_sort(lines, twice_n):
    """The chains _polygons._closing_chains yields, built the way it
    built them before it placed each line's edges in angle order: every
    closing's edges listed by line in signature order, zero edges
    dropped, then sorted by angle with a comparison sort."""
    from functools import cmp_to_key

    from latcov._polygons import _angle_cmp, _signed_sums, _twice_area

    twice_area = twice_n - 2 - sum(p + q for _, q, p in lines)
    base = []
    free = []
    for (dx, dy), q, p in lines:
        if p == q:
            base += [(p * dx, p * dy), (-p * dx, -p * dy)]
        else:
            free.append(((dx, dy), q, p))
    steps = [((p - q) * dx, (p - q) * dy) for (dx, dy), q, p in free]
    mid = (len(steps) + 1) // 2
    left = {}
    first = steps[0] if steps else (0, 0)
    for net, mask in _signed_sums(steps[1:mid], first, 1):
        left.setdefault(net, []).append(mask)
    for (x, y), right in _signed_sums(steps[mid:], (0, 0), mid):
        for mask in left.get((-x, -y), ()):
            chain = list(base)
            for i, ((dx, dy), q, p) in enumerate(free):
                a, b = (q, p) if (mask | right) >> i & 1 else (p, q)
                chain += [(a * dx, a * dy), (-b * dx, -b * dy)]
            chain = [e for e in chain if e != (0, 0)]
            chain.sort(key=cmp_to_key(_angle_cmp))
            if _twice_area(chain) == twice_area:
                yield chain


def moments(K):
    """(n Sxx - Sx^2, n Sxy - Sx Sy, n Syy - Sy^2) of a set of n points,
    summed over the points: the moments the search compared before it
    read them off the rows (_polygons._row_moments)."""
    xs, ys = zip(*K)
    n, sx, sy = len(xs), sum(xs), sum(ys)
    return (n * sum(x * x for x in xs) - sx * sx,
            n * sum(x * y for x, y in zip(xs, ys)) - sx * sy,
            n * sum(y * y for y in ys) - sy * sy)


def split_keys(width: int, height: int) -> set:
    """The key (2|K|, edge signature) of every signature that has two
    closings of equal |K|, other than a chain and its reflection, whose
    sets fit a width x height point grid.

    Two such closings agree on some free lines (faces of unequal length)
    and differ on the others, and the steps (p - q) * d of each part sum
    to zero, so each part is a closed chain A or B with no two parallel
    edges, and the two sets are Z + A + B and Z + A - B for a centrally
    symmetric Z.  Nonzero steps on distinct lines need three to sum to
    zero, so A and B are lattice polygons of extent at least (1, 1), and
    the parts are walked at one less than the box, one of each pair +-A
    (replacing A by -A reflects both sets), each with the mask of its
    lines.  A pair fits when its extents and Z's add up to at most the
    box's.  Z + A + B and Z + A - B share their boundary count, and
    their areas differ only by the mixed areas of A with B and with -B,
    so the Pick test runs once per pair, on A + B and A - B, before any
    Z is added.

    This is the split search as it was before it tested the two sets'
    second moments, tried one pair of each orbit of the box's symmetries,
    looked edges up by vector and yielded splits instead of keys: every
    split key, not only those whose sets collide, kept as a corpus of
    closings and as the oracle of the keys of search._splits."""
    from math import gcd

    from latcov._polygons import _ray_groups, _twice_area, walk_chains
    from latcov.search import _zonotopes

    def _sum_chain(rank, chains):
        # edges on one ray add up, each ray found by its primitive vector
        edges = {}
        for chain in chains:
            for x, y in chain:
                g = gcd(x, y)
                r = rank[x // g, y // g]
                ex, ey = edges.get(r, (0, 0))
                edges[r] = (ex + x, ey + y)
        return [edges[r] for r in sorted(edges)]

    dx, dy = width - 1, height - 1
    by_extent: dict = {}
    for chain, lines, _ in walk_chains(dx - 1, dy - 1, parts=True):
        extent = (sum(x for x, _ in chain if x > 0),
                  sum(y for _, y in chain if y > 0))
        by_extent.setdefault(extent, []).append((chain, lines))
    rank = {group[0]: i for i, group in enumerate(_ray_groups(dx, dy))}
    extents = sorted(by_extent)
    zonotopes: dict = {}
    # The keys share one copy of each (line, q, p): there are 196 of
    # them at 8x8, against 396,014 keys of about a dozen lines each.
    faces: dict = {}
    keys = set()
    for i, (ax, ay) in enumerate(extents):
        for bx, by in extents[i:]:
            rx, ry = dx - ax - bx, dy - ay - by
            if rx < 0 or ry < 0:
                continue
            group_a, group_b = by_extent[ax, ay], by_extent[bx, by]
            for j, (a, lines_a) in enumerate(group_a):
                for b, lines_b in (group_b if group_b is not group_a
                                   else group_a[j + 1:]):
                    if lines_a & lines_b:
                        continue
                    plus = _sum_chain(rank, (a, b))
                    minus = _sum_chain(rank, (a, [(-x, -y) for x, y in b]))
                    if _twice_area(plus) != _twice_area(minus):
                        continue
                    if (rx, ry) not in zonotopes:
                        zonotopes[rx, ry] = _zonotopes(rx, ry)
                    for z in zonotopes[rx, ry]:
                        twice_n, sig = chain_key(_sum_chain(rank, (plus, z)))
                        keys.add((twice_n, tuple([faces.setdefault(f, f)
                                                  for f in sig])))
    return keys


def strip_windows_by_hulls(K, L):
    """(k, a2, b2, g1, g2) of each hexagon window that the edge chains of
    the homometric pair K, L allow, in the order search._strip_windows
    yields them: the reader as it was before it mapped K's hull chain,
    building the hull of every image P of K under a triangle map."""
    from functools import cmp_to_key

    from latcov._polygons import _angle_cmp, _faces
    from latcov.homometry import WidthOneParams, width_one_T
    from latcov.lattice import affine_witnesses, convex_hull, vadd, vsub

    faces_l = _faces(convex_hull(L).chain)
    groups = ([], [])
    for d, (p, q) in _faces(convex_hull(K).chain).items():
        if p != q:
            groups[faces_l[d] == [p, q]].append(((p - q) * d[0],
                                                 (p - q) * d[1]))
    for steps in groups:
        if len(steps) != 3:
            continue
        s1, s2, _ = sorted(steps, key=cmp_to_key(_angle_cmp))
        for fn in affine_witnesses(((0, 0), s1, vadd(s1, s2)),
                                   ((0, 0), (1, 0), (0, 1))):
            P = fn.apply_set(K)
            k, ell = _faces(convex_hull(P).chain).get((1, 0), (0, 0))
            if k != ell + 1:
                continue
            params = WidthOneParams(k, ell)
            T = width_one_T(params)
            o = min(P)
            ij = [params.coords(vsub(p, o)) for p in P
                  if params.contains(vsub(p, o))
                  and all(vadd(p, t) in P for t in T)]
            if not ij:
                continue
            a1, b1 = min(i for i, _ in ij), min(j for _, j in ij)
            a2, b2 = max(i for i, _ in ij) - a1, max(j for _, j in ij) - b1
            g1 = min(i - j for i, j in ij) - a1 + b1
            g2 = max(i - j for i, j in ij) - a1 + b1
            yield k, a2, b2, g1, g2
            yield k, a2, b2, a2 - b2 - g2, a2 - b2 - g1


def edge_lines_by_full_hull(g):
    """reconstruct._edge_lines as it read g before it took one side of
    the symmetric support: the support's full convex hull, and its edges
    on their _upper side, in angle order."""
    from math import gcd

    from latcov._polygons import _upper
    from latcov.lattice import LatticeError, convex_hull
    from latcov.reconstruct import _face_run

    hull = convex_hull(g.entries)
    if hull.is_degenerate:
        raise LatticeError("degenerate set")
    lines = []
    for a, (dx, dy) in zip(hull.vertices, hull.chain):
        if _upper((dx, dy)):
            n = gcd(dx, dy)
            d = (dx // n, dy // n)
            q, p = _face_run(g, a, d, n + 1)
            if p + q != n:
                raise LatticeError("not realizable")
            lines.append((d, q, p))
    return in_angle_order(lines)


def normal_pair_by_tuples(K):
    """K and -K moved to the origin as sorted lists of point tuples, in
    any dimension: lattice._normal_pair before it packed planar points."""
    from operator import sub

    from latcov.lattice import point_set

    pts = point_set(K)
    cols = list(zip(*pts))
    lo, hi = tuple(map(min, cols)), tuple(map(max, cols))
    return (sorted(tuple(map(sub, p, lo)) for p in pts),
            sorted(tuple(map(sub, hi, p)) for p in pts))


def difference_table_by_pairs(K, stride):
    """K's packed difference counts as a frozenset of (difference, count)
    pairs, counted over a list of every ordered pair."""
    from collections import Counter

    packed = [x * stride + y for x, y in K]
    return frozenset(Counter([p - q for p in packed for q in packed]).items())


def box_sets_with_far_shears(width, height):
    """Every lattice-convex set of the width x height box, each of those
    minus one point, and all of them sheared by x += 2^29 y and moved
    near 2^31."""
    from latcov.search import enumerate_lattice_convex

    sets = []
    for K in enumerate_lattice_convex(width, height):
        sets.append(K)
        sets.extend(K - {p} for p in K)
    far = 2 ** 31
    return sets + [frozenset((x + 2 ** 29 * y - far, far - y) for x, y in K)
                   for K in sets]


def random_symmetric_table(rng: random.Random, reach: int):
    """A seeded covariogram-shaped table: a random set of vectors within
    reach of the origin and their negatives, each pair with one random
    count, and the origin holding the largest."""
    from latcov.covariogram import Covariogram

    entries = {}
    for _ in range(rng.randint(0, 2 * reach * reach)):
        u = (rng.randint(-reach, reach), rng.randint(-reach, reach))
        if u != (0, 0):
            entries[u] = entries[(-u[0], -u[1])] = rng.randint(1, 4)
    entries[(0, 0)] = rng.randint(4, 6)
    return Covariogram(2, entries)
