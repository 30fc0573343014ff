"""Exhaustive search for homometric pairs among planar lattice-convex sets.

The search never walks the box.  Its set count is a knapsack count
(count_chains), and the only pairs of sets that can share a covariogram
without being reflections of each other are enumerated as splits
Z + A +- B (two lattice polygons A and B with no two parallel edges, on
disjoint lines, and a centrally symmetric Z) whose two sets share their
second moments.  Those sets, and their images under the box's
symmetries, are grouped by covariogram, and every class with two or
more members up to translation and point reflection is reported.
Each found pair can be matched, up to unimodular affine maps of the
lattice, against the hexagon-family mirror pairs of width-one strips.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ._polygons import (
    _faces,
    _lattice_points_of_chain,
    _ray_groups,
    _row_moments,
    _twice_area,
    _upper,
    count_chains,
    walk_chains,
)
from .covariogram import _covariogram
from .homometry import (
    HexagonParams,
    WidthOneParams,
    corollary_pair_generator,
    width_one_T,
)
from .lattice import (
    AffineMap2,
    LatticeError,
    _affine_witnesses,
    _canonical_form,
    _check_box,
    _convex_hull,
    _difference_counts,
    _normal_pair,
    _planar,
    _trusted,
    _unpack,
    det2,
    vadd,
    vsub,
)

DESK_SCALE_LIMIT = 42
_STRIP_TRIANGLE = frozenset({(0, 0), (1, 0), (0, 1)})
_MIRROR = ((-1, 0), (0, 1))
_TRANSPOSE = ((0, 1), (1, 0))


@dataclass(frozen=True)
class CorollaryMatch:
    """Witness that a found pair is a hexagon-family mirror pair up to a
    unimodular affine map (the same matrix for both members; swapped
    records whether the members matched in reversed order)."""

    params: WidthOneParams
    hexagon: HexagonParams
    first_map: AffineMap2
    second_map: AffineMap2
    swapped: bool


@dataclass(frozen=True)
class PairVerdict:
    first: frozenset
    second: frozenset
    match: CorollaryMatch | None


@dataclass(frozen=True)
class HomometricClass:
    """Sets sharing one covariogram: two or more distinct canonical forms."""

    members: tuple
    pairs: tuple


@dataclass(frozen=True)
class SearchReport:
    width: int
    height: int
    total_classes: int
    classes: tuple


def _check_jobs(jobs) -> None:
    """Refuse a worker count that is not an integer of at least 1."""
    if not isinstance(jobs, int):
        raise LatticeError("jobs must be an integer")
    if jobs < 1:
        raise LatticeError("jobs must be at least 1")


def enumerate_lattice_convex(width: int, height: int, jobs: int = 1):
    """Every spanning lattice-convex set whose tight bounding box fits a
    width x height point grid, once per translation class, box corner at
    the origin, streamed in the walk's order.  The walk runs in this
    process: jobs is checked, refused below 1, and otherwise ignored."""
    _check_box(width, height)
    _check_jobs(jobs)
    yield from map(_lattice_points_of_chain,
                   walk_chains(width - 1, height - 1))


def _sum_chain(rank: dict, chains) -> list:
    """Edge chain of the Minkowski sum of closed convex chains: edges on
    one ray add up, and rank maps each edge vector to its ray's rank."""
    edges: dict = {}
    for chain in chains:
        for dx, dy in chain:
            r = rank[dx, dy]
            ex, ey = edges.get(r, (0, 0))
            edges[r] = (ex + dx, ey + dy)
    return [edges[r] for r in sorted(edges)]


def _zonotopes(rx: int, ry: int) -> list:
    """Every centrally symmetric chain part of x-extent at most rx and
    y-extent at most ry: a multiple u of the segment of each chosen line,
    as the edge pairs (u, -u), the empty part included."""
    lines = [group for group in _ray_groups(rx, ry) if _upper(group[0])]
    out = []

    def rec(i, rx, ry, edges):
        out.append(edges)
        for j in range(i, len(lines)):
            for x, y in lines[j]:
                if abs(x) > rx or y > ry:
                    break
                rec(j + 1, rx - abs(x), ry - y, edges + [(x, y), (-x, -y)])

    rec(0, rx, ry, [])
    return out


def _pairs(group_a: dict, group_b: dict):
    """The line-disjoint pairs of parts, one of each group and each pair
    once, whose skews (the groups' keys) and tilts add up to at least 0."""
    for sa, parts_a in group_a.items():
        for sb, parts_b in group_b.items():
            if sa + sb < 0 or group_a is group_b and sb < sa:
                continue
            for j, (a, lines_a, ta) in enumerate(parts_a):
                for b, lines_b, tb in (parts_b if parts_b is not parts_a
                                       else parts_a[j + 1:]):
                    if not lines_a & lines_b and ta + tb >= 0:
                        yield a, b


def _splits(width: int, height: int):
    """Yield (chain, other) for every tried split whose two sets,
    Z + A + B and Z + A - B, fit a width x height point grid and share
    their _row_moments, which covariograms fix.

    Two homometric sets that are not reflections of each other agree on
    some free lines (faces of unequal length) and differ on the others,
    and the steps (p - q) * d of each part sum to zero, so each part is a
    closed chain A or B with no two parallel edges, and the two sets are
    Z + A + B and Z + A - B for a centrally symmetric Z.  Nonzero steps
    on distinct lines need three to sum to zero, so A and B are lattice
    polygons of extent at least (1, 1), and the parts are walked at one
    less than the box, one of each pair +-A (replacing A by -A reflects
    both sets), each with the mask of its lines and its extent.  A pair
    fits when its extents and Z's add up to at most the box's.  The walk
    drops parts with no line-disjoint partner that fits beside them,
    which are in no pair, and keeps the others in their order, so the
    splits come as from every part.  Z + A + B and Z + A - B share their
    boundary count, and their areas differ only by the mixed areas of A
    with B and with -B, so the Pick test runs once per pair, on A + B
    and A - B, before any Z is added.

    A polygon of x-extent 1 has its vertices on two vertical lines, so
    one of them holds two vertices and the face there is a vertical
    edge: two parts of x-extent 1 share a line and never pair, and
    likewise two of y-extent 1.  So the extent pairs with ax = bx = 1 or
    ay = by = 1 are skipped, and a box with a side of at most 3 points,
    where ax + bx <= 2 forces ax = bx = 1, has no split and is answered
    before any walk.

    The mirror x -> -x, and the transpose x <-> y of a square box, map
    the box onto itself and splits onto splits of the same extents that
    pass the same tests, and Z runs over a set closed under both.
    skew = sum x y and tilt = sum x^2 - y^2 over the edges are even under
    A -> -A, skew is odd under the mirror and tilt under the transpose,
    so a pair is tried only when its skews (and on a square box its
    tilts) add up to at least 0: one of each orbit, whose images the
    caller takes."""
    dx, dy = width - 1, height - 1
    if min(dx, dy) <= 2:
        return
    square = dx == dy
    # Parts by extent, then by skew, each with its tilt (0 off the square).
    by_extent: dict = {}
    for chain, lines, extent in walk_chains(dx - 1, dy - 1, parts=True):
        tilt = sum(x * x - y * y for x, y in chain) if square else 0
        by_extent.setdefault(extent, {}).setdefault(
            sum(x * y for x, y in chain), []).append((chain, lines, tilt))
    rank = {v: i for i, group in enumerate(_ray_groups(dx, dy)) for v in group}
    extents = sorted(by_extent)
    zonotopes: dict = {}
    for i, (ax, ay) in enumerate(extents):
        for bx, by in extents[i:]:
            rx, ry = dx - ax - bx, dy - ay - by
            if rx < 0 or ry < 0 or ax == bx == 1 or ay == by == 1:
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
                    if _row_moments(chain) == _row_moments(other):
                        yield chain, other


def homometric_classes(width: int, height: int, jobs: int = 1,
                       match: bool = False,
                       allow_large: bool = False) -> SearchReport:
    """Group the sets of a box by covariogram and report collisions.

    Any two homometric sets that are not reflections of each other are
    the two sets of a split, so the box is never walked: the sets of
    _splits, and their images under the box's maps (the mirror, and on a
    square box the transpose), are the only ones that can be in a pair.
    Each is packed once (_normal_pair), its canonical form is kept
    packed with its stride w and grouped by (w, _difference_counts), as
    homometric sets share their extents, and a class, two or more
    distinct forms, is unpacked.  Each reported pair is re-verified
    once before it is matched, and each hexagon-family pair the matcher
    tries is built and verified once per search.  total_classes counts
    the box's sets, one per translation class, by count_chains: at once
    for a side of 1 or 2, as in _splits.  The search runs in this
    process: jobs is checked, refused below 1, and otherwise ignored.
    """
    _check_box(width, height)
    if width * height > DESK_SCALE_LIMIT and not allow_large:
        raise LatticeError(
            "box exceeds the desk-scale limit; pass allow_large=True to override")
    _check_jobs(jobs)
    total = count_chains(width - 1, height - 1)
    maps = [((1, 0), (0, 1)), _MIRROR]
    if width == height:
        # the transpose, and the mirror after it
        maps += [_TRANSPOSE, ((0, -1), (1, 0))]
    forms = set()
    for pair in _splits(width, height):
        for K in map(_lattice_points_of_chain, pair):
            for (a, b), (c, d) in maps:
                first, second, w = _normal_pair(
                    {(a * x + b * y, c * x + d * y) for x, y in K})
                forms.add((w, tuple(min(first, second))))
    tables: dict = {}
    for w, F in forms:
        table = frozenset(_difference_counts(F).items())
        tables.setdefault((w, table), []).append(F)
    found = []
    built: dict = {}
    for (w, _), group in tables.items():
        if len(group) < 2:
            continue
        members = tuple(sorted((_unpack(F, w) for F in group), key=sorted))
        pairs = []
        for a, b in combinations(members, 2):
            if _covariogram(a) != _covariogram(b):
                raise AssertionError(
                    "covariogram grouping failed re-verification")
            verdict = _match(a, b, built) if match else None
            pairs.append(PairVerdict(a, b, verdict))
        found.append(HomometricClass(members, tuple(pairs)))
    found.sort(key=lambda c: sorted(c.members[0]))
    return SearchReport(width, height, total, tuple(found))


def _translation_to(matrix, src, dst) -> tuple | None:
    """Shift t with {matrix p + t} = dst, or None."""
    img = frozenset((matrix[0][0] * p[0] + matrix[0][1] * p[1],
                     matrix[1][0] * p[0] + matrix[1][1] * p[1]) for p in src)
    t = vsub(min(dst), min(img))
    if frozenset(vadd(p, t) for p in img) == dst:
        return t
    return None


def _strip_windows(K, L):
    """(k, a2, b2, g1, g2) of each hexagon window (0, a2, 0, b2, g1, g2)
    that the edge chains of the homometric pair K, L allow.

    K's free lines (faces of unequal length) split by whether L's faces
    there have the same orientation, and the strip's triangle is one
    group (Fact A; which depends on whether L is matched reflected).  A
    group of three lines gives a triangle from two steps (p - q) d in
    counterclockwise turn, and each of the at most six maps of it onto
    conv{0, e1, e2} sends K to a P whose (1, 0) line has faces (k, k - 1).
    S is the points of P in the sublattice coset of min P whose strip tile
    lies in P; the tight windows of S and of -S are proposed."""
    chain = _convex_hull(K).chain
    faces_l = _faces(_convex_hull(L).chain)
    groups = ([], [])
    for d, (p, q) in _faces(chain).items():
        if p != q:
            groups[faces_l[d] == [p, q]].append(((p - q) * d[0],
                                                 (p - q) * d[1]))
    for steps in groups:
        if len(steps) != 3:
            continue
        s1, s2, _ = steps if det2(*steps[:2]) > 0 else steps[::-1]
        for fn in _affine_witnesses(frozenset({(0, 0), s1, vadd(s1, s2)}),
                                    _STRIP_TRIANGLE):
            # P's hull chain is fn of K's, negated when det < 0 flips it.
            ((a, b), (c, e)), s = fn.matrix, fn.det
            image = [(s * (a * x + b * y), s * (c * x + e * y)) for x, y in chain]
            k, ell = _faces(image).get((1, 0), (0, 0))
            if k != ell + 1:
                continue
            P = fn.apply_set(K)
            params = WidthOneParams(k, ell)
            T = width_one_T(params)
            ox, oy = min(P)
            ij = [params.coords((x - ox, y - oy)) for x, y in P
                  if params.contains((x - ox, y - oy))
                  and all((x + tx, y + ty) in P for tx, ty in T)]
            if not ij:
                continue
            a1, b1 = min(i for i, _ in ij), min(j for _, j in ij)
            a2, b2 = max(i for i, _ in ij) - a1, max(j for _, j in ij) - b1
            g1 = min(i - j for i, j in ij) - a1 + b1
            g2 = max(i - j for i, j in ij) - a1 + b1
            yield k, a2, b2, g1, g2
            yield k, a2, b2, a2 - b2 - g2, a2 - b2 - g1


def match_corollary(K, L) -> CorollaryMatch | None:
    """Match a nontrivially homometric pair against the hexagon family.

    A match needs one unimodular matrix carrying K and L onto a
    nontrivial pair of corollary_pair_generator (in either order), with
    translations free per member and the second member also allowed a
    point reflection, since members are only determined up to their
    class.  The windows _strip_windows proposes are tried in the order
    (k, a2, b2, g1, g2), skipping those whose region does not hold
    |K| / (2k + 1) points; the first that confirms is the witness, and
    None means no strip size fits.

    That is the first hit of a scan over every k with 2k + 1 dividing |K|
    and every window of |K| / (2k + 1) points, one per region, as those
    are the tight windows with corner 0, met in the same order.  A matrix
    that confirms sends K onto S + T or S - T, so up to sign it sends K's
    triangle part onto the strip's and is one of the maps the reader
    tries, and the image of K under it gives k and the window exactly."""
    Kp, Lp = _planar("match_corollary requires dimension 2", K, L)
    if _covariogram(Kp) != _covariogram(Lp):
        raise LatticeError("pair is not homometric")
    if _canonical_form(Kp) == _canonical_form(Lp):
        raise LatticeError("pair is trivial")
    return _match(Kp, Lp, {})


def _match(Kp, Lp, built: dict) -> CorollaryMatch | None:
    """match_corollary on a planar pair of frozensets already checked to
    be homometric and nontrivial.  built maps (params, hexagon) to the
    pair corollary_pair_generator built for it, so each is built once."""
    for k, a2, b2, g1, g2 in sorted(set(_strip_windows(Kp, Lp))):
        params = WidthOneParams(k, k - 1)
        hx = HexagonParams(0, a2, 0, b2, g1, g2)
        if hx.size() * params.index != len(Kp):
            continue
        pair = built.get((params, hx))
        if pair is None:
            pair = built[params, hx] = corollary_pair_generator(params, hx)
        if not pair.nontrivial:
            continue
        for swapped, (P, Q) in enumerate(
                [(pair.first, pair.second), (pair.second, pair.first)]):
            for wit in _affine_witnesses(Kp, P):
                m = wit.matrix
                for mm in (m, ((-m[0][0], -m[0][1]), (-m[1][0], -m[1][1]))):
                    t = _translation_to(mm, Lp, Q)
                    if t is not None:
                        fn = _trusted(AffineMap2, matrix=mm, shift=t)
                        return CorollaryMatch(params, hx, wit, fn, bool(swapped))
    return None
