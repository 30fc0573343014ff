"""Exact geometry on the integer lattice.

Points are plain tuples of Python ints and point sets are frozensets of
such tuples.  point_set enforces it: a coordinate that is not an int,
1.0 and True among them, is refused with LatticeError.  Every public
function that takes points checks them there once (hull_lattice_points
a Hull2's vertices, Covariogram.value its vector, AffineMap2 its matrix
and shift), and library code, with no exception, passes the sets it builds
to private bodies (_convex_hull, _hull_lattice_points, _support_set,
_canonical_form; homometry's _sums, _mirror_pair and _condition_ii)
unchecked.  _planar alone refuses a set for its
dimension, 2 or (dim=None) one shared by all the sets, with the caller's
message, and _trusted alone builds the values the library computes (a
Covariogram, an AffineMap2) without their constructors' checks.  All is
integer arithmetic, so results are exact at any coordinate size.

Most operations live in the plane (d = 2).  The few that make sense in any
dimension (difference sets, central symmetry, canonical forms) accept
tuples of arbitrary equal length.

hull_lattice_points fills a hull by its chain's rows, as search and
reconstruction do (_polygons._lattice_points_of_chain).  Lattice
convexity, K = Z^2 cap conv K, is decided in one place, _fills: a point
or a segment by its lattice length, any other hull by the bounding-box
scan of _hull_lattice_points.  convex_hull keeps a row's two end points,
the only ones that can be vertices, in one pass (_row_ends), O(n + r log
r) for n points in r rows, as reconstruction does on a covariogram's
support.  Hull edges are read through Hull2.chain.  _normal_pair is the
one packing of planar sets: one sorted list of integers gives K's
canonical form and central symmetry (K against -K) and its difference
counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, product, repeat, starmap
from math import gcd
from operator import mul, sub

from ._polygons import _lattice_points_of_chain

Point = tuple[int, ...]


class LatticeError(ValueError):
    """Domain error: empty input, wrong dimension, degenerate set, ..."""


def _check_box(*sides) -> None:
    """Refuse box sides, point counts along the axes, that are not
    positive integers."""
    if not all(isinstance(side, int) for side in sides):
        raise LatticeError("box dimensions must be integers")
    if any(side < 1 for side in sides):
        raise LatticeError("box dimensions must be positive")


def vadd(a: Point, b: Point) -> Point:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Point, b: Point) -> Point:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vneg(a: Point) -> Point:
    return tuple(-x for x in a)


def det2(u: Point, v: Point) -> int:
    return u[0] * v[1] - u[1] * v[0]


def primitive(u: Point) -> Point:
    """Scale a nonzero integer vector down to primitive (gcd 1), keeping sign."""
    g = gcd(*(abs(c) for c in u))
    if g == 0:
        raise LatticeError("zero direction")
    return tuple(c // g for c in u)


def _int_points(points) -> list[Point]:
    """points as tuples, refusing any that is not a sequence of ints (a
    bool is not one): the one integer rule, of point_set and of
    Covariogram's keys."""
    try:
        pts = list(map(tuple, points))
        # checked before hashing, where (1.0, 0) or (True, 0) is (1, 0)
        if {*map(type, chain.from_iterable(pts))} <= {int}:
            return pts
    except TypeError:       # tuple() of a bare number
        pass
    raise LatticeError("coordinates must be integers")


def point_set(points) -> frozenset[Point]:
    """Freeze an iterable of points, checking each (_int_points),
    nonemptiness and uniform dimension."""
    pts = frozenset(_int_points(points))
    if not pts:
        raise LatticeError("empty set")
    dims = {len(p) for p in pts}
    if len(dims) != 1:
        raise LatticeError("mixed dimensions")
    return pts


def dim_of(points) -> int:
    return len(next(iter(points)))


def _planar(message: str, *sets, dim: int | None = 2) -> list[frozenset[Point]]:
    """Each of sets, checked by point_set, refusing with
    LatticeError(message) unless every one has dimension dim, or, with
    dim None, all of them share one."""
    pts = list(map(point_set, sets))
    want = dim_of(pts[0]) if dim is None else dim
    if any(dim_of(p) != want for p in pts):
        raise LatticeError(message)
    return pts


def _trusted(cls, **fields):
    """The frozen dataclass cls of fields the library computed, unchecked."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def translate(points, t: Point) -> frozenset[Point]:
    pts, (t,) = _planar("translation has the wrong dimension",
                        points, (t,), dim=None)
    return frozenset(vadd(p, t) for p in pts)


def extent(points) -> Point:
    """Componentwise width of the tight bounding box."""
    cols = list(zip(*points))
    return tuple(max(c) - min(c) for c in cols)


@dataclass(frozen=True)
class Hull2:
    """Convex hull of a planar point set.

    Vertices are in counterclockwise order and are exactly the extreme
    points (no three consecutive collinear).  A hull of one or two vertices
    is degenerate: the input was a single point or collinear.
    """

    vertices: tuple[Point, ...]

    @property
    def is_degenerate(self) -> bool:
        return len(self.vertices) < 3

    @property
    def chain(self) -> list[Point]:
        """The edge vectors, counterclockwise from the first vertex."""
        vs = self.vertices
        if len(vs) < 2:
            return []
        return [(b[0] - a[0], b[1] - a[1])
                for a, b in zip(vs, vs[1:] + vs[:1])]


def _left_turns(points) -> list[Point]:
    """The monotone chain through points, in order, of strict left turns."""
    out: list[Point] = []
    for p in points:
        while len(out) > 1:
            (ox, oy), (ax, ay) = out[-2], out[-1]
            if (ax - ox) * (p[1] - oy) > (ay - oy) * (p[0] - ox):
                break
            out.pop()
        out.append(p)
    return out


def _row_ends(K) -> dict:
    """Each row (a y) of the planar set K with its least and greatest
    x, as y -> [least, greatest], in one pass."""
    rows: dict = {}
    for x, y in K:
        r = rows.get(y)
        if r is None:
            rows[y] = [x, x]
        elif x < r[0]:
            r[0] = x
        elif x > r[1]:
            r[1] = x
    return rows


def convex_hull(K) -> Hull2:
    """Hull, counterclockwise from its least vertex, strict (collinear
    points dropped).  Only the least and the greatest x of a row (a y)
    can be a vertex, so one pass keeps those two (_row_ends), and the
    monotone chain runs up the row maxima and down the row minima:
    O(n + r log r) for n points in r rows."""
    return _convex_hull(*_planar("convex hull requires dimension 2", K))


def _convex_hull(K) -> Hull2:
    rows = _row_ends(K)
    ys = sorted(rows)
    right = _left_turns([(rows[y][1], y) for y in ys])
    # a top or bottom row of one point ends one side and starts the other
    ends = (right[0], right[-1])
    vs = right + [p for p in _left_turns([(rows[y][0], y) for y in ys[::-1]])
                  if p not in ends]
    i = vs.index(min(vs))
    return Hull2(tuple(vs[i:] + vs[:i]))


def hull_lattice_points(hull: Hull2) -> frozenset[Point]:
    """Every lattice point inside or on the hull, by the rows of its chain
    at the vertices' least corner, in O(points + rows + edges) at any
    coordinate size.  A one-vertex hull is its vertex.  Refuses a hull
    that is not the convex hull of its vertices in Hull2's order."""
    [vs] = _planar("convex hull requires dimension 2", hull.vertices)
    given = tuple(map(tuple, hull.vertices))
    i = given.index(min(given))
    if _convex_hull(vs).vertices != given[i:] + given[:i]:
        raise LatticeError("not a convex hull")
    if len(vs) == 1:
        return vs
    return _lattice_points_of_chain(hull.chain, tuple(map(min, zip(*vs))))


def _hull_lattice_points(vs) -> frozenset[Point]:
    # Half-plane form of each edge: A*x + B*y + C >= 0 inside.
    halves = []
    for i, (ax, ay) in enumerate(vs):
        bx, by = vs[(i + 1) % len(vs)]
        halves.append((-(by - ay), bx - ax, (by - ay) * ax - (bx - ax) * ay))
    xs, ys = zip(*vs)
    out = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if all(A * x + B * y + C >= 0 for A, B, C in halves):
                out.append((x, y))
    return frozenset(out)


def _fills(hull: Hull2, pts: frozenset[Point]) -> bool:
    """pts, whose convex hull is hull, is every lattice point of it.  A
    segment holds gcd(edge) + 1 lattice points and pts lies on it, so a
    point or a segment is decided by that count, whatever its coordinates."""
    if hull.is_degenerate:
        chain = hull.chain
        return len(pts) == (gcd(*chain[0]) if chain else 0) + 1
    return _hull_lattice_points(hull.vertices) == pts


def is_lattice_convex(K) -> bool:
    """True iff K equals the set of lattice points of its own convex hull."""
    [pts] = _planar("lattice convexity test requires dimension 2", K)
    return _fills(_convex_hull(pts), pts)


def support_set(K, u) -> frozenset[Point]:
    """Points of K with maximal inner product against u."""
    pts, (u,) = _planar("direction has the wrong dimension",
                        K, (u,), dim=None)
    if not any(u):
        raise LatticeError("zero direction")
    return _support_set(pts, u)


def _support_set(pts, u) -> frozenset[Point]:
    best = max(sum(map(mul, p, u)) for p in pts)
    return frozenset(p for p in pts if sum(map(mul, p, u)) == best)


def difference_set(K) -> frozenset[Point]:
    """K + (-K): all pairwise differences."""
    pts = list(point_set(K))
    if len(pts[0]) == 2:
        return frozenset((a[0] - b[0], a[1] - b[1]) for a in pts for b in pts)
    return frozenset(vsub(a, b) for a in pts for b in pts)


def _normal_pair(K) -> tuple[list, list, int | None]:
    """K, a checked set (point_set), and -K, each translated so its
    componentwise minimum is the origin, as sorted lists, and the stride
    w that packs them.

    A planar point p - lo is packed as the integer (x - lx) w + (y - ly),
    w = 2 h + 1 for the y-extent h, which keeps the order of the tuples:
    one sort gives K's list, and -K's list, hi - p over K, is that list
    reversed and subtracted from the packed top corner hi.  A difference
    of two points, |dy| <= h, packs one-to-one as dx w + dy.  In any
    other dimension the lists hold the tuples and w is None.
    """
    cols = list(zip(*K))
    if len(cols) != 2:
        lo, hi = tuple(map(min, cols)), tuple(map(max, cols))
        return (sorted(tuple(map(sub, p, lo)) for p in K),
                sorted(tuple(map(sub, hi, p)) for p in K), None)
    xs, ys = cols
    lx, ly = min(xs), min(ys)
    h = max(ys) - ly
    w = 2 * h + 1
    a = sorted([(x - lx) * w + y - ly for x, y in K])
    top = (max(xs) - lx) * w + h
    return a, [top - v for v in reversed(a)], w


def _unpack(kept, w) -> frozenset[Point]:
    """The points of a list of _normal_pair, packed with stride w."""
    return frozenset(kept if w is None else map(divmod, kept, repeat(w)))


def _difference_counts(packed) -> Counter:
    """The packed differences of a list of _normal_pair, counted in C."""
    return Counter(starmap(sub, product(packed, repeat=2)))


def is_centrally_symmetric(K) -> bool:
    """True iff -K is a translate of K."""
    a, b, _ = _normal_pair(point_set(K))
    return a == b


def canonical_form(K) -> frozenset[Point]:
    """Distinguished representative of K's class under translations and
    point reflections: the smaller of the two lists of _normal_pair,
    unpacked."""
    return _canonical_form(point_set(K))


def _canonical_form(K) -> frozenset[Point]:
    a, b, w = _normal_pair(K)
    return _unpack(min(a, b), w)


@dataclass(frozen=True)
class AffineMap2:
    """Unimodular affine map of the plane lattice: x -> M x + t with
    integer M, det M = +-1."""

    matrix: tuple[tuple[int, int], tuple[int, int]]
    shift: tuple[int, int]

    def __post_init__(self):
        _int_points((*self.matrix, self.shift))
        if abs(self.det) != 1:
            raise LatticeError("matrix is not unimodular")

    @property
    def det(self) -> int:
        (a, b), (c, d) = self.matrix
        return a * d - b * c

    def apply(self, p: Point) -> Point:
        (a, b), (c, d) = self.matrix
        return (a * p[0] + b * p[1] + self.shift[0],
                c * p[0] + d * p[1] + self.shift[1])

    def apply_set(self, K) -> frozenset[Point]:
        return frozenset(self.apply(p) for p in K)

    def inverse(self) -> "AffineMap2":
        (a, b), (c, d) = self.matrix
        s = self.det  # +1 or -1
        inv = ((s * d, -s * b), (-s * c, s * a))
        tx = -(inv[0][0] * self.shift[0] + inv[0][1] * self.shift[1])
        ty = -(inv[1][0] * self.shift[0] + inv[1][1] * self.shift[1])
        return _trusted(AffineMap2, matrix=inv, shift=(tx, ty))


def _index(vectors) -> int:
    """Index in Z^2 of the lattice the planar vectors span, 0 when they
    are collinear: Euclid on x keeps a basis (a, (0, c)) of the span."""
    a, c = (0, 0), 0
    for v in vectors:
        while v[0]:
            q = a[0] // v[0]
            a, v = v, (a[0] - q * v[0], a[1] - q * v[1])
        c = gcd(c, v[1])
    return abs(a[0] * c)


def _anchor_triple(pts: list[Point]):
    """Affinely independent triple with minimal |det| of its edge pair.
    Every such |det| is a multiple of the index of the lattice that the
    differences span, so the scan stops at the first triple there."""
    index = _index(vsub(p, pts[0]) for p in pts)
    best = None
    for p0, p1, p2 in combinations(pts, 3):
        d = abs(det2(vsub(p1, p0), vsub(p2, p0)))
        if d and (best is None or d < best[0]):
            best = (d, p0, p1, p2)
            if d == index:
                break
    return best


def affine_witnesses(K, L):
    """Yield every unimodular affine map sending K exactly onto L.

    Such a map sends conv K onto conv L, so it sends hull vertices to hull
    vertices and keeps their cyclic order, in one of two orientations.  The
    candidates are therefore the at most 2v maps, v the number of hull
    vertices, that send K's first vertex and its two neighbours to a vertex
    of L's hull and its two neighbours, either way round; each is checked
    for integrality and then on every point of K, in O(v * |K|) overall.
    The witnesses come sorted by the images of K's minimal-determinant
    independent triple, the order of a scan over all triples of L.
    """
    return _affine_witnesses(
        *_planar("affine equivalence requires dimension 2", K, L))


def _affine_witnesses(Kp, Lp):
    hk = _convex_hull(Kp)
    hl = _convex_hull(Lp)
    if hk.is_degenerate or hl.is_degenerate:
        raise LatticeError("degenerate set")
    V, W = hk.vertices, hl.vertices
    if len(Kp) != len(Lp) or len(V) != len(W):
        return
    p0 = V[0]
    e1 = vsub(V[1], p0)
    e2 = vsub(V[-1], p0)
    detm = det2(e1, e2)
    v = len(W)
    found = []
    for j, q0 in enumerate(W):
        for s in (1, -1):
            f1 = vsub(W[(j + s) % v], q0)
            f2 = vsub(W[(j - s) % v], q0)
            if abs(det2(f1, f2)) != abs(detm):
                continue
            # Solve A [e1 e2] = [f1 f2] by adjugate; A must be integral.
            n00 = f1[0] * e2[1] - f2[0] * e1[1]
            n01 = -f1[0] * e2[0] + f2[0] * e1[0]
            n10 = f1[1] * e2[1] - f2[1] * e1[1]
            n11 = -f1[1] * e2[0] + f2[1] * e1[0]
            if any(n % detm for n in (n00, n01, n10, n11)):
                continue
            mat = ((n00 // detm, n01 // detm), (n10 // detm, n11 // detm))
            t = (q0[0] - mat[0][0] * p0[0] - mat[0][1] * p0[1],
                 q0[1] - mat[1][0] * p0[0] - mat[1][1] * p0[1])
            fn = _trusted(AffineMap2, matrix=mat, shift=t)
            if all(fn.apply(p) in Lp for p in Kp):
                found.append(fn)
    if len(found) > 1:
        anchor = _anchor_triple(sorted(Kp))[1:]
        found.sort(key=lambda fn: [fn.apply(p) for p in anchor])
    yield from found


def affine_equivalent(K, L) -> AffineMap2 | None:
    """First unimodular affine map with map(K) = L, or None."""
    return next(affine_witnesses(K, L), None)
