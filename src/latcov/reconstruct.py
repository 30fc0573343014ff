"""Recovery of structure from a covariogram alone.

Nothing in this module looks at a realizing set: inputs are covariogram
tables, and outputs are boundary row pairs, the invariant record, and
every realizing spanning lattice-convex set up to translation and point
reflection.

Reconstruction does not search a box.  g fixes the edge signature of
every realizing set: for each edge line of its support's hull, the
lattice lengths of the two faces parallel to it.  The support is
symmetric, so each line is read once, in angle order, off the hull's
bottom edge and right chain.  What g leaves open is, for each line
whose two faces differ, which side carries the longer one; the sides
that close the edge chain are found meet-in-the-middle.  g also fixes
the second moments of every realizing set, so from the second closing
on a closing whose moments, read off its rows, differ is skipped
unfilled.  Each closing left is filled, and kept when its exact table
of difference counts is g's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from operator import mul

from ._polygons import _closing_chains, _lattice_points_of_chain, _row_moments
from .covariogram import Covariogram
from .invariants import InvariantRecord, _record
from .lattice import (
    LatticeError,
    _check_box,
    _convex_hull,
    _difference_counts,
    _left_turns,
    _normal_pair,
    _planar,
    _row_ends,
    _support_set,
    _unpack,
    det2,
    extent,
    primitive,
)


@dataclass(frozen=True)
class EdgePairSketch:
    """The two boundary rows of a realizing set facing a direction and its
    negative, recovered up to translation and reflection.

    Both rows are runs of consecutive lattice points on parallel lines
    (singletons in the vertex-vertex case), with |long_row| >= |short_row|.
    The absolute position of the rows carries no information.
    """

    long_row: frozenset
    short_row: frozenset
    normal: tuple


def _require_planar(g: Covariogram) -> None:
    if g.dim != 2:
        raise LatticeError("expected a planar covariogram")


def _face_run(g: Covariogram, start, d, count: int) -> tuple[int, int]:
    """First and last index of the maximum of g along start + i*d for i
    below count, the lattice points of an extreme segment of the support.

    For a realizing set the profile there is that of its two faces
    parallel to the segment, of lattice lengths p >= q: positive on the
    whole run and maximal exactly at indices q..p.  Each point of the run
    is then its own entry of g, so a longer run is refused before any
    point is listed.  Raises LatticeError for a profile of any other
    shape.
    """
    if count > len(g.entries):
        raise LatticeError("not realizable")
    (ax, ay), (dx, dy), get = start, d, g.entries.get
    vals = [get((ax + i * dx, ay + i * dy), 0) for i in range(count)]
    if 0 in vals:
        # support not contiguous on its extreme line
        raise LatticeError("not realizable")
    vmax = max(vals)
    k2 = vals.index(vmax)
    k3 = len(vals) - 1 - vals[::-1].index(vmax)
    if any(vals[i] != vmax for i in range(k2, k3 + 1)):
        raise LatticeError("not realizable")
    return k2, k3


def _edge_lines(g: Covariogram) -> tuple:
    """The edge signature of g, as _polygons._signature gives it for a
    realizing set: (line, q, p) for each edge line of the support's
    hull, in angle order, with line its _upper primitive direction and
    q <= p the lattice lengths of the two faces of a realizing set
    parallel to it (0 for a face that is a vertex).

    g(u) = g(-u), so the hull is centrally symmetric and each edge line
    is read once, on its _upper side, in the order met: the bottom row's
    edge, then the edges of the hull's right chain, the row maxima bottom
    to top.  The support is degenerate exactly when that chain is one
    point, or two points collinear with the origin.  Raises LatticeError
    then, or when a profile is not that of two faces whose difference is
    the support's edge, so p + q is its length.
    """
    rows = _row_ends(g.entries)
    ys = sorted(rows)
    right = _left_turns([(rows[y][1], y) for y in ys])
    if len(right) == 1 or (len(right) == 2 and det2(*right) == 0):
        raise LatticeError("degenerate set")
    lo = rows[ys[0]][0]
    if lo < right[0][0]:
        right.insert(0, (lo, ys[0]))
    lines = []
    for (ax, ay), (bx, by) in zip(right, right[1:]):
        dx, dy = bx - ax, by - ay
        n = gcd(dx, dy)
        d = (dx // n, dy // n)
        q, p = _face_run(g, (ax, ay), d, n + 1)
        if p + q != n:
            raise LatticeError("not realizable")
        lines.append((d, q, p))
    return tuple(lines)


def edge_pair_from_covariogram(g: Covariogram, u) -> EdgePairSketch:
    """Recover the boundary rows of a realizing set facing u and -u.

    Reads g along the face of its support's hull facing u, a vertex or
    an edge.  The profile there must be positive on a contiguous run and
    maximal on a contiguous subrun; the rows come from the run ends.
    """
    _require_planar(g)
    [(u,)] = _planar("direction has the wrong dimension", (u,))
    if primitive(u) != u:
        raise LatticeError("direction must be primitive")
    E = _support_set(_convex_hull(g.entries).vertices, u)
    if len(E) == 1:
        return EdgePairSketch(E, frozenset({(0, 0)}), u)
    (ax, ay), (bx, by) = min(E), max(E)
    steps = gcd(bx - ax, by - ay)
    dx, dy = (bx - ax) // steps, (by - ay) // steps
    k2, k3 = _face_run(g, (ax, ay), (dx, dy), steps + 1)
    long_row = frozenset((ax + i * dx, ay + i * dy) for i in range(k3 + 1))
    short_row = frozenset((i * dx, i * dy) for i in range(-k2, 1))
    return EdgePairSketch(long_row, short_row, u)


def invariants_from_covariogram(g: Covariogram) -> InvariantRecord:
    """The invariant record, read off g alone.

    The support's hull normals are the union of the edge normals of any
    realizing set and its reflection, and the edge signature of g is
    that of every realizing set, so the record is the set's own.
    """
    _require_planar(g)
    return _record(_edge_lines(g))


def reconstruct_all(g: Covariogram) -> list:
    """Canonical forms of every realizing spanning lattice-convex set, up
    to translation and point reflection, sorted.

    A realizing set has total mass |K| squared and |K| at the origin.
    It is one of the closings of the edge signature of g and |K|, and
    those whose covariogram is g realize it.  Each filled closing is
    packed once (_normal_pair), and kept, as its smaller list unpacked,
    when its _difference_counts are g's entries packed with its stride w:
    every closing has g's y-extent, so the first one's w packs g.  A g
    whose signature cannot be read, a degenerate support among them, has
    no realizing set.

    g fixes sum g(u) (ux^2, ux uy, uy^2), twice the _row_moments of every
    realizing chain, so once a second closing is met that target is read
    off g (_half_moments), and every closing from then on whose
    _row_moments differ is skipped before its points are built.  The
    first closing is filled anyway, which spares the target when g has
    one closing.
    """
    _require_planar(g)
    mass = g.mass
    n = isqrt(mass)
    # spanning needs 3 points; origin entry must be the cardinality
    if n * n != mass or n < 3 or g.entries[(0, 0)] != n:
        return []
    try:
        lines = _edge_lines(g)
    except LatticeError:
        return []
    hits, table, target = set(), None, None
    for chain in _closing_chains(lines, 2 * n):
        if table is not None:
            if target is None:
                target = _half_moments(g)
            if _row_moments(chain) != target:
                continue
        a, b, w = _normal_pair(_lattice_points_of_chain(chain))
        if table is None:
            table = {x * w + y: c for (x, y), c in g.entries.items()}
        if table == _difference_counts(a):
            hits.add(_unpack(min(a, b), w))
    return sorted(hits, key=sorted)


def _half_moments(g: Covariogram) -> tuple:
    """Half of sum g(u) (ux^2, ux uy, uy^2) over g's entries.  g(u) =
    g(-u), so each sum is even, and for a realizing set K it is
    _row_moments of K's chain."""
    xs, ys = zip(*g.entries)
    cx = list(map(mul, g.entries.values(), xs))
    cy = list(map(mul, g.entries.values(), ys))
    return (sum(map(mul, cx, xs)) // 2, sum(map(mul, cx, ys)) // 2,
            sum(map(mul, cy, ys)) // 2)


def determination_verdict(g: Covariogram, box_width: int | None = None,
                          box_height: int | None = None) -> str:
    """'unique', 'ambiguous(n)', 'out-of-box' or 'unrealizable' within
    the box; see verdict_of.  The box is checked before g is read."""
    _check_box(*(side for side in (box_width, box_height) if side is not None))
    return verdict_of(reconstruct_all(g), box_width, box_height)


def verdict_of(hits: list, box_width: int | None = None,
               box_height: int | None = None) -> str:
    """The determination verdict for the classes reconstruct_all found.

    'unrealizable' when there are none, and 'out-of-box' when none fits a
    box_width x box_height point grid; a side left None is unbounded.
    All realizing sets share one extent, half the support's, so either
    every class fits or none does.
    """
    box = (box_width, box_height)
    _check_box(*(side for side in box if side is not None))
    if not hits:
        return "unrealizable"
    if any(side is not None and e >= side
           for e, side in zip(extent(hits[0]), box)):
        return "out-of-box"
    if len(hits) == 1:
        return "unique"
    return f"ambiguous({len(hits)})"
