"""Recovery of structure from a covariogram alone.

Nothing in this module looks at a realizing set: inputs are covariogram
tables, and outputs are the difference set, boundary row pairs, the
invariant record, and (by bounded exhaustive search) every realizing
spanning lattice-convex set up to translation and point reflection.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isqrt

from ._polygons import _check_jobs, convex_classes
from .covariogram import Covariogram, compute_covariogram, support_of
from .invariants import InvariantRecord, _certified, discrepancy
from .lattice import (
    LatticeError,
    canonical_form,
    convex_hull,
    difference_set,
    extent,
    primitive,
    segment_lattice_points,
    spans_plane,
    support_set,
    vsub,
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


def diffset_from_covariogram(g: Covariogram) -> frozenset:
    """Support of g; equals the difference set of every realizing set."""
    _require_planar(g)
    return support_of(g)


def edge_pair_from_covariogram(g: Covariogram, u) -> EdgePairSketch:
    """Recover the boundary rows of a realizing set facing u and -u.

    Reads g along the extreme line of its support in direction u.  The
    profile there must be positive on a contiguous run and maximal on a
    contiguous subrun; the rows are rebuilt from the run boundaries.
    """
    _require_planar(g)
    u = tuple(u)
    if u == (0, 0):
        raise LatticeError("zero direction")
    if primitive(u) != u:
        raise LatticeError("direction must be primitive")
    D = support_of(g)
    E = support_set(D, u)
    if len(E) == 1:
        (e,) = E
        return EdgePairSketch(frozenset({e}), frozenset({(0, 0)}), u)
    lo = min(E)
    hi = max(E)
    pts = segment_lattice_points(lo, hi)
    vals = [g.value(p) for p in pts]
    if 0 in vals:
        # support not contiguous on its extreme line
        raise LatticeError("not realizable")
    vmax = max(vals)
    k2 = vals.index(vmax)
    k3 = len(vals) - 1 - vals[::-1].index(vmax)
    if any(vals[i] != vmax for i in range(k2, k3 + 1)):
        raise LatticeError("not realizable")
    long_row = frozenset(pts[: k3 + 1])
    short_row = frozenset(vsub(p, pts[k2]) for p in pts[: k2 + 1])
    return EdgePairSketch(long_row, short_row, u)


def invariants_from_covariogram(g: Covariogram) -> InvariantRecord:
    """The invariant record, read off g alone.

    The support's hull normals are the union of the edge normals of any
    realizing set and its reflection; each boundary row pair contributes
    its cardinalities exactly as the set's own edges would.
    """
    _require_planar(g)
    D = support_of(g)
    if not spans_plane(D):
        raise LatticeError("degenerate set")
    hull = convex_hull(D)
    normals = frozenset((d[1], -d[0]) for _, d, _ in hull.edges)
    m_prime: int | float = inf
    m_double: int | float = inf
    for u in sorted(normals):
        sketch = edge_pair_from_covariogram(g, u)
        a = len(sketch.long_row)
        b = len(sketch.short_row)
        if a == 1 and b == 1:
            continue
        m_prime = min(m_prime, b if b >= 2 else a)
        if a > b > 1:
            m_double = min(m_double, a - b + 1)
    det_set, delta = discrepancy(normals)
    m = min(m_prime, m_double)
    return InvariantRecord(
        normals=normals,
        m_prime=m_prime,
        m_doubleprime=m_double,
        m=m,
        delta=delta,
        det_set=det_set,
        certified=_certified(m, delta),
    )


def _support_box(g: Covariogram) -> tuple[int, int]:
    ex, ey = extent(support_of(g))
    return ex + 1, ey + 1


def reconstruct_all(g: Covariogram, box_width: int | None = None,
                    box_height: int | None = None, jobs: int = 1) -> list:
    """Canonical forms of every realizing spanning lattice-convex set that
    fits the box, up to translation and point reflection, sorted.

    Candidates are pruned by total mass (must be |K| squared) and by the
    difference set; the difference set constraint forces the tight extent
    of a realizing set to be exactly half the extent of the support, so
    only that slice of the enumeration is examined.
    """
    _require_planar(g)
    _check_jobs(jobs)
    dw, dh = _support_box(g)
    if box_width is None:
        box_width = dw
    if box_height is None:
        box_height = dh
    if box_width < 1 or box_height < 1:
        raise LatticeError("box dimensions must be positive")
    mass = g.mass
    n = isqrt(mass)
    # spanning needs 3 points; origin entry must be the cardinality
    if n * n != mass or n < 3 or g.entries[(0, 0)] != n:
        return []
    D = support_of(g)
    if not spans_plane(D):
        return []
    ex, ey = extent(D)
    if ex % 2 or ey % 2:
        return []
    tx, ty = ex // 2, ey // 2
    if tx == 0 or ty == 0 or tx > box_width - 1 or ty > box_height - 1:
        return []
    # covariogram entries are origin-centered vector data, so candidates
    # enumerated in box-corner position compare directly
    target = g.entries
    found = set()
    for K in convex_classes(tx, ty, jobs=jobs):
        if len(K) != n:
            continue
        if extent(K) != (tx, ty):
            continue
        if difference_set(K) != D:
            continue
        if compute_covariogram(K).entries == target:
            found.add(canonical_form(K))
    return sorted(found, key=sorted)


def determination_verdict(g: Covariogram, box_width: int | None = None,
                          box_height: int | None = None, jobs: int = 1) -> str:
    """'unique', 'ambiguous(n)', or 'unrealizable' within the box."""
    return verdict_of(reconstruct_all(g, box_width, box_height, jobs=jobs))


def verdict_of(hits: list) -> str:
    """The determination verdict for the classes reconstruct_all found."""
    if not hits:
        return "unrealizable"
    if len(hits) == 1:
        return "unique"
    return f"ambiguous({len(hits)})"
