"""Edge-normal invariants of spanning lattice-convex planar sets.

For such a set K:

* the outer edge normals are the primitive outward normals of the hull
  edges (every hull edge carries at least two points of K);
* m_prime is the least point count over the edges;
* m_doubleprime is the least value of |F(K,u)| - |F(K,-u)| + 1 over
  directions u where an edge faces a strictly shorter opposite edge
  (both with more than one point), or infinity when no such pair exists;
* the discrepancy delta is max/min of the nonzero absolute determinants
  of pairs of normals.

All of these are recoverable from the covariogram alone, and the
certificate m >= delta^2 + delta + 1 forces the covariogram to determine
K up to translation and point reflection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import inf

from ._polygons import _signature
from .lattice import (
    Hull2,
    LatticeError,
    _convex_hull,
    _fills,
    _planar,
    det2,
    primitive,
)


@dataclass(frozen=True)
class InvariantRecord:
    """Covariogram-determined invariants of a spanning lattice-convex set.

    normals holds the outer edge normals of K and of -K together, so it
    is closed under negation.  m_prime and m are positive integers, and
    m_doubleprime is one or math.inf.  certified is the exact comparison
    m >= delta^2 + delta + 1.
    """

    normals: frozenset
    m_prime: int | float
    m_doubleprime: int | float
    m: int | float
    delta: Fraction
    det_set: frozenset
    certified: bool


def _lattice_convex_hull(K) -> Hull2:
    """Hull of K, refusing a set that is degenerate or not lattice-convex."""
    [pts] = _planar("convex hull requires dimension 2", K)
    hull = _convex_hull(pts)
    if hull.is_degenerate:
        raise LatticeError("degenerate set")
    if not _fills(hull, pts):
        raise LatticeError("set is not lattice-convex")
    return hull


def edge_normals(K) -> frozenset:
    """Primitive outward normals of the hull edges of K."""
    # CCW edge vector (dx, dy) has outward normal (dy, -dx)
    return frozenset(primitive((dy, -dx))
                     for dx, dy in _lattice_convex_hull(K).chain)


def discrepancy(normals) -> tuple[frozenset, Fraction]:
    """(det_set, delta): nonzero |det| values over pairs of normals and
    their max/min ratio."""
    return _discrepancy(*_planar("discrepancy requires dimension 2", normals))


def _discrepancy(normals) -> tuple[frozenset, Fraction]:
    dets = {abs(det2(u, v)) for u, v in combinations(normals, 2)}
    dets.discard(0)
    if not dets:
        raise LatticeError("degenerate set")
    return frozenset(dets), Fraction(max(dets), min(dets))


def _record(sig) -> InvariantRecord:
    """The invariant record of a set with edge signature sig, as
    _polygons._signature gives it: (line, q, p) for each edge line, with
    q <= p the lattice lengths of the two faces parallel to it (0 for a
    face that is a vertex).  A face of length f carries f + 1 points.
    """
    normals = frozenset(n for (dx, dy), _, _ in sig
                        for n in ((dy, -dx), (-dy, dx)))
    m_prime = min(q + 1 if q else p + 1 for _, q, p in sig)
    m_double = min((p - q + 1 for _, q, p in sig if p > q > 0), default=inf)
    det_set, delta = _discrepancy(normals)
    m = min(m_prime, m_double)
    return InvariantRecord(
        normals=normals,
        m_prime=m_prime,
        m_doubleprime=m_double,
        m=m,
        delta=delta,
        det_set=det_set,
        certified=m >= delta * delta + delta + 1,
    )


def invariants_direct(K) -> InvariantRecord:
    """Invariants computed from the set itself, through the edge
    signature of its hull."""
    return _record(_signature(_lattice_convex_hull(K).chain))


def delta_bound_check(normals, n: int) -> bool:
    """Exact check of delta <= 2 n^2 for normal sets drawn from the
    (2n+1) x (2n+1) coordinate window."""
    if not isinstance(n, int):
        raise LatticeError("window radius must be an integer")
    if n < 1:
        raise LatticeError("window radius must be positive")
    _, delta = discrepancy(normals)
    return delta <= 2 * n * n
