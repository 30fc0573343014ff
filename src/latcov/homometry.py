"""Construction and verification of homometric pairs.

The engine is the width-one strip T(k, l): a row of k+1 points with a row
of l+1 points above it (k > l >= 0).  Its translates along the index
sublattice generated by w1 = (-k-1, 1) and w2 = (l+1, 1) tile the plane,
and |det(w1, w2)| = k + l + 2 = |T|.  WidthOneParams carries that
sublattice: membership, and coordinates in the basis (w1, w2), in closed
form.

For any S, the mirror pair (S + T, S + (-T)) of a direct sum has equal
covariograms; it is a nontrivial pair exactly when neither summand is
centrally symmetric.  The direct sum is lattice-convex precisely when S
is lattice-convex with respect to the sublattice and the hull edges of S
point along w1, w2 (and w1 + w2 when k = l + 1); for k = l + 1 the
admissible S form a hexagon family in sublattice coordinates, and
corollary_pair_generator is the one builder of its pairs, for the CLI's
gen-pair and for the search's matcher alike.

Every claimed property of a constructed pair is verified by computation
before it is reported, never assumed.  The public entries check their
sets once (lattice._planar) and call the private bodies _sums,
_mirror_pair and _condition_ii, which the builder calls directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._polygons import _faces
from .covariogram import _covariogram
from .lattice import (
    LatticeError,
    _canonical_form,
    _convex_hull,
    _fills,
    _normal_pair,
    _planar,
    point_set,
    vadd,
    vneg,
    vsub,
)


@dataclass(frozen=True)
class WidthOneParams:
    """Shape parameters of the strip: row lengths k+1 over l+1, k > l >= 0."""

    k: int
    ell: int

    def __post_init__(self):
        if not (isinstance(self.k, int) and isinstance(self.ell, int)):
            raise LatticeError("parameters must be integers")
        if not self.k > self.ell >= 0:
            raise LatticeError("parameters require k > l >= 0")

    @property
    def w1(self) -> tuple[int, int]:
        return (-self.k - 1, 1)

    @property
    def w2(self) -> tuple[int, int]:
        return (self.ell + 1, 1)

    @property
    def index(self) -> int:
        return self.k + self.ell + 2

    def contains(self, p) -> bool:
        """p lies in the sublattice generated by w1 and w2."""
        x, y = p
        return (x + (self.k + 1) * y) % self.index == 0

    def coords(self, p) -> tuple[int, int]:
        """The integers (i, j) with p = i w1 + j w2, for a sublattice member."""
        if not self.contains(p):
            raise LatticeError("point is not in the sublattice")
        x, y = p
        return (((self.ell + 1) * y - x) // self.index,
                (x + (self.k + 1) * y) // self.index)

    def from_coords(self, ij) -> tuple[int, int]:
        i, j = ij
        return ((self.ell + 1) * j - (self.k + 1) * i, i + j)


@dataclass(frozen=True)
class HexagonParams:
    """Sublattice-coordinate window a1 <= i <= a2, b1 <= j <= b2,
    g1 <= i - j <= g2; the window must be a nonempty region."""

    a1: int
    a2: int
    b1: int
    b2: int
    g1: int
    g2: int

    def __post_init__(self):
        if not all(isinstance(v, int) for v in vars(self).values()):
            raise LatticeError("parameters must be integers")
        if self.a1 > self.a2 or self.b1 > self.b2 or self.g1 > self.g2:
            raise LatticeError("empty parameter range")
        # i - j takes every value in [a1 - b2, a2 - b1]
        if max(self.a1 - self.b2, self.g1) > min(self.a2 - self.b1, self.g2):
            raise LatticeError("hexagon region is empty")

    def _rows(self) -> range:
        # the i whose j-range is nonempty
        return range(max(self.a1, self.b1 + self.g1),
                     min(self.a2, self.b2 + self.g2) + 1)

    def _width(self, i: int) -> int:
        return min(self.b2, i - self.g1) - max(self.b1, i - self.g2) + 1

    def region(self) -> list[tuple[int, int]]:
        return [(i, j) for i in self._rows()
                for j in range(max(self.b1, i - self.g2),
                               min(self.b2, i - self.g1) + 1)]

    def size(self) -> int:
        """len(region()) in O(1): the row width is linear in i between
        the breaks b2 + g1 and b1 + g2, so each piece is an arithmetic
        series."""
        rows = self._rows()
        cuts = sorted({rows.start, rows.stop} | {
            c for c in (self.b2 + self.g1 + 1, self.b1 + self.g2 + 1)
            if c in rows})
        return sum((e - s) * (self._width(s) + self._width(e - 1)) // 2
                   for s, e in zip(cuts, cuts[1:]))


@dataclass(frozen=True)
class MirrorPairReport:
    """A verified homometric pair and the witnesses it was built from.

    second is always built from base and the negation of mirrored, so the
    pair is (combine(base, mirrored), combine(base, -mirrored)).
    homometric and nontrivial are computed, and nontrivial is cross-checked
    against inequality of canonical forms.
    """

    first: frozenset
    second: frozenset
    base: frozenset
    mirrored: frozenset
    homometric: bool
    nontrivial: bool


def width_one_T(params: WidthOneParams) -> frozenset:
    """The strip: {0..k} x {0} together with {0..l} x {1}."""
    k, ell = params.k, params.ell
    row0 = {(i, 0) for i in range(k + 1)}
    row1 = {(i, 1) for i in range(ell + 1)}
    return frozenset(row0 | row1)


def _sums(S, T) -> tuple[frozenset, bool]:
    """The sum set S + T of two checked sets of one dimension, and whether
    the sum is direct: |S + T| = |S| |T|, i.e. all sums are distinct."""
    sums = frozenset(vadd(s, t) for s in S for t in T)
    return sums, len(sums) == len(S) * len(T)


def sum_is_direct(S, T) -> bool:
    return _sums(*_planar("dimension mismatch", S, T, dim=None))[1]


def direct_sum(S, T) -> frozenset:
    sums, direct = _sums(*_planar("dimension mismatch", S, T, dim=None))
    if not direct:
        raise LatticeError("sum not direct")
    return sums


def _verified_pair(first, second, base, mirrored, kind: str) -> MirrorPairReport:
    """The report for the pair (first, second) built from base and
    mirrored, once their covariograms are checked equal and the pair is
    checked nontrivial (neither summand is centrally symmetric: its two
    _normal_pair lists differ) exactly when its canonical forms differ."""
    if _covariogram(first) != _covariogram(second):
        raise AssertionError(f"{kind} pair failed the covariogram identity")
    nontrivial = not any(a == b for a, b, _ in map(_normal_pair, (base, mirrored)))
    if nontrivial != (_canonical_form(first) != _canonical_form(second)):
        raise AssertionError("nontriviality flag disagrees with canonical forms")
    return MirrorPairReport(first, second, base, mirrored, True, nontrivial)


def mirror_pair(S, T) -> MirrorPairReport:
    """Build and verify the pair (S + T, S + (-T)) of a direct sum."""
    return _mirror_pair(*_planar("dimension mismatch", S, T, dim=None))


def _mirror_pair(S, T) -> MirrorPairReport:
    first, direct = _sums(S, T)
    # S + T is direct iff S - S meets T - T only at the origin, and
    # T - T = (-T) - (-T): S + (-T) is direct exactly when S + T is
    if not direct:
        raise LatticeError("sum not direct")
    second = _sums(S, frozenset(map(vneg, T)))[0]
    return _verified_pair(first, second, S, T, "mirror")


def _in_strip(t, params: WidthOneParams) -> bool:
    """t in width_one_T(params), without building the strip."""
    x, y = t
    return (y == 0 and 0 <= x <= params.k) or (y == 1 and 0 <= x <= params.ell)


def decompose_plane(p, params: WidthOneParams) -> tuple[tuple[int, int], tuple[int, int]]:
    """Unique writing of a lattice point as sublattice member plus strip point.

    With r = (x + (k+1) y) mod (k + l + 2), p - (r, 0) and p - (r - k - 1, 1)
    lie in the sublattice, and one of the two is in the strip: O(1) in k."""
    [(p,)] = _planar("expected a planar point", (p,))
    r = (p[0] + (params.k + 1) * p[1]) % params.index
    hits = [(vsub(p, t), t) for t in ((r, 0), (r - params.k - 1, 1))
            if _in_strip(t, params) and params.contains(vsub(p, t))]
    if len(hits) != 1:
        raise AssertionError("plane decomposition must be unique")
    return hits[0]


_AXIS_DIRS = frozenset({(1, 0), (0, 1)})
_HEX_DIRS = frozenset({(1, 0), (0, 1), (1, 1)})


def condition_i(S, params: WidthOneParams) -> bool:
    """S sums directly with the strip and the sum is lattice-convex."""
    sums, direct = _sums(*_planar("dimension mismatch", S), width_one_T(params))
    return direct and _fills(_convex_hull(sums), sums)


def condition_ii(S, params: WidthOneParams) -> bool:
    """S is, up to translation, a sublattice-convex set whose hull edges
    point along the admissible strip directions."""
    return _condition_ii(*_planar("expected a planar set", S), params)


def _condition_ii(S, params: WidthOneParams) -> bool:
    # S anchored at its least point, in sublattice coordinates
    anchor = min(S)
    qs = [vsub(p, anchor) for p in S]
    if not all(map(params.contains, qs)):
        return False
    coords = frozenset(map(params.coords, qs))
    hull = _convex_hull(coords)
    if not _fills(hull, coords):
        return False
    # both direction sets name each line by its _upper side, as _faces does
    allowed = _HEX_DIRS if params.k == params.ell + 1 else _AXIS_DIRS
    return _faces(hull.chain).keys() <= allowed


def gs_graph_connected(S, params: WidthOneParams) -> bool:
    """Connectivity of S under steps by +-w1, +-w2 (and +-(w1+w2) when
    k = l + 1).  S must lie inside the sublattice itself."""
    [Sp] = _planar("expected a planar set", S)
    for p in Sp:
        if not params.contains(p):
            raise LatticeError("set is not contained in the sublattice")
    steps = [params.w1, vneg(params.w1), params.w2, vneg(params.w2)]
    if params.k == params.ell + 1:
        w12 = vadd(params.w1, params.w2)
        steps += [w12, vneg(w12)]
    start = min(Sp)
    seen = {start}
    frontier = [start]
    while frontier:
        p = frontier.pop()
        for s in steps:
            q = vadd(p, s)
            if q in Sp and q not in seen:
                seen.add(q)
                frontier.append(q)
    return len(seen) == len(Sp)


def product_pair(K, L) -> MirrorPairReport:
    """The pair (K x L, K x (-L)) in the product dimension, verified."""
    Kp = point_set(K)
    Lp = point_set(L)
    first = frozenset(a + b for a in Kp for b in Lp)
    second = frozenset(a + vneg(b) for a in Kp for b in Lp)
    return _verified_pair(first, second, Kp, Lp, "product")


def corollary_pair_generator(params: WidthOneParams, hexagon: HexagonParams) -> MirrorPairReport:
    """Mirror pair for a hexagon-family S; requires k = l + 1.

    The constructed pair is verified lattice-convex on both sides and the
    shape condition on S is checked rather than trusted.
    """
    if params.k != params.ell + 1:
        raise LatticeError("corollary_pair_generator requires k = l + 1")
    S = frozenset(params.from_coords(ij) for ij in hexagon.region())
    if not _condition_ii(S, params):
        raise AssertionError("hexagon region failed the shape condition")
    report = _mirror_pair(S, width_one_T(params))
    if not all(_fills(_convex_hull(P), P) for P in (report.first, report.second)):
        raise AssertionError("generated pair is not lattice-convex")
    return report
