"""Exhaustive search for homometric pairs among planar lattice-convex sets.

Enumeration walks translation classes of spanning lattice-convex sets
fitting a box as edge chains, buckets them by data the covariogram
determines, groups the colliding buckets by covariogram, and reports
every class with two or more members up to translation and point
reflection.  Each found pair can be matched, up to unimodular affine
maps of the lattice, against the hexagon-family mirror pairs of
width-one strips.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ._polygons import (
    _chain_key,
    _closing_chains,
    _lattice_points_of_chain,
    map_chains,
)
from .covariogram import compute_covariogram
from .homometry import (
    HexagonParams,
    WidthOneParams,
    corollary_pair_generator,
)
from .lattice import (
    AffineMap2,
    LatticeError,
    affine_witnesses,
    canonical_form,
    difference_set,
    is_centrally_symmetric,
    min_corner,
    point_set,
    vadd,
    vsub,
)

DESK_SCALE_LIMIT = 42


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


def enumerate_lattice_convex(width: int, height: int, jobs: int = 1):
    """Every spanning lattice-convex set whose tight bounding box fits a
    width x height point grid, once per translation class, box corner at
    the origin.  Streamed in shard order, the same for every jobs."""
    if width < 1 or height < 1:
        raise LatticeError("box dimensions must be positive")
    yield from map_chains(_lattice_points_of_chain, width - 1, height - 1, jobs)


def _keyed_chain(chain) -> tuple | None:
    """The bucket key of a chain, or None when fewer than six of its
    edge lines are free (faces of unequal length); module-level so pool
    workers run it."""
    if len(chain) < 6:
        return None
    key = _chain_key(chain)
    if sum(q != p for _, q, p in key[1]) < 6:
        return None
    return key


def homometric_classes(width: int, height: int, jobs: int = 1,
                       match: bool = False,
                       allow_large: bool = False) -> SearchReport:
    """Group the sets of a box by covariogram and report collisions.

    Homometric sets share |K| and the edge signature: for each edge line
    {u, -u}, the unordered lattice lengths of the two faces across it.
    Both are read off each enumerated edge chain without building any
    points, and only the number of chains per key is kept.  Only chains
    with six or more free lines (faces of unequal length) are keyed: two
    side assignments of one signature, other than a chain and its
    reflection, split the free lines into two zero-sum sets of steps,
    and nonzero steps on distinct lines need three to sum to zero.  Such
    a chain is never centrally symmetric, so a key walked four or more
    times holds two or more reflection classes.  Its sets are built from
    _closing_chains, one per class, and grouped by covariogram within
    the key, since a covariogram determines its key.  A class is
    interesting when it holds two or more distinct canonical forms, and
    every reported pair is re-verified.  total_classes counts every
    chain, one per translation class.
    """
    if width < 1 or height < 1:
        raise LatticeError("box dimensions must be positive")
    if width * height > DESK_SCALE_LIMIT and not allow_large:
        raise LatticeError(
            "box exceeds the desk-scale limit; pass allow_large=True to override")
    counts: dict = {}
    total = 0
    for key in map_chains(_keyed_chain, width - 1, height - 1, jobs):
        total += 1
        if key is not None:
            counts[key] = counts.get(key, 0) + 1
    found = []
    for (twice_n, sig), count in counts.items():
        if count < 4:
            continue
        by_covariogram: dict = {}
        for chain in _closing_chains(sig, twice_n):
            K = _lattice_points_of_chain(chain)
            fp = tuple(sorted(compute_covariogram(K).entries.items()))
            by_covariogram.setdefault(fp, set()).add(canonical_form(K))
        for forms in by_covariogram.values():
            if len(forms) < 2:
                continue
            members = tuple(sorted(forms, key=sorted))
            pairs = []
            for a, b in combinations(members, 2):
                if compute_covariogram(a) != compute_covariogram(b):
                    raise AssertionError(
                        "covariogram grouping failed re-verification")
                if canonical_form(a) == canonical_form(b):
                    raise AssertionError(
                        "distinct members share a canonical form")
                verdict = match_corollary(a, b) if match else None
                pairs.append(PairVerdict(a, b, verdict))
            found.append(HomometricClass(members, tuple(pairs)))
    found.sort(key=lambda c: sorted(c.members[0]))
    return SearchReport(width, height, total, tuple(found))


def _hexagon_candidates(size: int):
    """Hexagon windows holding exactly size points, one per translation
    class of the coordinate region, in deterministic order."""
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


def _translation_to(matrix, src, dst) -> tuple | None:
    """Shift t with {matrix p + t} = dst, or None."""
    img = frozenset((matrix[0][0] * p[0] + matrix[0][1] * p[1],
                     matrix[1][0] * p[0] + matrix[1][1] * p[1]) for p in src)
    t = vsub(min_corner(dst), min_corner(img))
    if frozenset(vadd(p, t) for p in img) == dst:
        return t
    return None


def match_corollary(K, L) -> CorollaryMatch | None:
    """Match a nontrivially homometric pair against the hexagon family.

    Tries every strip size k = l + 1 whose size 2k + 1 divides |K|, and
    every hexagon window of the right cardinality, each candidate built
    by corollary_pair_generator; a match needs one unimodular matrix
    carrying K and L onto a nontrivial generated pair (in either order),
    with translations free per member and the second member also allowed
    a point reflection, since members are only determined up to their
    class."""
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
        for hx in _hexagon_candidates(n // params.index):
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


def _tilings(K0: frozenset, tile: tuple, positions: list):
    """Exact-cover enumeration: position sets whose tile translates
    partition K0."""
    pos_cover = {}
    for s in positions:
        pos_cover[s] = frozenset(vadd(s, t) for t in tile)

    def rec(uncovered, chosen):
        if not uncovered:
            yield frozenset(chosen)
            return
        p = min(uncovered)
        for t in tile:
            s = vsub(p, t)
            cover = pos_cover.get(s)
            if cover is not None and cover <= uncovered:
                chosen.append(s)
                yield from rec(uncovered - cover, chosen)
                chosen.pop()

    yield from rec(frozenset(K0), [])


def constructibility_search(K, L, t_max: int = 12,
                            require_nontrivial: bool = False):
    """Look for S and a tile T with K = S + T directly and S + (-T) in
    the class of L.  Bounded by t_max, so a None is not a proof of
    impossibility.

    Candidate tiles anchor their lexicographic minimum at the one of K,
    must have size dividing |K|, and must fit the difference set of K;
    each is tried by exact-cover tiling."""
    Kp = point_set(K)
    Lp = point_set(L)
    if len(next(iter(Kp))) != 2 or len(next(iter(Lp))) != 2:
        raise LatticeError("dimension")
    if compute_covariogram(Kp) != compute_covariogram(Lp):
        raise LatticeError("pair is not homometric")
    n = len(Kp)
    anchor = min(Kp)
    K0 = frozenset(vsub(p, anchor) for p in Kp)
    DK0 = difference_set(K0)
    canon_L = canonical_form(Lp)
    rest = sorted(K0 - {(0, 0)})
    for size in range(2, min(t_max, n) + 1):
        if n % size:
            continue
        for combo in combinations(rest, size - 1):
            tile = ((0, 0),) + combo
            if not difference_set(tile) <= DK0:
                continue
            tileset = frozenset(tile)
            positions = [s for s in sorted(K0)
                         if all(vadd(s, t) in K0 for t in tile)]
            if len(positions) * size < n:
                continue
            for S in _tilings(K0, tile, positions):
                mirror = frozenset(vsub(s, t) for s in S for t in tile)
                if len(mirror) != n:
                    continue
                if canonical_form(mirror) != canon_L:
                    continue
                if require_nontrivial and (is_centrally_symmetric(S)
                                           or is_centrally_symmetric(tileset)):
                    continue
                return (frozenset(vadd(s, anchor) for s in S), tileset)
    return None
