"""Discrete covariograms of finite lattice sets.

The covariogram of K maps each vector u to |K meet (K+u)|, the overlap
count of K with its own translate.  It is symmetric under negation, is
supported exactly on the difference set of K, and peaks at the origin
with value |K|.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType

from .lattice import LatticeError, _int_points, _planar, _trusted, point_set, vadd, vneg


@dataclass(frozen=True, eq=True)
class Covariogram:
    """Table of overlap counts, keyed by lattice vector.

    Entries store u and -u redundantly.  Integer keys, symmetry, positive
    counts, and a present and maximal origin entry are all checked at
    construction time, on a private copy of the entries that is then
    kept read-only; an object of this type is always a structurally
    valid covariogram (though not necessarily realizable by any set).
    """

    dim: int
    entries: dict

    def __post_init__(self):
        if not isinstance(self.dim, int):
            raise LatticeError("invalid covariogram: dimension must be an integer")
        e = dict(self.entries)
        object.__setattr__(self, "entries", MappingProxyType(e))
        # The keys are checked first, and an empty table builds no
        # origin, so the origin is never longer than a key that was given.
        _int_points(e)
        if any(len(u) != self.dim for u in e):
            raise LatticeError("invalid covariogram: mixed dimensions")
        peak = e.get((0,) * self.dim) if e else None
        if peak is None:
            raise LatticeError("invalid covariogram: origin entry missing")
        # In the plane -u is built directly, not by vneg's generic tuple.
        negs = ([(-x, -y) for x, y in e] if self.dim == 2 else map(vneg, e))
        for (u, c), neg in zip(e.items(), negs):
            if type(c) is not int or c <= 0:
                raise LatticeError("invalid covariogram: counts must be positive integers")
            if c > peak:
                raise LatticeError("invalid covariogram: origin entry is not maximal")
            if e.get(neg) != c:
                raise LatticeError("invalid covariogram: not symmetric under negation")

    @property
    def mass(self) -> int:
        return sum(self.entries.values())

    def value(self, u) -> int:
        [(u,)] = _planar("vector has the wrong dimension", (u,), dim=self.dim)
        return self.entries.get(u, 0)


def compute_covariogram(K) -> Covariogram:
    """Covariogram of a finite set, by counting ordered difference pairs."""
    return _covariogram(point_set(K))


def _covariogram(pts) -> Covariogram:
    pts = list(pts)
    d = len(pts[0])
    if d == 2:
        counts = Counter((a[0] - b[0], a[1] - b[1]) for a in pts for b in pts)
    else:
        counts = Counter(tuple(x - y for x, y in zip(a, b)) for a in pts for b in pts)
    # a dict copy: a Counter's lookup gives 0 for a missing key
    return _trusted(Covariogram, dim=d, entries=MappingProxyType(dict(counts)))


def support_of(g: Covariogram) -> frozenset:
    """Vectors with positive count; equals the difference set of any
    realizing set."""
    # From a dict copy, frozenset reuses the stored hashes; from the
    # read-only view it would hash every key again.
    return frozenset(g.entries.copy())


def convolve(g1: Covariogram, g2: Covariogram) -> Covariogram:
    """Convolution of two covariograms.

    When S and T sum directly, the covariogram of the direct sum is the
    convolution of the summands' covariograms.
    """
    if g1.dim != g2.dim:
        raise LatticeError("dimension mismatch")
    out: Counter = Counter()
    for v, cv in g1.entries.items():
        for w, cw in g2.entries.items():
            out[vadd(v, w)] += cv * cw
    return Covariogram(g1.dim, out)
