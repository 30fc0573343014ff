"""Seeded input generation for the benchmark, in plain stdlib Python.

Nothing here calls into latcov: the inputs of both commits under
comparison must be identical even when a change reorders latcov's own
enumeration, so the sets, covariograms and canonical forms used as
inputs and as expected answers are all computed by this module.
"""

from __future__ import annotations

import random
from collections import Counter


def hull(points) -> list:
    """Strict convex hull vertices, counterclockwise (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def fill(vertices) -> frozenset:
    """Lattice points of the convex polygon with these CCW vertices, by
    scanning its bounding box.  Only used on small coordinates."""
    n = len(vertices)
    halves = []
    for i, (ax, ay) in enumerate(vertices):
        bx, by = vertices[(i + 1) % n]
        halves.append((-(by - ay), bx - ax, (by - ay) * ax - (bx - ax) * ay))
    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    return frozenset(
        (x, y)
        for x in range(min(xs), max(xs) + 1)
        for y in range(min(ys), max(ys) + 1)
        if all(a * x + b * y + c >= 0 for a, b, c in halves))


def covariogram(K) -> dict:
    """Overlap counts |K meet (K+u)| keyed by u, as a plain dict."""
    return dict(Counter((a[0] - b[0], a[1] - b[1]) for a in K for b in K))


def canonical(K) -> frozenset:
    """Representative of K under translations and point reflection: K or
    -K moved to the origin corner, whichever sorts first."""
    def corner(P):
        mx = min(p[0] for p in P)
        my = min(p[1] for p in P)
        return sorted((x - mx, y - my) for x, y in P)

    a = corner(K)
    b = corner([(-x, -y) for x, y in K])
    return frozenset(a if a <= b else b)


def extent(K) -> tuple:
    xs = [p[0] for p in K]
    ys = [p[1] for p in K]
    return max(xs) - min(xs), max(ys) - min(ys)


def transpose(K) -> frozenset:
    return frozenset((y, x) for x, y in K)


def random_convex(rng: random.Random, tx: int, ty: int,
                  size: int | None = None, inner: bool = False) -> frozenset:
    """A spanning lattice-convex set whose tight bounding box is exactly
    [0, tx] x [0, ty]: the lattice points of the hull of one point on
    each side of the box plus a few points inside it.  Drawn again until
    it has size points, if size is given, and a point that is not a
    hull vertex, if inner is true."""
    while True:
        seeds = [(0, rng.randint(0, ty)), (tx, rng.randint(0, ty)),
                 (rng.randint(0, tx), 0), (rng.randint(0, tx), ty)]
        seeds += [(rng.randint(0, tx), rng.randint(0, ty))
                  for _ in range(rng.randint(0, 3))]
        vs = hull(seeds)
        if len(vs) < 3:
            continue
        K = fill(vs)
        if size is not None and len(K) != size:
            continue
        if inner and len(K) == len(vs):
            continue
        return K


def non_vertex_points(K) -> list:
    """Points of K that are not hull vertices, sorted.  Removing one
    leaves the hull unchanged, so the rest is not lattice-convex."""
    return sorted(K - set(hull(K)))


def minus_inner_point(rng: random.Random, K) -> frozenset:
    """K minus one of its non-vertex points."""
    return K - {rng.choice(non_vertex_points(K))}


def shear_far(K, s: int, axis: int, corner: tuple) -> frozenset:
    """Image of K under the unimodular shear x += s*y (axis 0) or
    y += s*x (axis 1), translated so its bounding box corner is corner."""
    if axis == 0:
        img = [(x + s * y, y) for x, y in K]
    else:
        img = [(x, y + s * x) for x, y in K]
    mx = min(p[0] for p in img)
    my = min(p[1] for p in img)
    return frozenset((x - mx + corner[0], y - my + corner[1]) for x, y in img)


def _parse(text: str) -> frozenset:
    return frozenset(tuple(int(c) for c in p.split(",")) for p in text.split(";"))


# The twelve nontrivially homometric pairs of lattice-convex sets fitting
# the 6x5 box, one per class, as the box search reports them.  Each pair
# is re-verified with this module's own code before use (see tests).
_PAIRS_6X5 = """\
0,0;0,1;0,2;1,0;1,1;1,2;2,1;2,2;2,3;3,2;3,3;4,2;4,3;5,3;5,4 0,0;0,1;0,2;1,1;1,2;1,3;2,1;2,2;2,3;3,2;3,3;4,3;4,4;5,3;5,4
0,0;0,1;1,0;1,1;1,2;1,3;2,1;2,2;2,3;3,1;3,2;3,3;4,1;4,2;5,2 0,0;1,0;1,1;1,2;2,0;2,1;2,2;2,3;3,1;3,2;3,3;4,1;4,2;5,1;5,2
0,0;0,1;1,0;1,1;2,1;2,2;3,2;4,2;5,3 0,0;0,1;1,1;1,2;2,1;2,2;3,2;4,3;5,3
0,0;0,1;1,1;1,2;1,3;2,1;2,2;2,3;3,2 0,0;1,0;1,1;1,2;2,1;2,2;2,3;3,1;3,2
0,0;0,1;1,1;1,2;1,3;2,1;2,2;2,3;3,2;3,3;3,4;4,2;4,3;4,4;5,3 0,0;1,0;1,1;1,2;2,1;2,2;2,3;3,1;3,2;3,3;4,2;4,3;4,4;5,2;5,3
0,1;0,2;1,0;1,1;1,2;1,3;1,4;2,1;2,2;2,3;2,4;3,1;3,2;3,3;4,2 0,1;1,0;1,1;1,2;1,3;2,0;2,1;2,2;2,3;2,4;3,1;3,2;3,3;4,1;4,2
0,1;0,2;1,1;1,2;1,3;2,0;2,1;2,2;2,3;2,4;3,0;3,1;3,2;3,3;4,1 0,2;0,3;1,0;1,1;1,2;1,3;1,4;2,0;2,1;2,2;2,3;3,1;3,2;3,3;4,2
0,1;0,2;1,1;1,2;1,3;2,0;2,1;2,2;3,0 0,2;0,3;1,0;1,1;1,2;2,0;2,1;2,2;3,1
0,1;0,2;1,1;1,2;2,1;2,2;2,3;3,0;3,1;3,2;3,3;4,0;4,1;4,2;5,0 0,2;0,3;1,0;1,1;1,2;1,3;2,0;2,1;2,2;3,0;3,1;3,2;4,1;4,2;5,1
0,2;0,3;0,4;1,1;1,2;1,3;2,1;2,2;2,3;3,1;3,2;4,0;4,1;5,0;5,1 0,2;0,3;0,4;1,2;1,3;1,4;2,1;2,2;2,3;3,1;3,2;4,1;4,2;5,0;5,1
0,2;0,3;1,1;1,2;2,1;2,2;3,1;4,0;5,0 0,2;0,3;1,2;1,3;2,1;2,2;3,1;4,1;5,0
0,2;0,3;1,2;1,3;1,4;2,1;2,2;2,3;3,1;3,2;3,3;4,0;4,1;4,2;5,0 0,3;0,4;1,1;1,2;1,3;2,1;2,2;2,3;3,0;3,1;3,2;4,0;4,1;4,2;5,1
"""


def known_pairs() -> list:
    """The twelve 6x5 pairs, as (first, second) frozensets."""
    return [tuple(_parse(m) for m in line.split())
            for line in _PAIRS_6X5.splitlines()]
