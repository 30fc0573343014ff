"""Strictly convex lattice polygons as edge-vector chains.

A strictly convex lattice polygon, up to translation, is exactly a set of
nonzero integer edge vectors, at most one per direction ray, summing to
zero, with at least three rays used; walking the vectors sorted by angle
traverses the boundary counterclockwise.  A chain gives the polygon's
lattice points, or its edge signature without them.

walk_chains walks every chain fitting a box, in one process.  It chooses
an increasing-angle subsequence of candidate vectors: each step picks
the next chosen ray, latest first, and one of its vectors.  A step is
pruned when the partial vertex chain grows wider than the box, or when
the later rays cannot sum (clipped to the box) to the displacement that
closes the chain.  One dict, the reach index (_reach_index), answers
that: it maps each displacement to the greatest ray index from which the
rays can still sum to it.  So a step to the vertex v on ray j passes
when -v's index t exceeds j, and the next step scans only the rays t
down to j + 1, since a ray above t cannot be the next edge of a chain
that closes.  A chain that closes is emitted and not extended, since the
rays after it lie in an open half-plane.  The chains come root by root
in angle order, the root being the first ray, an upper one, as edges
with dy <= 0 alone cannot close: y rises, then falls back to 0.  The
index keeps y in [-lim_y, 0], so the reach test alone keeps every vertex
at 0 <= y <= lim_y, and a step leaves the box only in x.  The same walk,
with parts, takes only the chains with no two parallel edges, one of
each pair +-A, by banning the line of every chosen ray and the lines
below the first; the prune still holds, as the reachable sums only
over-approximate.  Each part comes with the bitmask of its lines and its
extent, and is walked only while it can pair with a line-disjoint part
beside it in the box one larger (_partner_test): a partial chain's
extent and lines only grow, so once no partner fits, none fits any chain
that completes it.

count_chains counts walk_chains' chains without walking them, by a
knapsack on their x and y extents (in closed form at an extent of 1).
A chain has three rays, so both answer an extent below 1 at once.

The module owns the edge signature: _upper names a line {v, -v} by its
side in the open upper half-plane or on the +x ray, _faces reads a
chain's two face lengths per line, _signature lists them as (line, q, p)
in angle order, and _closing_chains, for reconstruction, goes back from
such a signature and 2|K| to its chains, each in angle order.  All
closings of one signature share its boundary count, so Pick's theorem
tests them by area alone.  Homometric sets share their second moments,
sum g(u) u u^T = 2 (n sum p p^T - sum p sum p^T), which _row_moments
sums over the row bounds of _rows without building a point, the rows
that the fill (_lattice_points_of_chain) lists.  They share their
extent (w, h) too, half that of g's support, and so the sums of g over
u_y = h - 1 and over u_x = w - 1, which are l_0 l_(h-1) + l_1 l_h for
the lengths l_t of the rows y = t, and the same over the columns;
_end_rows reads either from the edges that meet the two end rows, in
O(edges).  Filled sets are told apart by their packed difference
counts, in lattice.
"""

from __future__ import annotations

from functools import cmp_to_key, reduce
from math import gcd
from operator import or_


def _upper(v) -> bool:
    """v is the side that names the line {v, -v}: in the open upper
    half-plane or on the +x ray."""
    return v[1] > 0 or (v[1] == 0 and v[0] > 0)


def _angle_cmp(a, b):
    # Counterclockwise from the positive x axis: the _upper side first.
    ua, ub = _upper(a), _upper(b)
    if ua != ub:
        return ub - ua
    c = a[0] * b[1] - a[1] * b[0]
    return -1 if c > 0 else (1 if c < 0 else 0)


def _ray_groups(max_dx: int, max_dy: int) -> list[list[tuple[int, int]]]:
    """Candidate edge vectors bucketed by direction ray, rays sorted by angle,
    vectors within a ray sorted by length."""
    rays: dict = {}
    for dx in range(-max_dx, max_dx + 1):
        for dy in range(-max_dy, max_dy + 1):
            if dx == 0 and dy == 0:
                continue
            g = gcd(abs(dx), abs(dy))
            rays.setdefault((dx // g, dy // g), []).append((dx, dy))
    order = sorted(rays, key=cmp_to_key(_angle_cmp))
    return [sorted(rays[r], key=lambda v: abs(v[0]) + abs(v[1])) for r in order]


def _reach_index(groups, lim_x: int, lim_y: int) -> dict:
    """The reach index of groups: each displacement d within
    [-lim_x, lim_x] x [-lim_y, 0] that one vector per ray at most, from
    the rays groups[j], groups[j + 1], ... alone, can reach, mapped to the
    greatest such j (len(groups) for (0, 0), the empty sum).  The sets of
    such sums shrink as j grows, so d is reachable from ray j on exactly
    when index.get(d, -1) >= j.  The y bound lets the reach test alone
    keep every vertex at 0 <= y <= lim_y.  No chain is lost: a run of a
    box chain's edges sums to a difference of two vertices, the walk
    reads -v for a vertex v, and, built from the last ray back, a sum
    only rises in y once the upper rays join."""
    index = {(0, 0): len(groups)}
    for j in range(len(groups) - 1, -1, -1):
        for d in [(sx + dx, sy + dy) for dx, dy in groups[j] for sx, sy in index
                  if -lim_x <= sx + dx <= lim_x and -lim_y <= sy + dy <= 0]:
            index.setdefault(d, j)
    return index


def _chains_from_root(groups, index, lim_x, root, can_pair=None):
    """Yield the closed convex chains whose lowest-angle ray is
    groups[root], an upper ray, as lists of edge vectors in angle order,
    one at a time.  index is the reach index of groups (_reach_index):
    a step to the vertex v on ray j passes when -v is reachable from the
    later rays, index.get(-v, -1) = t > j.  That test alone keeps every
    vertex at 0 <= y <= the index's lim_y, so only the x-extent is
    tested.  The next step from v scans only the rays t, t - 1, ...,
    j + 1, latest first: a vector w of a later ray k passes only when
    -v - w is reachable from the rays after k, and then -v, which the
    index holds, is reachable from k on, so k <= t.  The chains come as
    from a scan of every later ray, in the same order.

    With can_pair, yield instead (chain, lines, (ex, ey)) for the chains
    with no two parallel edges, one of each pair +-A: bit i of lines is
    set when the chain has an edge on the line of groups[i], and its
    extent (ex, ey) is (max x - min x, max y).  The rays come as the U
    rays of the upper side, then their negatives in the same order, so
    groups[i] and groups[i + U] share line i.  A chosen ray bans its line,
    and the walk starts with the lines below the root banned: only the
    sign whose lowest line is used on its upper side is walked.  A partial
    chain's extent and lines only grow at each step, the root's too, so
    one whose extent and lines fail can_pair(ex, ey, lines) is dropped
    with every chain that completes it."""
    half = len(groups) // 2
    bits = [1 << (j % half) if can_pair else 0 for j in range(len(groups))]
    # The lines of a part: its used bits, less the banned ones below root.
    keep = -1 << root
    chosen: list = []

    def rec(rays, x, y, mnx, mxx, mxy, used):
        # Next chosen ray j, latest first, then its vectors by length.
        for j in rays:
            if used & bits[j]:
                continue
            for dx, dy in groups[j]:
                nx, ny = x + dx, y + dy
                t = index.get((-nx, -ny), -1)
                if t <= j:
                    continue
                nmnx = nx if nx < mnx else mnx
                nmxx = nx if nx > mxx else mxx
                if nmxx - nmnx > lim_x:
                    continue
                nmxy = ny if ny > mxy else mxy
                nused = used | bits[j]
                if can_pair and not can_pair(nmxx - nmnx, nmxy, nused & keep):
                    continue
                chosen.append((dx, dy))
                if nx or ny:
                    # t is a ray: only (0, 0) is indexed len(groups)
                    yield from rec(range(t, j, -1), nx, ny, nmnx, nmxx, nmxy,
                                   nused)
                elif len(chosen) >= 3:
                    yield ((chosen.copy(), nused & keep, (nmxx - nmnx, nmxy))
                           if can_pair else chosen.copy())
                chosen.pop()

    yield from rec((root,), 0, 0, 0, 0, 0, ~keep if can_pair else 0)


def _partner_test(groups, dx: int, dy: int):
    """can_pair(ex, ey, lines) for the part walk on groups, at
    (dx - 1, dy - 1), of a box of extent (dx, dy): False only when no
    part of extent at most the leftover (dx - ex, dy - ey) avoids every
    line of lines, so that no part of extent at least (ex, ey) on those
    lines can pair in the box.

    The table holds the parts of extent at most (dx // 2, dy // 2), one
    of each pair +-B (both have B's extent and lines), walked on groups'
    own rays and lines, each ray clipped to that bound (a ray left with
    no vector keeps its index).  It answers exactly when the leftover
    lies within that bound, as it does for every chain at least half the
    box wide and tall; any other query passes.  Answers are kept per
    leftover and the lines that its parts use, for the one walk."""
    hx, hy = dx // 2, dy // 2
    groups = [[(x, y) for x, y in group if abs(x) <= hx and abs(y) <= hy]
              for group in groups]
    index = _reach_index(groups, hx, hy)
    # masks[lx, ly]: the line masks of the table's parts that fit (lx, ly)
    masks: dict = {(lx, ly): set() for lx in range(1, hx + 1)
                   for ly in range(1, hy + 1)}
    for root in range(len(groups) // 2):
        for _, mask, (ex, ey) in _chains_from_root(
                groups, index, hx, root, lambda ex, ey, lines: True):
            for (lx, ly), fitting in masks.items():
                if ex <= lx and ey <= ly:
                    fitting.add(mask)
    # Only the lines that some fitting part uses can block one.
    seen = {leftover: reduce(or_, fitting, 0)
            for leftover, fitting in masks.items()}
    answers: dict = {}

    def can_pair(ex, ey, lines):
        lx, ly = dx - ex, dy - ey
        if lx > hx or ly > hy:
            return True
        lines &= seen[lx, ly]
        key = (lx, ly, lines)
        ok = answers.get(key)
        if ok is None:
            ok = answers[key] = any(not m & lines for m in masks[lx, ly])
        return ok

    return can_pair


def _rows(chain) -> tuple:
    """(i, ex, ey, fx, fy, lo, hi): the rows of the polygon traced by a
    closed convex chain.  chain[i] is its longest edge, of lattice length
    g and primitive direction e, from the vertex v; f completes e to a
    unimodular basis, and row t holds the polygon's lattice points
    v + s*e + t*f with lo[t] <= s <= hi[t].

    The basis change has det 1, so the chain stays counterclockwise in
    (s, t): from v it runs along e on row 0 (lo = 0, hi = g), then each
    later edge (ds, dt) from (s, t) rises, giving the rows t + k, k = 1,
    ..., dt, their upper bounds s + floor(ds k / dt), or falls, giving
    the rows t - k, k = 0, ..., -dt - 1, their lower bounds
    s + ceil(ds k / -dt): each row's exact bounds come from the one edge
    of each side that spans it.  There are at most 2*area + 1 rows, so
    the cost is O(rows + edges) whatever the size of the coordinates.
    """
    lengths = [gcd(dx, dy) for dx, dy in chain]
    g = max(lengths)
    i = lengths.index(g)
    ex, ey = chain[i]
    ex, ey = ex // g, ey // g
    u = pow(ex, -1, abs(ey)) if ey else ex      # ex*u + ey*v == 1
    v = (1 - ex * u) // ey if ey else 0
    fx, fy = -v, u                              # det(e, f) == 1
    s = g
    hi = [g]
    lo = []                                     # from the top row down
    for dx, dy in chain[i + 1:] + chain[:i]:
        ds, dt = dx * fy - dy * fx, ex * dy - ey * dx
        if dt > 0:
            hi += [s + ds * k // dt for k in range(1, dt + 1)]
        elif dt < 0:
            # ceil is -floor(-x)
            lo += [s - (-ds * k // -dt) for k in range(-dt)]
        s += ds
    lo.append(0)
    lo.reverse()
    return i, ex, ey, fx, fy, lo, hi


def _lattice_points_of_chain(chain, corner=(0, 0)) -> frozenset:
    """Lattice points of the polygon traced by a closed convex chain,
    translated so the bounding box corner sits at corner, in
    O(|K| + rows + edges), row by row of its _rows."""
    i, ex, ey, fx, fy, lo, hi = _rows(chain)
    x = y = mnx = mny = 0
    for dx, dy in chain[i:] + chain[:i]:
        x += dx
        y += dy
        mnx = x if x < mnx else mnx
        mny = y if y < mny else mny
    pts = []
    bx, by = corner[0] - mnx, corner[1] - mny
    for a, b in zip(lo, hi):
        pts.extend((bx + s * ex, by + s * ey) for s in range(a, b + 1))
        bx += fx
        by += fy
    return frozenset(pts)


def _row_moments(chain) -> tuple:
    """(n Sxx - Sx^2, n Sxy - Sx Sy, n Syy - Sy^2) of the n lattice points
    of the polygon traced by a closed convex chain, without building them.

    These central moments are translation invariant and are half of
    sum g(u) (ux^2, ux uy, uy^2) over the covariogram g.  Each row t of
    _rows, with bounds [a, b], adds its count and its sums of s, s^2,
    s t, t and t^2 in closed form; x = s ex + t fx and y = s ey + t fy
    take the central moments in (s, t) to those in (x, y).  Exact
    integer arithmetic in O(rows + edges)."""
    _, ex, ey, fx, fy, lo, hi = _rows(chain)
    # n, 2 sum s, 6 sum s^2, 2 sum s t, sum t, sum t^2 over the rows
    n = s1 = s2 = st = t1 = t2 = 0
    for t, (a, b) in enumerate(zip(lo, hi)):
        c = b - a + 1
        twice = (a + b) * c
        n += c
        s1 += twice
        s2 += c * (2 * (a * a + a * b + b * b) + b - a)
        st += t * twice
        t1 += t * c
        t2 += t * t * c
    mss = (2 * n * s2 - 3 * s1 * s1) // 12
    mst = (n * st - s1 * t1) // 2
    mtt = n * t2 - t1 * t1
    return (ex * ex * mss + 2 * ex * fx * mst + fx * fx * mtt,
            ex * ey * mss + (ex * fy + ey * fx) * mst + fx * fy * mtt,
            ey * ey * mss + 2 * ey * fy * mst + fy * fy * mtt)


def _end_rows(chain, axis: int) -> int:
    """l_0 l_(h-1) + l_1 l_h for the lengths l_t of the rows y = t (axis
    1), or of the columns x = t (axis 0), t = 0..h, of the polygon traced
    by a closed convex chain: sum g(u) over u_y = h - 1 (u_x = w - 1) for
    its covariogram g, as two points that far apart lie in rows 0 and
    h - 1 or 1 and h.  O(edges), without its points or rows.

    The chain must be in angle order from any of its vertices, as every
    chain _splits tests is (from its bottom-left one).  In the frame
    (o, c) = (x, y), or the rotated (-y, x) for columns, an end row is
    met where c turns: it holds a face of f steps (f = 0 at a vertex), so
    f + 1 points, and the row next to it is spanned by the edge (do, dc)
    after the turn and the edge (do', dc') before it, so it holds
    f + floor(do / dc) + floor(-do' / dc') + 1, at either end; the sum
    is symmetric in the two ends."""
    oi, s = 1 - axis, 1 if axis else -1
    last = chain[-1]
    prev, face = (last, 0) if last[axis] else (chain[-2], abs(last[oi]))
    first = None
    for e in chain:
        c, pc = e[axis], prev[axis]
        if not c:
            face = abs(e[oi])
            continue
        if (c > 0) != (pc > 0):
            row = face + s * e[oi] // c + -s * prev[oi] // pc + 1
            if first:
                return first[0] * row + first[1] * (face + 1)
            first, face = (face + 1, row), 0
        prev = e


def _faces(chain) -> dict:
    """Per line d (its _upper side) parallel to an edge of a closed convex
    chain, the lattice lengths [along d, along -d] of its two faces (0
    for a vertex), whatever the order of the edges."""
    faces: dict = {}
    for dx, dy in chain:
        g = gcd(dx, dy)
        if _upper((dx, dy)):
            faces.setdefault((dx // g, dy // g), [0, 0])[0] = g
        else:
            faces.setdefault((-dx // g, -dy // g), [0, 0])[1] = g
    return faces


def _twice_area(chain) -> int:
    """Twice the shoelace area of a closed chain in angle order."""
    x = y = twice_area = 0
    for dx, dy in chain:
        twice_area += x * dy - y * dx
        x, y = x + dx, y + dy
    return twice_area


def _signature(chain) -> tuple:
    """The edge signature of the polygon traced by a closed convex chain,
    without building any points: (line, q, p) for each line of _faces,
    in angle order, with q <= p its two face lengths.  The covariogram
    of the set determines it.
    """
    faces = _faces(chain)
    return tuple((line, min(faces[line]), max(faces[line]))
                 for line in sorted(faces, key=cmp_to_key(_angle_cmp)))


def _signed_sums(steps: list, start, first_bit: int) -> list:
    """(start plus or minus each step, mask) for every choice of signs;
    bit first_bit + i of mask is set when step i is subtracted."""
    out = [(start, 0)]
    for i, (sx, sy) in enumerate(steps, first_bit):
        out = [o for (x, y), m in out
               for o in (((x + sx, y + sy), m),
                         ((x - sx, y - sy), m | 1 << i))]
    return out


def _closing_chains(lines, twice_n: int):
    """Yield the edge chain, in angle order, of every polygon with the edge
    signature lines and 2|K| = twice_n, one of each point-reflection pair.

    A line (d, q, p) with q != p gives edges p*d and -q*d, or reversed,
    q*d and -p*d; the chain closes iff the steps +-(p - q)*d sum to zero.
    Reflection reverses every line, so the first such line is never
    reversed.  The others are split in two halves whose sums are matched
    through a dict: 2^(r/2) sums for r such lines, not 2^(r-1).  Every d
    is on the _upper side and the lines come in angle order, so a chain
    is its edges along each d, then its edges along each -d, both in
    the order of the lines.  All chains of one signature share their
    widths in every direction, so they fit the same boxes, and their
    boundary count, so Pick's theorem tests each closing by its area
    alone.
    """
    twice_area = twice_n - 2 - sum(p + q for _, q, p in lines)
    free = [line for line in lines if line[1] != line[2]]
    steps = [((p - q) * dx, (p - q) * dy) for (dx, dy), q, p in free]
    mid = (len(steps) + 1) // 2
    left: dict = {}
    first = steps[0] if steps else (0, 0)
    for net, mask in _signed_sums(steps[1:mid], first, 1):
        left.setdefault(net, []).append(mask)
    bit = {d: 1 << i for i, (d, _, _) in enumerate(free)}
    # Per line in angle order: its mask bit (0 when p == q), then its
    # (upper, lower) edges kept and reversed, a face of length 0 dropped.
    sides = [(bit.get((dx, dy), 0),
              ([(p * dx, p * dy)], [(-q * dx, -q * dy)] if q else []),
              ([(q * dx, q * dy)] if q else [], [(-p * dx, -p * dy)]))
             for (dx, dy), q, p in lines]
    for (x, y), right in _signed_sums(steps[mid:], (0, 0), mid):
        for mask in left.get((-x, -y), ()):
            mask |= right
            upper: list = []
            lower: list = []
            for b, kept, reversed_ in sides:
                u, w = reversed_ if mask & b else kept
                upper += u
                lower += w
            chain = upper + lower
            if _twice_area(chain) == twice_area:
                yield chain


def count_chains(max_dx: int, max_dy: int) -> int:
    """The number of closed convex chains fitting the box extent
    (max_dx, max_dy), as walk_chains would walk them, without walking.

    A chain of x-extent 1 is two vertical runs, on x = 0 and x = 1, not
    both points.  Up to translation, the pairs of runs in rows 0..N that
    reach row 0 are those in 0..N less those in 1..N, ((N+1)(N+2)/2)^2 -
    (N(N+1)/2)^2 = (N+1)^3, and 2N + 1 are two points: count_chains(1, N)
    = count_chains(N, 1) = (N+1)^3 - (2N+1), at once for any N.

    A closed convex chain rises in x exactly once, so its x-extent is
    the sum of its positive dx, and likewise for y: the chains are the
    choices of at most one vector per ray with sum zero and positive
    parts within the box, less the empty choice and the pairs {v, -v}.
    Each half-open quadrant of rays feeds two of the four positive
    parts, so a knapsack per quadrant counts its choices by those two
    sums, and the quadrants are joined where the sums close."""
    if max_dx < 1 or max_dy < 1:
        return 0
    if min(max_dx, max_dy) == 1:    # N + 1 == max_dx + max_dy
        return (max_dx + max_dy) ** 3 - 2 * (max_dx + max_dy) + 1
    nx, ny = max_dx + 1, max_dy + 1
    # Quadrant q of (dx, dy) adds (|dx|, |dy|) to the parts
    # (x+, y+), (x-, y+), (x-, y-) and (x+, y-) for q = 0, 1, 2, 3.
    tables = [[[1] + [0] * max_dy] + [[0] * ny for _ in range(max_dx)]
              for _ in range(4)]
    for group in _ray_groups(max_dx, max_dy):
        rx, ry = group[0]
        q = (0 if ry >= 0 else 3) if rx > 0 else (1 if ry > 0 else 2)
        t = tables[q]
        for u in range(max_dx, -1, -1):
            row = t[u]
            for v in range(max_dy, -1, -1):
                for dx, dy in group:
                    a, b = u - abs(dx), v - abs(dy)
                    if a >= 0 and b >= 0:
                        row[v] += t[a][b]
    # right[x][y+][y-]: quadrants 0 and 3 with x+ == x; left likewise
    # with quadrants 1 and 2 and x- == x.
    right, left = ([[[sum(qa[a][v] * qb[x - a][w] for a in range(x + 1))
                      for w in range(ny)] for v in range(ny)]
                    for x in range(nx)]
                   for qa, qb in (tables[::3], tables[1:3]))
    closed = sum(right[x][v1][v4] * left[x][v2][v1 + v2 - v4]
                 for x in range(nx) for v1 in range(ny) for v4 in range(ny)
                 for v2 in range(max(0, v4 - v1), ny - v1))
    return closed - 1 - ((2 * max_dx + 1) * (2 * max_dy + 1) - 1) // 2


def walk_chains(max_dx: int, max_dy: int, parts: bool = False):
    """Yield every closed convex chain fitting the box extent
    (max_dx, max_dy), one chain per translation class, root by root (the
    upper rays) in angle order, each as it closes.  With parts, yield
    (chain, lines, extent) for such chains with no two parallel edges,
    one of each pair +-A (see _chains_from_root): each one that has a
    line-disjoint partner beside it in the box (max_dx + 1, max_dy + 1),
    and some others (see _partner_test).  Nothing is kept between calls."""
    if max_dx < 1 or max_dy < 1:
        return
    groups = _ray_groups(max_dx, max_dy)
    index = _reach_index(groups, max_dx, max_dy)
    can_pair = _partner_test(groups, max_dx + 1, max_dy + 1) if parts else None
    for root in range(len(groups) // 2):
        yield from _chains_from_root(groups, index, max_dx, root, can_pair)
