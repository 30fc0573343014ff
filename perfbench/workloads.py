"""The three benchmark workloads: input build, closed-loop run, checks.

Each workload has build(seed, latcov) -> inputs, done during set-up,
and run(inputs, budget_s, latcov) -> Samples, which calls latcov in a closed loop
(one caller, each call after the previous one returns) and checks every
output with this package's own code.  Work is done in whole passes over
the inputs until budget_s has elapsed, so every run of one seed does the
same calls in the same order.  Why each workload exists is written down
in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import io
import random
import time
from contextlib import redirect_stderr, redirect_stdout

import gen

# --- search-6x5 ------------------------------------------------------------

SEARCH_ARGV = ["--format", "records", "search", "--box", "6x5",
               "--match-corollary", "--jobs", "1"]
# sha256 of the records stdout of SEARCH_ARGV on the seed implementation.
SEARCH_SHA256 = "6fa8f302ef225d55e15f82ebdf01864797b9e1a1cff354cf49621496121efeab"
SEARCH_TOTAL_SETS = 53524
SEARCH_PAIRS = 12

# --- reconstruct-batch -----------------------------------------------------

# (extent, sizes of convex sets, sizes of the convex sets that lose a
# point) per stratum.  A reconstruction's cost is set by the extent and
# size of its input (they fix which cached candidates get a difference
# set), so the same strata for every seed keep per-seed cost equal; the
# seed only picks the sets.  Over half the calls land on (5,4) and (4,5),
# so the median call falls inside that group.
_BIG = ((12, 13, 14, 15, 16, 17, 18, 19, 20, 22), (14, 16, 18))
RECON_STRATA = (((5, 4),) + _BIG, ((4, 5),) + _BIG,
                ((4, 4), (11, 13, 15, 17), (14,)),
                ((3, 3), (8, 9, 10, 11), (10,)),
                ((5, 2), (9, 11), (10,)), ((2, 5), (9, 11), (10,)))
# Extents of the known ambiguous pairs used: for each, one pair as listed
# and one transposed pair, both members of each.
RECON_PAIR_EXTENTS = ((5, 4), (4, 4), (3, 3))

# --- geometry-far ----------------------------------------------------------

# Small sets have extent 3 along the sheared axis, so every set costs a
# box scan of about the same size at a given shear.  Across it: extent ->
# set sizes, which fix the cost of reading invariants off g.
GEOM_ACROSS = {1: (5, 6, 6, 7, 8), 2: (6, 7, 8, 9, 10),
               3: (8, 9, 10, 11, 13), 4: (9, 10, 11, 12, 14)}
GEOM_ALONG = 3
GEOM_SHEAR = 5000
GEOM_FAR = 2 ** 31 - 2 ** 20

# How many times each batch draws every stratum.  The machine's speed
# wanders on a scale of seconds to minutes, so a longer pass gives
# steadier figures; the reconstruction batch gets the most because its
# warm calls take only a third of its pass.
RECON_DRAWS = 3
GEOM_DRAWS = 2


class Samples:
    """What one child measured: per-kind call latencies, operation counts
    and failures.  ops counts the workload's unit (a search, a
    reconstruction, a set fully processed); attempted counts calls."""

    def __init__(self):
        self.lat_ms: dict = {}
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.measured_s = 0.0

    def timed(self, kind, fn, *args):
        """Call fn(*args), record its latency under kind; return
        (result, exception)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out, exc = fn(*args), None
        except Exception as e:  # an operation that raises is a failed op
            out, exc = None, e
        self.lat_ms.setdefault(kind, []).append(
            (time.perf_counter() - t0) * 1000.0)
        return out, exc

    def fail(self, what):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(str(what)[:300])

    def to_json(self) -> dict:
        return {"lat_ms": self.lat_ms, "ops": self.ops,
                "attempted": self.attempted, "failed": self.failed,
                "errors": self.errors, "measured_s": self.measured_s}


def _passes(inputs, budget_s, one):
    """Run one(item) over inputs in whole passes until budget_s elapsed."""
    t0 = time.perf_counter()
    while True:
        for item in inputs:
            one(item)
        if time.perf_counter() - t0 >= budget_s:
            return time.perf_counter() - t0


# --- search-6x5 ------------------------------------------------------------

def build_search(seed, latcov):
    # The search has no generated input: every seed runs the paper's 6x5
    # reproduction, from a fresh process with an empty enumeration cache.
    return None


def run_search(inputs, budget_s, latcov) -> Samples:
    """One full search through the CLI.  Later searches in this process
    would reuse the enumeration cache, so the parent starts a new
    process for each one."""
    s = Samples()
    out, err = io.StringIO(), io.StringIO()

    def cli():
        with redirect_stdout(out), redirect_stderr(err):
            return latcov.cli.main(list(SEARCH_ARGV))

    t0 = time.perf_counter()
    rc, exc = s.timed("search", cli)
    s.measured_s = time.perf_counter() - t0
    s.ops = 1
    text = out.getvalue()
    fields = dict(line.split("=", 1) for line in text.splitlines()
                  if "=" in line)
    matched = sum(1 for k, v in fields.items()
                  if k.endswith(".verdict") and v == "matched")
    if exc is not None:
        s.fail(f"search raised {exc!r}")
    elif rc != 0:
        s.fail(f"search exit code {rc}")
    elif hashlib.sha256(text.encode()).hexdigest() != SEARCH_SHA256:
        s.fail("records output differs from the seed's")
    elif fields.get("total_sets") != str(SEARCH_TOTAL_SETS):
        s.fail(f"total_sets={fields.get('total_sets')}")
    elif matched != SEARCH_PAIRS:
        s.fail(f"{matched} of {SEARCH_PAIRS} pairs matched")
    return s


# --- reconstruct-batch -----------------------------------------------------

def build_recon(seed, latcov):
    """Seeded batch of (covariogram, expected) items.  expected is the
    set of canonical forms that must be among the classes returned
    (empty for a non-convex input), and n_classes the exact class count
    required, or None."""
    rng = random.Random(seed)
    groups: dict = {}
    for pair in gen.known_pairs():
        groups.setdefault(gen.extent(pair[0]), []).append(pair)
    items = []
    for _ in range(RECON_DRAWS):
        for ext, convex_sizes, nonconvex_sizes in RECON_STRATA:
            for size in convex_sizes:
                K = gen.random_convex(rng, *ext, size=size)
                items.append((K, {gen.canonical(K)}, None))
            for size in nonconvex_sizes:
                K = gen.random_convex(rng, *ext, size=size, inner=True)
                items.append((gen.minus_inner_point(rng, K), set(), None))
        for ext in RECON_PAIR_EXTENTS:
            for flip in (False, True):
                pair = rng.choice(groups[ext])
                if flip:
                    pair = tuple(gen.transpose(P) for P in pair)
                forms = {gen.canonical(P) for P in pair}
                items += [(P, forms, 2) for P in pair]
    Cov = latcov.covariogram.Covariogram
    return [(Cov(2, gen.covariogram(K)), gen.covariogram(K), forms, n)
            for K, forms, n in items]


def run_recon(inputs, budget_s, latcov) -> Samples:
    s = Samples()
    reconstruct_all = latcov.reconstruct.reconstruct_all

    def one(item):
        g, target, forms, n_classes = item
        classes, exc = s.timed("recon", reconstruct_all, g)
        s.ops += 1
        if exc is not None:
            s.fail(f"reconstruct_all raised {exc!r}")
            return
        got = {frozenset(c) for c in classes}
        if any(gen.covariogram(c) != target for c in got):
            s.fail("a returned class does not reproduce g")
        elif not forms <= got:
            s.fail("a realizing set's canonical form is missing")
        elif n_classes is not None and len(got) != n_classes:
            s.fail(f"{len(got)} classes for a known ambiguous member")

    s.measured_s = _passes(inputs, budget_s, one)
    return s


# --- geometry-far ----------------------------------------------------------

def build_geom(seed, latcov):
    """Seeded (points, covariogram, convex?) items: each small
    lattice-convex set and the same set minus one non-vertex point,
    both moved far out by one seeded shear and translation."""
    rng = random.Random(seed)
    Cov = latcov.covariogram.Covariogram
    items = []
    for axis in (0, 1) * GEOM_DRAWS:
        for across, sizes in GEOM_ACROSS.items():
            ext = (across, GEOM_ALONG) if axis == 0 else (GEOM_ALONG, across)
            for size in sizes:
                K = gen.random_convex(rng, *ext, size=size, inner=True)
                L = gen.minus_inner_point(rng, K)
                s = GEOM_SHEAR * rng.choice((1, -1))
                corner = (GEOM_FAR + rng.randrange(2 ** 16),
                          GEOM_FAR + rng.randrange(2 ** 16))
                for P, convex in ((K, True), (L, False)):
                    F = gen.shear_far(P, s, axis, corner)
                    items.append((F, Cov(2, gen.covariogram(F)), convex))
    return items


def run_geom(inputs, budget_s, latcov) -> Samples:
    s = Samples()
    LatticeError = latcov.lattice.LatticeError
    is_lattice_convex = latcov.lattice.is_lattice_convex
    invariants_direct = latcov.invariants.invariants_direct
    invariants_from_covariogram = latcov.reconstruct.invariants_from_covariogram

    def one(item):
        K, g, convex = item
        s.ops += 1
        verdict, exc = s.timed("convex", is_lattice_convex, K)
        if exc is not None or verdict != convex:
            s.fail(f"is_lattice_convex gave {verdict!r} ({exc!r}), "
                   f"built convex={convex}")
        direct, exc_d = s.timed("inv_direct", invariants_direct, K)
        from_cov, exc_c = s.timed("inv_cov", invariants_from_covariogram, g)
        if convex:
            if exc_d is not None or exc_c is not None:
                s.fail(f"invariants raised {exc_d!r} / {exc_c!r}")
            elif direct != from_cov:
                s.fail("invariants_direct(K) != invariants_from_covariogram(g)")
        else:
            # K is not lattice-convex: the direct path must refuse it; g
            # has no convex realization, so reading it may succeed or be
            # refused, but must not fail any other way.
            if not isinstance(exc_d, LatticeError):
                s.fail(f"invariants_direct on a non-convex set: {exc_d!r}")
            if exc_c is not None and not isinstance(exc_c, LatticeError):
                s.fail(f"invariants_from_covariogram raised {exc_c!r}")

    s.measured_s = _passes(inputs, budget_s, one)
    return s


WORKLOADS = {
    "search-6x5": (build_search, run_search),
    "reconstruct-batch": (build_recon, run_recon),
    "geometry-far": (build_geom, run_geom),
}
