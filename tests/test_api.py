"""The package's public names: every export resolves, every public name
the package binds is exported, every public function that takes points,
a vector, a covariogram or a hull refuses a coordinate that is not an
int with LatticeError, every planar-only one refuses a set that is not
planar with LatticeError, and library code passes the sets and tables it
builds to private bodies without checking them again."""

import inspect
import sys
from types import ModuleType

import pytest

import latcov
from latcov import (
    AffineMap2,
    Covariogram,
    Hull2,
    LatticeError,
    WidthOneParams,
    compute_covariogram,
)

TRIANGLE = [(0, 0), (1, 0), (0, 1)]
STRIP = WidthOneParams(1, 0)
G = compute_covariogram(TRIANGLE)

# A point or a covariogram key of each refused kind: a float, a float
# equal to an int, a bool, a string coordinate, a nested list or tuple,
# a bare number and a string.  A list cannot be a dict key, so keys
# skip it.
BAD_POINTS = [(0.5, 1), (1.0, 0), (True, 0), ("1", 0), ([0], 1), ((0,), 1),
              5, "ab"]
BAD_KEYS = [p for p in BAD_POINTS if p != ([0], 1)]
BAD_VECTORS = [(0.5, 1), (1.0, 0), (True, 0), ("1", 0), ([0], 1), 5, "ab"]

# name -> calls, each taking a point set with one bad point and passing
# it in one argument position
POINTS = {
    "affine_equivalent": [lambda P: latcov.affine_equivalent(P, TRIANGLE),
                          lambda P: latcov.affine_equivalent(TRIANGLE, P)],
    "affine_witnesses": [lambda P: list(latcov.affine_witnesses(P, TRIANGLE)),
                         lambda P: list(latcov.affine_witnesses(TRIANGLE, P))],
    "canonical_form": [latcov.canonical_form],
    "compute_covariogram": [latcov.compute_covariogram],
    "condition_i": [lambda P: latcov.condition_i(P, STRIP)],
    "condition_ii": [lambda P: latcov.condition_ii(P, STRIP)],
    "convex_hull": [latcov.convex_hull],
    "delta_bound_check": [lambda P: latcov.delta_bound_check(P, 1)],
    "difference_set": [latcov.difference_set],
    "direct_sum": [lambda P: latcov.direct_sum(P, TRIANGLE),
                   lambda P: latcov.direct_sum(TRIANGLE, P)],
    "discrepancy": [latcov.discrepancy],
    "edge_normals": [latcov.edge_normals],
    "gs_graph_connected": [lambda P: latcov.gs_graph_connected(P, STRIP)],
    "invariants_direct": [latcov.invariants_direct],
    "is_centrally_symmetric": [latcov.is_centrally_symmetric],
    "is_lattice_convex": [latcov.is_lattice_convex],
    "match_corollary": [lambda P: latcov.match_corollary(P, TRIANGLE),
                        lambda P: latcov.match_corollary(TRIANGLE, P)],
    "mirror_pair": [lambda P: latcov.mirror_pair(P, TRIANGLE),
                    lambda P: latcov.mirror_pair(TRIANGLE, P)],
    "point_set": [latcov.point_set],
    "product_pair": [lambda P: latcov.product_pair(P, TRIANGLE),
                     lambda P: latcov.product_pair(TRIANGLE, P)],
    "sum_is_direct": [lambda P: latcov.sum_is_direct(P, TRIANGLE),
                      lambda P: latcov.sum_is_direct(TRIANGLE, P)],
    "support_set": [lambda P: latcov.support_set(P, (1, 0))],
    "translate": [lambda P: latcov.translate(P, (1, 0))],
}
# name -> calls taking one bad vector
VECTORS = {
    "decompose_plane": [lambda v: latcov.decompose_plane(v, STRIP)],
    "edge_pair_from_covariogram": [
        lambda v: latcov.edge_pair_from_covariogram(G, v)],
    "support_set": [lambda v: latcov.support_set(TRIANGLE, v)],
    "translate": [lambda v: latcov.translate(TRIANGLE, v)],
}
# name -> calls taking a table with one bad key, as a Covariogram
COVARIOGRAMS = {
    "convolve": [lambda e: latcov.convolve(Covariogram(2, e), G),
                 lambda e: latcov.convolve(G, Covariogram(2, e))],
    "determination_verdict": [
        lambda e: latcov.determination_verdict(Covariogram(2, e))],
    "edge_pair_from_covariogram": [
        lambda e: latcov.edge_pair_from_covariogram(Covariogram(2, e), (1, 0))],
    "invariants_from_covariogram": [
        lambda e: latcov.invariants_from_covariogram(Covariogram(2, e))],
    "reconstruct_all": [lambda e: latcov.reconstruct_all(Covariogram(2, e))],
    "support_of": [lambda e: latcov.support_of(Covariogram(2, e))],
}
# name -> calls taking one bad vertex, in a Hull2
HULLS = {
    "hull_lattice_points": [
        lambda v: latcov.hull_lattice_points(Hull2(((0, 0), (1, 0), v))),
        lambda v: latcov.hull_lattice_points(Hull2((v,)))],
}
# exported functions that take none of these
NO_POINTS = {
    "corollary_pair_generator",     # strip and window parameters
    "enumerate_lattice_convex",     # box sides
    "homometric_classes",           # box sides
    "width_one_T",                  # strip parameters
}
REFUSED = "^(coordinates must be integers|direction must be primitive)$"

# name -> calls of a planar-only export, each taking a set of points
# (a point for decompose_plane, a hull's vertices for hull_lattice_points)
PLANAR = {
    "affine_equivalent": POINTS["affine_equivalent"],
    "affine_witnesses": POINTS["affine_witnesses"],
    "condition_ii": POINTS["condition_ii"],
    "convex_hull": POINTS["convex_hull"],
    "decompose_plane": [lambda P: latcov.decompose_plane(P[0], STRIP)],
    "delta_bound_check": POINTS["delta_bound_check"],
    "discrepancy": POINTS["discrepancy"],
    "edge_normals": POINTS["edge_normals"],
    "gs_graph_connected": POINTS["gs_graph_connected"],
    "hull_lattice_points": [
        lambda P: latcov.hull_lattice_points(Hull2(tuple(P)))],
    "invariants_direct": POINTS["invariants_direct"],
    "is_lattice_convex": POINTS["is_lattice_convex"],
    "match_corollary": POINTS["match_corollary"],
}
# a set in three dimensions and a set on a line
NOT_PLANAR = [[(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)],
              [(0,), (1,), (3,)]]


def test_all_names_resolve():
    assert len(set(latcov.__all__)) == len(latcov.__all__)
    missing = [n for n in latcov.__all__ if not hasattr(latcov, n)]
    assert missing == []


def test_star_import():
    ns: dict = {}
    exec("from latcov import *", ns)
    assert set(latcov.__all__) <= set(ns)


def test_all_lists_every_public_binding():
    bound = {n for n, v in vars(latcov).items()
             if not n.startswith("_") and not isinstance(v, ModuleType)}
    assert bound - set(latcov.__all__) == set()


def test_every_exported_function_is_in_the_boundary_table():
    # a new export that takes points, a vector or a covariogram joins
    # the tables above, and one that takes none joins NO_POINTS
    functions = {n for n in latcov.__all__
                 if inspect.isfunction(getattr(latcov, n))}
    tabled = set(POINTS) | set(VECTORS) | set(COVARIOGRAMS) | set(HULLS)
    assert functions == tabled | NO_POINTS
    assert not tabled & NO_POINTS


@pytest.mark.parametrize("name", sorted(set(POINTS) | set(VECTORS)
                                         | set(COVARIOGRAMS) | set(HULLS)))
def test_public_entries_refuse_non_integer_coordinates(name):
    # always LatticeError: never another exception, never a result
    cases = [(call, TRIANGLE + [bad]) for call in POINTS.get(name, ())
             for bad in BAD_POINTS]
    cases += [(call, bad) for call in VECTORS.get(name, ())
              for bad in BAD_VECTORS]
    cases += [(call, {(0, 0): 1, bad: 1}) for call in COVARIOGRAMS.get(name, ())
              for bad in BAD_KEYS]
    cases += [(call, bad) for call in HULLS.get(name, ()) for bad in BAD_POINTS]
    for call, arg in cases:
        with pytest.raises(LatticeError, match=REFUSED):
            call(arg)


@pytest.mark.parametrize("name", sorted(PLANAR))
def test_planar_entries_refuse_other_dimensions(name):
    # always LatticeError: never another exception, never a result (a
    # non-planar normal set once gave a discrepancy off two coordinates)
    for call in PLANAR[name]:
        for P in NOT_PLANAR:
            with pytest.raises(LatticeError):
                call(P)
    if name == "hull_lattice_points":
        with pytest.raises(LatticeError, match="^empty set$"):
            latcov.hull_lattice_points(Hull2(()))


# name -> a call of an export that reads a planar covariogram
PLANAR_COVARIOGRAMS = {
    "determination_verdict": latcov.determination_verdict,
    "edge_pair_from_covariogram":
        lambda g: latcov.edge_pair_from_covariogram(g, (1, 0)),
    "invariants_from_covariogram": latcov.invariants_from_covariogram,
    "reconstruct_all": latcov.reconstruct_all,
}


@pytest.mark.parametrize("name", sorted(PLANAR_COVARIOGRAMS))
def test_covariogram_readers_refuse_other_dimensions(name):
    for P in NOT_PLANAR:
        with pytest.raises(LatticeError,
                           match="^expected a planar covariogram$"):
            PLANAR_COVARIOGRAMS[name](compute_covariogram(P))


def test_sums_refuse_mismatched_dimensions():
    line = [(0,), (1,)]
    for call in [lambda: latcov.convolve(G, compute_covariogram(line)),
                 lambda: latcov.sum_is_direct(TRIANGLE, line),
                 lambda: latcov.direct_sum(line, TRIANGLE)]:
        with pytest.raises(LatticeError, match="^dimension mismatch$"):
            call()


def test_covariogram_refuses_non_integer_keys():
    # a float key once passed and then broke the invariant reader, and a
    # float coordinate was once read as part of a two-point set
    table = {(0, 0): 4, (1, 0): 2, (-1, 0): 2, (0.5, 1): 1, (-0.5, -1): 1}
    for entries in [table, {(0, 0): 1, 5: 1}, {(0, 0): 1, "ab": 1},
                    {(0, 0): 1, (1, 0): 1, (-1.0, 0): 1}]:
        with pytest.raises(LatticeError, match="^coordinates must be integers$"):
            Covariogram(2, entries)
    with pytest.raises(LatticeError, match="^coordinates must be integers$"):
        latcov.canonical_form([(0.5, 1), (0, 0), (1, 0)])


def test_internal_calls_do_not_check_again(monkeypatch):
    # the sets and tables the library builds itself reach private bodies:
    # no point_set call and no Covariogram check while reconstructing
    # every covariogram of the 5x4 box, or while searching the 6x5 box
    tables = [compute_covariogram(K)
              for K in latcov.enumerate_lattice_convex(5, 4)]
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, sys._getframe(1).f_code.co_name))
            return fn(*args, **kwargs)
        return wrapper

    for module in vars(latcov).values():
        if isinstance(module, ModuleType) and hasattr(module, "point_set"):
            monkeypatch.setattr(module, "point_set",
                                counted("point_set", module.point_set))
    monkeypatch.setattr(Covariogram, "__post_init__",
                        counted("Covariogram", Covariogram.__post_init__))
    monkeypatch.setattr(AffineMap2, "__post_init__",
                        counted("AffineMap2", AffineMap2.__post_init__))
    latcov.lattice.point_set(TRIANGLE)
    Covariogram(2, dict(G.entries))
    AffineMap2(((1, 0), (0, 1)), (0, 0))
    assert [name for name, _ in calls] == ["point_set", "Covariogram",
                                           "AffineMap2"]
    calls.clear()
    classes = [latcov.reconstruct_all(g) for g in tables]
    report = latcov.homometric_classes(6, 5)
    assert calls == []
    assert sum(map(len, classes)) >= len(tables)
    assert len(report.classes) == 12
    # each public entry checks its input once and hands it to private
    # bodies: _fills scans through _hull_lattice_points, _record reads the
    # discrepancy through _discrepancy, mirror_pair checks its two sets in
    # _planar and the corollary builder checks none, since it reaches
    # _condition_ii and _mirror_pair, and edge_pair_from_covariogram checks
    # its direction and reads its face through _support_set
    S, T = [(0, 0), (2, 0)], latcov.width_one_T(STRIP)
    for call, arg, checks in [
            (latcov.is_lattice_convex, TRIANGLE, 1),
            (latcov.invariants_direct, TRIANGLE, 1),
            (latcov.invariants_from_covariogram, G, 0),
            (lambda S: latcov.mirror_pair(S, T), S, 2),
            (lambda h: latcov.corollary_pair_generator(STRIP, h),
             latcov.HexagonParams(0, 1, 0, 1, -1, 1), 0),
            (lambda S: latcov.condition_i(S, STRIP), S, 1),
            (lambda S: latcov.condition_ii(S, STRIP), S, 1),
            (lambda g: latcov.edge_pair_from_covariogram(g, (0, 1)), G, 1)]:
        calls.clear()
        call(arg)
        assert len(calls) == checks, (call, arg)
    calls.clear()
    # matching passes the hulls, sums and bases it builds to _convex_hull,
    # _fills, _normal_pair, _affine_witnesses, _condition_ii and
    # _mirror_pair, never to a public entry, and builds the maps it solves
    # for unchecked
    report = latcov.homometric_classes(6, 5, match=True)
    assert all(pr.match for c in report.classes for pr in c.pairs)
    assert calls == []
