import math
import random
from fractions import Fraction

import pytest

import helpers
from latcov.invariants import (
    delta_bound_check,
    discrepancy,
    edge_normals,
    invariants_direct,
)
from latcov.lattice import LatticeError

TRAPEZOID = frozenset({(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1)})


def test_trapezoid_record():
    rec = invariants_direct(TRAPEZOID)
    assert rec.m_prime == 2
    assert rec.m_doubleprime == 3
    assert rec.m == 2
    assert rec.delta == Fraction(2, 1)
    assert rec.det_set == frozenset({1, 2})
    assert rec.certified is False


def test_square_3x3_certified():
    K = frozenset((x, y) for x in range(3) for y in range(3))
    rec = invariants_direct(K)
    assert rec.m_prime == 3
    assert rec.m_doubleprime == math.inf
    assert rec.m == 3
    assert rec.delta == 1
    assert rec.certified is True


def test_triangle_record():
    rec = invariants_direct({(0, 0), (1, 0), (0, 1)})
    assert rec.m_prime == 2
    assert rec.m_doubleprime == math.inf
    assert rec.delta == 1
    assert rec.certified is False  # needs m >= 3 at delta 1


def test_edge_normals_square():
    K = {(x, y) for x in range(2) for y in range(2)}
    assert edge_normals(K) == frozenset({(1, 0), (-1, 0), (0, 1), (0, -1)})


def test_edge_normals_requires_convex():
    with pytest.raises(LatticeError):
        edge_normals({(0, 0), (2, 0), (0, 2)})  # holes on the edges
    with pytest.raises(LatticeError):
        edge_normals({(0, 0), (1, 0), (2, 0)})  # degenerate


def test_matches_direction_scan_oracle():
    rng = random.Random(2024)
    for _ in range(150):
        K = helpers.random_lattice_convex(rng, 7, 7)
        rec = invariants_direct(K)
        normals, m_prime, m_double = helpers.brute_edge_invariants(K)
        # record stores normals of K and of -K together
        assert rec.normals == frozenset(normals) | frozenset(
            (-u[0], -u[1]) for u in normals)
        assert rec.m_prime == m_prime
        assert rec.m_doubleprime == m_double
        assert rec.m == min(m_prime, m_double)


def test_centrally_symmetric_has_infinite_m_doubleprime():
    rng = random.Random(77)
    for _ in range(60):
        K = helpers.random_lattice_convex(rng, 6, 6)
        # DK is centrally symmetric and lattice-convex whenever K is
        rec = invariants_direct(frozenset(
            (a[0] - b[0], a[1] - b[1]) for a in K for b in K))
        assert rec.m_doubleprime == math.inf


def test_certificate_threshold_exactness():
    # delta = 1: m = 2 fails, m = 3 passes (threshold delta^2+delta+1 = 3)
    tri = invariants_direct({(0, 0), (1, 0), (0, 1)})
    assert tri.m == 2 and not tri.certified
    sq3 = invariants_direct({(x, y) for x in range(3) for y in range(3)})
    assert sq3.m == 3 and sq3.certified
    # delta = 2: threshold is 7
    wide = frozenset({(x, 0) for x in range(7)}
                     | {(x, 1) for x in range(7)}
                     | {(x, 2) for x in range(1, 6)})
    rec = invariants_direct(wide)
    assert rec.delta == 2
    assert rec.certified == (Fraction(rec.m) >= 7)


def test_discrepancy_values():
    dets, delta = discrepancy({(1, 0), (0, 1), (-1, -2)})
    assert dets == frozenset({1, 2})
    assert delta == Fraction(2, 1)
    with pytest.raises(LatticeError):
        discrepancy({(1, 0), (-1, 0), (2, 0)})  # all parallel


def test_delta_bound_check():
    rng = random.Random(11)
    for _ in range(100):
        K = helpers.random_lattice_convex(rng, 6, 6)
        rec = invariants_direct(K)
        assert delta_bound_check(rec.normals, len(K))
    with pytest.raises(LatticeError):
        delta_bound_check({(1, 0), (0, 1)}, 0)
    for n in (1.5, 2.0, "a", None):
        with pytest.raises(LatticeError, match="^window radius must be an integer$"):
            delta_bound_check({(1, 0), (0, 1)}, n)
