import itertools
import random
import time

import pytest

import latcov.cli
import latcov.homometry
from latcov.covariogram import compute_covariogram
from latcov.homometry import (
    HexagonParams,
    WidthOneParams,
    condition_i,
    condition_ii,
    corollary_pair_generator,
    decompose_plane,
    direct_sum,
    gs_graph_connected,
    mirror_pair,
    product_pair,
    sum_is_direct,
    width_one_T,
)
from latcov.lattice import (
    LatticeError,
    canonical_form,
    is_centrally_symmetric,
    is_lattice_convex,
)


def test_width_one_params():
    p = WidthOneParams(1, 0)
    assert p.w1 == (-2, 1)
    assert p.w2 == (1, 1)
    assert p.index == 3
    assert width_one_T(p) == frozenset({(0, 0), (1, 0), (0, 1)})
    q = WidthOneParams(3, 1)
    assert q.w1 == (-4, 1)
    assert q.w2 == (2, 1)
    assert q.index == 6
    assert width_one_T(q) == frozenset(
        {(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1)})
    with pytest.raises(LatticeError):
        WidthOneParams(0, 0)
    with pytest.raises(LatticeError):
        WidthOneParams(2, 2)
    with pytest.raises(LatticeError, match="^parameters must be integers$"):
        WidthOneParams(1.5, 0)


def test_strip_never_centrally_symmetric():
    for k in range(1, 6):
        for ell in range(k):
            assert not is_centrally_symmetric(width_one_T(WidthOneParams(k, ell)))


def test_basis_membership_and_coords():
    rng = random.Random(600)
    for k, ell in [(1, 0), (2, 0), (2, 1), (3, 2), (5, 3)]:
        params = WidthOneParams(k, ell)
        for _ in range(200):
            i = rng.randint(-8, 8)
            j = rng.randint(-8, 8)
            p = (i * params.w1[0] + j * params.w2[0],
                 i * params.w1[1] + j * params.w2[1])
            assert params.contains(p)
            assert params.coords(p) == (i, j)
            assert params.from_coords((i, j)) == p
        # density: exactly 1 in index points of a window is a member
        hits = sum(params.contains((x, y))
                   for x in range(params.index) for y in range(1))
        assert hits == 1
        assert not params.contains((1, 0))
        with pytest.raises(LatticeError):
            params.coords((1, 0))


def test_plane_splits_as_sublattice_plus_strip():
    # every point decomposes uniquely; frozen examples for k=1, l=0
    p = WidthOneParams(1, 0)
    assert decompose_plane((2, 1), p) == ((1, 1), (1, 0))
    assert decompose_plane((-1, 0), p) == ((-1, -1), (0, 1))
    for k, ell in [(1, 0), (2, 1), (4, 2)]:
        params = WidthOneParams(k, ell)
        T = sorted(width_one_T(params))
        rng = random.Random(601)
        for _ in range(150):
            pt = (rng.randint(-30, 30), rng.randint(-30, 30))
            lam, t = decompose_plane(pt, params)
            assert params.contains(lam)
            assert t in T
            assert (lam[0] + t[0], lam[1] + t[1]) == pt
            # uniqueness by full scan
            hits = [(s,) for s in T
                    if params.contains((pt[0] - s[0], pt[1] - s[1]))]
            assert len(hits) == 1


def test_plane_decomposition_checks_uniqueness(monkeypatch):
    # A strip that misses a coset or covers one twice breaks uniqueness;
    # the check is an explicit raise, so it holds under python -O too.
    # decompose_plane tests its two candidates, (1, 0) and (-1, 1) for
    # (2, 1), by strip membership.
    p = WidthOneParams(1, 0)
    T = width_one_T(p)
    doubled = T | {(-1, 1)}  # (2, 1) - (-1, 1) lies in the sublattice
    for broken in (frozenset(), doubled):
        monkeypatch.setattr(latcov.homometry, "_in_strip",
                            lambda t, _: t in broken)
        with pytest.raises(AssertionError, match="unique"):
            decompose_plane((2, 1), p)


def test_sum_is_direct():
    S = {(0, 0), (3, 0)}
    T = {(0, 0), (1, 0)}
    assert sum_is_direct(S, T)
    assert not sum_is_direct({(0, 0), (1, 0)}, {(0, 0), (1, 0)})
    assert direct_sum(S, T) == frozenset({(0, 0), (1, 0), (3, 0), (4, 0)})
    with pytest.raises(LatticeError):
        direct_sum({(0, 0), (1, 0)}, {(0, 0), (-1, 0)})


def test_mirror_pair_always_homometric():
    rng = random.Random(602)
    checked_nontrivial = 0
    for _ in range(80):
        S = frozenset((rng.randint(0, 8) * 5, rng.randint(0, 8) * 5)
                      for _ in range(rng.randint(1, 4)))
        T = frozenset((rng.randint(0, 2), rng.randint(0, 2))
                      for _ in range(rng.randint(1, 4)))
        if not sum_is_direct(S, T):
            continue
        rep = mirror_pair(S, T)
        assert rep.homometric
        assert compute_covariogram(rep.first) == compute_covariogram(rep.second)
        want_nontrivial = (not is_centrally_symmetric(S)
                           and not is_centrally_symmetric(T))
        assert rep.nontrivial == want_nontrivial
        checked_nontrivial += rep.nontrivial
    assert checked_nontrivial > 5


def test_mirror_pair_rejects_overlapping_sum():
    with pytest.raises(LatticeError, match="^sum not direct$"):
        mirror_pair({(0, 0), (1, 0)}, {(0, 0), (1, 0)})


def test_sum_with_the_mirror_is_direct_with_the_sum():
    # mirror_pair checks S + T alone: S + T is direct iff S - S meets
    # T - T only at the origin, and T - T = (-T) - (-T)
    rng = random.Random(36)
    seen = set()
    for _ in range(400):
        S, T = (frozenset((rng.randint(-3, 3), rng.randint(-3, 3))
                          for _ in range(rng.randint(1, 4))) for _ in "ST")
        direct = sum_is_direct(S, T)
        assert direct == sum_is_direct(S, {(-x, -y) for x, y in T})
        seen.add(direct)
    assert seen == {True, False}


def test_condition_equivalence_exhaustive_small():
    # all nonempty subsets of a 2x2 coordinate window, several strips
    for k, ell in [(1, 0), (2, 0), (2, 1)]:
        params = WidthOneParams(k, ell)
        cells = [(i, j) for i in range(2) for j in range(2)]
        for mask in range(1, 16):
            coords = [c for b, c in enumerate(cells) if mask >> b & 1]
            S = frozenset(params.from_coords(c) for c in coords)
            assert condition_i(S, params) == condition_ii(S, params), \
                (k, ell, coords)


def test_condition_i_known_cases():
    p = WidthOneParams(1, 0)
    # the hexagon triangle works
    S = frozenset(p.from_coords(c) for c in [(0, 0), (1, 0), (1, 1)])
    assert condition_i(S, p)
    assert condition_ii(S, p)
    # {o, w1, w2} does not: the sum has a notch
    S2 = frozenset({(0, 0), p.w1, p.w2})
    assert not condition_i(S2, p)
    assert not condition_ii(S2, p)


def test_condition_ii_refuses_gapped_segment():
    # a base that is a segment with a gap in sublattice coordinates, along
    # an allowed direction, is not sublattice-convex; the full one is
    for k, ell in [(1, 0), (2, 0), (2, 1)]:
        p = WidthOneParams(k, ell)
        for di, dj in [(1, 0), (0, 1)]:
            gapped = frozenset(p.from_coords((i * di, i * dj)) for i in (0, 2))
            full = frozenset(p.from_coords((i * di, i * dj)) for i in range(3))
            assert not condition_ii(gapped, p), (k, ell, di, dj)
            assert not condition_i(gapped, p), (k, ell, di, dj)
            assert condition_ii(full, p), (k, ell, di, dj)


def test_condition_i_implies_connected_step_graph():
    rng = random.Random(603)
    for k, ell in [(1, 0), (2, 1), (2, 0)]:
        params = WidthOneParams(k, ell)
        seen = 0
        for _ in range(150):
            coords = {(rng.randint(0, 2), rng.randint(0, 2))
                      for _ in range(rng.randint(1, 5))}
            S = frozenset(params.from_coords(c) for c in coords)
            if condition_i(S, params):
                assert gs_graph_connected(S, params)
                seen += 1
        assert seen > 3


def test_gs_graph_requires_membership():
    p = WidthOneParams(1, 0)
    with pytest.raises(LatticeError):
        gs_graph_connected({(1, 0)}, p)


def test_hexagon_params_validation(capsys):
    with pytest.raises(LatticeError):
        HexagonParams(1, 0, 0, 0, 0, 0)
    with pytest.raises(LatticeError):
        HexagonParams(0, 0, 0, 0, 1, 1)  # region empty
    for bound in (1.5, "1"):
        with pytest.raises(LatticeError, match="parameters must be integers"):
            HexagonParams(0, 1, 0, 1, 0, bound)
    hx = HexagonParams(0, 1, 0, 1, 0, 1)
    assert set(hx.region()) == {(0, 0), (1, 0), (1, 1)}
    # region and emptiness agree with a scan of the whole box
    for a1, a2, b1, b2, g1, g2 in itertools.product(range(-1, 2), range(3),
                                                    range(-1, 2), range(3),
                                                    range(-3, 2), range(-1, 4)):
        box = [(i, j) for i in range(a1, a2 + 1) for j in range(b1, b2 + 1)
               if g1 <= i - j <= g2]
        if not box:
            with pytest.raises(LatticeError, match="empty"):
                HexagonParams(a1, a2, b1, b2, g1, g2)
        else:
            hx = HexagonParams(a1, a2, b1, b2, g1, g2)
            assert hx.region() == box
            assert hx.size() == len(box)
    rng = random.Random(14)
    for _ in range(300):
        a1, b1, g1 = (rng.randint(-30, 30) for _ in range(3))
        a2, b2 = a1 + rng.randint(0, 30), b1 + rng.randint(0, 30)
        g2 = g1 + rng.randint(0, 60)
        box = [(i, j) for i in range(a1, a2 + 1) for j in range(b1, b2 + 1)
               if g1 <= i - j <= g2]
        if box:
            hx = HexagonParams(a1, a2, b1, b2, g1, g2)
            assert (hx.region(), hx.size()) == (box, len(box))
    # i - j <= 2^31 - 1 in this window, so g1 = 2^31 leaves it empty;
    # emptiness is decided without a scan of its sides
    t0 = time.monotonic()
    rc = latcov.cli.main(["gen-pair", "--k", "1", "--l", "0", "--hex",
                          "0,2147483647,0,2147483647,2147483648,2147483648"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert "hexagon region is empty" in err
    assert time.monotonic() - t0 < 2


def test_nine_point_pair_from_generator():
    p = WidthOneParams(1, 0)
    rep = corollary_pair_generator(p, HexagonParams(0, 1, 0, 1, 0, 1))
    assert rep.base == frozenset({(0, 0), (-2, 1), (-1, 2)})
    assert len(rep.first) == 9 and len(rep.second) == 9
    assert rep.homometric and rep.nontrivial
    assert is_lattice_convex(rep.first) and is_lattice_convex(rep.second)
    assert canonical_form(rep.first) != canonical_form(rep.second)


def test_generator_trivial_when_base_symmetric():
    p = WidthOneParams(1, 0)
    rep = corollary_pair_generator(p, HexagonParams(0, 1, 0, 0, 0, 1))
    assert sorted(rep.base) == [(-2, 1), (0, 0)]
    assert rep.homometric and not rep.nontrivial


def test_generator_requires_k_eq_l_plus_1():
    with pytest.raises(LatticeError):
        corollary_pair_generator(WidthOneParams(2, 0),
                                 HexagonParams(0, 1, 0, 1, 0, 1))


def test_generator_sweep_small():
    for k in (1, 2):
        params = WidthOneParams(k, k - 1)
        for a2, b2 in itertools.product(range(3), repeat=2):
            for g1 in range(-b2, a2 + 1):
                for g2 in range(g1, a2 + 1):
                    try:
                        hx = HexagonParams(0, a2, 0, b2, g1, g2)
                    except LatticeError:
                        continue
                    rep = corollary_pair_generator(params, hx)
                    assert rep.homometric
                    assert is_lattice_convex(rep.first)
                    assert is_lattice_convex(rep.second)
                    assert rep.nontrivial == (
                        not is_centrally_symmetric(rep.base))


def test_product_pair_z4():
    tri = {(0, 0), (1, 0), (0, 1)}
    rep = product_pair(tri, tri)
    first = rep.first
    assert len(first) == 9
    assert len(next(iter(first))) == 4
    assert rep.homometric
    assert rep.nontrivial
    g1 = compute_covariogram(rep.first)
    g2 = compute_covariogram(rep.second)
    assert g1 == g2


def test_product_pair_trivial_with_symmetric_factor():
    tri = {(0, 0), (1, 0), (0, 1)}
    seg = {(0, 0), (1, 0)}
    assert not product_pair(tri, seg).nontrivial
    assert not product_pair(seg, tri).nontrivial
