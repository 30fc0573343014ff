import random

import pytest

import helpers
from latcov.covariogram import (
    Covariogram,
    compute_covariogram,
    convolve,
    support_of,
)
from latcov.lattice import LatticeError, difference_set, translate


def test_triangle_values():
    g = compute_covariogram({(0, 0), (1, 0), (0, 1)})
    assert g.entries == {(0, 0): 3, (1, 0): 1, (-1, 0): 1,
                         (0, 1): 1, (0, -1): 1, (1, -1): 1, (-1, 1): 1}
    assert g.mass == 9
    assert g.value((5, 5)) == 0
    assert g.value([1, 0]) == 1


def test_value_refuses_what_is_not_a_vector_of_g():
    # a float must not read g(1, 0), and a vector of another dimension
    # must not read 0 off g
    g = compute_covariogram({(0, 0), (1, 0), (0, 1)})
    for u in [(1.0, 0), 5, ("1", 0)]:
        with pytest.raises(LatticeError, match="^coordinates must be integers$"):
            g.value(u)
    for u in [(1, 0, 0), (1,)]:
        with pytest.raises(LatticeError,
                           match="^vector has the wrong dimension$"):
            g.value(u)


def test_entries_are_a_read_only_copy():
    d = {(0, 0): 2, (1, 0): 1, (-1, 0): 1}
    g = Covariogram(2, d)
    with pytest.raises(TypeError):
        g.entries[(0, 0)] = 0
    d[(0, 0)] = 0
    del d[(1, 0)]
    assert g.entries == {(0, 0): 2, (1, 0): 1, (-1, 0): 1}
    assert g == compute_covariogram({(0, 0), (1, 0)})
    assert compute_covariogram({(0, 0), (1, 0)}).entries == g.entries


def test_matches_brute_oracle():
    rng = random.Random(41)
    for _ in range(150):
        K = frozenset((rng.randint(-4, 4), rng.randint(-4, 4))
                      for _ in range(rng.randint(1, 10)))
        g = compute_covariogram(K)
        assert g.entries == helpers.brute_covariogram(K)


def test_basic_identities():
    rng = random.Random(42)
    for _ in range(200):
        K = frozenset((rng.randint(-6, 6), rng.randint(-6, 6))
                      for _ in range(rng.randint(1, 12)))
        g = compute_covariogram(K)
        n = len(K)
        assert g.value((0, 0)) == n
        assert g.mass == n * n
        assert all(v >= 1 for v in g.entries.values())
        assert support_of(g) == difference_set(K)
        for u, v in g.entries.items():
            assert g.value((-u[0], -u[1])) == v
            assert v <= n


def test_translation_reflection_invariance():
    rng = random.Random(43)
    for _ in range(100):
        K = frozenset((rng.randint(-5, 5), rng.randint(-5, 5))
                      for _ in range(rng.randint(1, 9)))
        g = compute_covariogram(K)
        shift = (rng.randint(-20, 20), rng.randint(-20, 20))
        assert g == compute_covariogram(translate(K, shift))
        refl = frozenset((-x, -y) for x, y in K)
        assert g == compute_covariogram(refl)


def test_equal_rejects_dim_mismatch():
    g2 = compute_covariogram({(0, 0)})
    g3 = compute_covariogram({(0, 0, 0)})
    assert g2 != g3


def test_higher_dim():
    K = {(0, 0, 0), (1, 0, 0), (0, 1, 1)}
    g = compute_covariogram(K)
    assert g.dim == 3
    assert g.value((0, 0, 0)) == 3
    assert g.value((1, 0, 0)) == 1
    assert g.value((-1, 1, 1)) == 1


def test_validation():
    with pytest.raises(LatticeError):
        Covariogram(2, {(1, 0): 1, (-1, 0): 1})  # no origin
    with pytest.raises(LatticeError):
        Covariogram(2, {(0, 0): 1, (1, 0): 2, (-1, 0): 2})  # origin not max
    with pytest.raises(LatticeError):
        Covariogram(2, {(0, 0): 2, (1, 0): 1})  # missing mirror entry
    with pytest.raises(LatticeError):
        Covariogram(2, {(0, 0): 2, (1, 0): 1, (-1, 0): 2})  # asymmetric
    with pytest.raises(LatticeError):
        Covariogram(2, {(0, 0): 0})  # nonpositive count
    with pytest.raises(LatticeError):
        Covariogram(2 ** 31, {})  # no entries: no 2^31-tuple origin built
    for dim in (2.0, "2"):       # refused before any origin is built
        with pytest.raises(LatticeError,
                           match="^invalid covariogram: dimension must be an integer$"):
            Covariogram(dim, {(0, 0): 1})


def _unit(dim, sign=1):
    return (sign,) + (0,) * (dim - 1)


# message -> (a table of dimension d that raises it, whether the CLI
# parser hands such a table to the constructor; it refuses the others
# itself, by coordinate count or by count sign)
INVALID = {
    "mixed dimensions": lambda d: ({(0,) * d: 2, (1,) * (d + 1): 1}, False),
    "origin entry missing": lambda d: ({_unit(d): 1, _unit(d, -1): 1}, True),
    "counts must be positive integers":
        lambda d: ({(0,) * d: 2, _unit(d): 1.5, _unit(d, -1): 1.5}, False),
    "origin entry is not maximal":
        lambda d: ({(0,) * d: 1, _unit(d): 2, _unit(d, -1): 2}, True),
    "not symmetric under negation":
        lambda d: ({(0,) * d: 2, _unit(d): 1, _unit(d, -1): 2}, True),
}


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("message", list(INVALID))
def test_each_invalid_table_names_its_fault(message, dim):
    # the plane's own negation and the generic one raise the same
    # messages, through the constructor and through the CLI parser
    from latcov.cli import FormatError, parse_covariogram

    entries, parsed = INVALID[message](dim)
    with pytest.raises(LatticeError, match=f"^invalid covariogram: {message}$"):
        Covariogram(dim, entries)
    if parsed:
        text = f"dim {dim}\n" + "".join(
            " ".join(map(str, u)) + f" {c}\n" for u, c in entries.items())
        with pytest.raises(FormatError, match=f"invalid covariogram: {message}$"):
            parse_covariogram(text)
    # a missing mirror entry is an asymmetry too
    if message.startswith("not symmetric"):
        with pytest.raises(LatticeError, match=message):
            Covariogram(dim, {(0,) * dim: 2, _unit(dim): 1})


def test_convolution_oracle():
    rng = random.Random(44)
    for _ in range(80):
        A = frozenset((rng.randint(-3, 3), rng.randint(-3, 3))
                      for _ in range(rng.randint(1, 6)))
        B = frozenset((rng.randint(-3, 3), rng.randint(-3, 3))
                      for _ in range(rng.randint(1, 6)))
        got = convolve(compute_covariogram(A), compute_covariogram(B))
        # direct definition of the convolution of the two count functions
        want = {}
        ga, gb = helpers.brute_covariogram(A), helpers.brute_covariogram(B)
        for u, cu in ga.items():
            for v, cv in gb.items():
                w = (u[0] + v[0], u[1] + v[1])
                want[w] = want.get(w, 0) + cu * cv
        assert got.entries == want
