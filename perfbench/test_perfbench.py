"""Tests of the benchmark's own code: input generation, correctness
gates and tracer tolerance.  Stdlib only; latcov is not imported.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import types
import unittest
from itertools import combinations

import gen
import workloads
from spans import PER_LAYER, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))


def in_hull_brute(K, p) -> bool:
    """p lies in the convex hull of K: by Caratheodory, in some closed
    triangle (possibly flat) of three points of K."""
    pts = sorted(K)
    if p in K:
        return True
    for a, b, c in combinations(pts, 3):
        d1 = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        d2 = (c[0] - b[0]) * (p[1] - b[1]) - (c[1] - b[1]) * (p[0] - b[0])
        d3 = (a[0] - c[0]) * (p[1] - c[1]) - (a[1] - c[1]) * (p[0] - c[0])
        if d1 == d2 == d3 == 0:
            xs = (a[0], b[0], c[0])
            ys = (a[1], b[1], c[1])
            if min(xs) <= p[0] <= max(xs) and min(ys) <= p[1] <= max(ys):
                return True
        elif (d1 >= 0 and d2 >= 0 and d3 >= 0) or (d1 <= 0 and d2 <= 0 and d3 <= 0):
            return True
    return False


def lattice_convex_brute(K) -> bool:
    xs = [p[0] for p in K]
    ys = [p[1] for p in K]
    return all((x, y) in K or not in_hull_brute(K, (x, y))
               for x in range(min(xs), max(xs) + 1)
               for y in range(min(ys), max(ys) + 1))


def fake_latcov(**overrides):
    """Namespace standing in for latcov: Covariogram keeps the entries
    dict, LatticeError is ValueError, and the called functions are the
    given ones."""
    return types.SimpleNamespace(
        covariogram=types.SimpleNamespace(Covariogram=lambda dim, e: e),
        lattice=types.SimpleNamespace(
            LatticeError=ValueError,
            is_lattice_convex=overrides.get("is_lattice_convex")),
        invariants=types.SimpleNamespace(
            invariants_direct=overrides.get("invariants_direct")),
        reconstruct=types.SimpleNamespace(
            reconstruct_all=overrides.get("reconstruct_all"),
            invariants_from_covariogram=overrides.get("inv_cov")))


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr([sorted(x) if isinstance(x, (frozenset, set, dict))
                       else x for x in item]).encode())
    return h.hexdigest()


class GeneratorTest(unittest.TestCase):
    def test_random_convex_is_lattice_convex_with_exact_extent(self):
        rng = random.Random(7)
        for tx in range(1, 6):
            for ty in range(1, 5):
                for _ in range(3):
                    K = gen.random_convex(rng, tx, ty)
                    self.assertEqual(gen.extent(K), (tx, ty))
                    self.assertEqual(min(x for x, _ in K), 0)
                    self.assertEqual(min(y for _, y in K), 0)
                    self.assertTrue(lattice_convex_brute(K), sorted(K))
                    self.assertEqual(gen.fill(gen.hull(K)), K)

    def test_random_nonconvex_is_not_lattice_convex(self):
        rng = random.Random(8)
        for tx, ty in ((5, 4), (4, 5), (3, 3), (2, 5)):
            for _ in range(4):
                K = gen.random_convex(rng, tx, ty, size=10, inner=True)
                self.assertEqual(len(K), 10)
                L = gen.minus_inner_point(rng, K)
                self.assertEqual(gen.extent(L), (tx, ty))
                self.assertFalse(lattice_convex_brute(L), sorted(L))

    def test_shear_keeps_lattice_convexity(self):
        rng = random.Random(9)
        for axis in (0, 1):
            K = gen.random_convex(rng, 3, 2, inner=True)
            L = gen.minus_inner_point(rng, K)
            for s in (-3, 2):
                F = gen.shear_far(K, s, axis, (100, -50))
                self.assertEqual(min(p[0] for p in F), 100)
                self.assertEqual(min(p[1] for p in F), -50)
                self.assertTrue(lattice_convex_brute(F))
                self.assertFalse(lattice_convex_brute(
                    gen.shear_far(L, s, axis, (0, 0))))

    def test_known_pairs_are_nontrivially_homometric(self):
        pairs = gen.known_pairs()
        self.assertEqual(len(pairs), 12)
        for K, L in pairs:
            for P in (K, L):
                self.assertTrue(lattice_convex_brute(P))
                self.assertLessEqual(gen.extent(P), (5, 4))
            self.assertEqual(gen.covariogram(K), gen.covariogram(L))
            self.assertNotEqual(gen.canonical(K), gen.canonical(L))

    def test_canonical_is_class_invariant(self):
        K = gen.known_pairs()[0][0]
        moved = frozenset((7 - x, -3 - y) for x, y in K)
        self.assertEqual(gen.canonical(K), gen.canonical(moved))


class SeedTest(unittest.TestCase):
    def build_digests(self, seed):
        fake = fake_latcov()
        return (digest(workloads.build_recon(seed, fake)),
                digest(workloads.build_geom(seed, fake)))

    def test_same_seed_same_inputs(self):
        self.assertEqual(self.build_digests(11), self.build_digests(11))
        self.assertNotEqual(self.build_digests(11), self.build_digests(12))

    def test_inputs_do_not_depend_on_hash_seed(self):
        code = ("import test_perfbench as t; "
                "print(t.SeedTest().build_digests(5))")
        outs = {subprocess.run(
            [sys.executable, "-c", code], cwd=HERE, capture_output=True,
            text=True, check=True,
            env=dict(os.environ, PYTHONHASHSEED=h)).stdout
            for h in ("1", "2")}
        self.assertEqual(len(outs), 1)

    def test_batch_composition(self):
        items = workloads.build_recon(3, fake_latcov())
        n_convex = sum(1 for _, _, forms, _ in items if forms)
        n_pairs = sum(1 for _, _, _, n in items if n == 2)
        self.assertEqual(len(items), 162)
        self.assertEqual((n_convex, n_pairs), (132, 36))
        geo = workloads.build_geom(3, fake_latcov())
        self.assertEqual(len(geo), 160)
        self.assertEqual(sum(1 for *_, c in geo if c), 80)
        for K, _, _ in geo:
            self.assertLess(max(max(p) for p in K), 2 ** 31)
            self.assertGreater(min(min(p) for p in K), 2 ** 30)


class GateTest(unittest.TestCase):
    """Each correctness gate fails a wrong answer."""

    def recon_batch(self):
        return workloads.build_recon(4, fake_latcov())

    def test_recon_accepts_the_right_answer(self):
        batch = self.recon_batch()
        answers = {id(g): sorted(forms, key=sorted) for g, _, forms, _ in batch}
        s = workloads.run_recon(batch, 0, fake_latcov(
            reconstruct_all=lambda g: answers[id(g)]))
        self.assertEqual((s.attempted, s.failed), (162, 0))

    def test_recon_rejects_wrong_answers(self):
        batch = self.recon_batch()
        for wrong in (lambda g: [],
                      lambda g: [frozenset({(0, 0), (1, 0), (0, 1)})]):
            s = workloads.run_recon(batch, 0, fake_latcov(reconstruct_all=wrong))
            self.assertGreater(s.failed, 0)
        # a member of a known pair reconstructed as one class only
        answers = {id(g): sorted(forms, key=sorted)[:1] for g, _, forms, _ in batch}
        s = workloads.run_recon(batch, 0, fake_latcov(
            reconstruct_all=lambda g: answers[id(g)]))
        self.assertEqual(s.failed, 36)

    def test_geom_rejects_wrong_verdicts(self):
        batch = workloads.build_geom(4, fake_latcov())[:6]
        convex = {K: c for K, _, c in batch}

        def direct(K):
            if not convex[K]:
                raise ValueError("not lattice-convex")
            return len(K)

        ok = dict(is_lattice_convex=convex.get, invariants_direct=direct,
                  inv_cov=lambda g: g[(0, 0)])
        s = workloads.run_geom(batch, 0, fake_latcov(**ok))
        self.assertEqual((s.attempted, s.failed), (18, 0))
        for key, wrong in (("is_lattice_convex", lambda K: True),
                           ("inv_cov", lambda g: -1),
                           ("invariants_direct", lambda K: len(K))):
            s = workloads.run_geom(batch, 0, fake_latcov(**{**ok, key: wrong}))
            self.assertGreater(s.failed, 0, key)


class TracerTest(unittest.TestCase):
    def setUp(self):
        # A package with only some of the traced names: lattice has
        # canonical_form, and a caller module imported it by name.
        pkg = types.ModuleType("fakelat")
        pkg.__path__ = []
        lattice = types.ModuleType("fakelat.lattice")
        exec("def canonical_form(K):\n    return frozenset(K)\n"
             "def extent(K):\n    return 0\n", lattice.__dict__)
        user = types.ModuleType("fakelat.user")
        user.canonical_form = lattice.canonical_form
        exec("def go():\n    return [canonical_form({(0, 0)}) for _ in range(3)]\n",
             user.__dict__)
        self.mods = {"fakelat": pkg, "fakelat.lattice": lattice,
                     "fakelat.user": user}
        sys.modules.update(self.mods)

    def tearDown(self):
        for name in self.mods:
            sys.modules.pop(name, None)

    def test_missing_layers_read_zero(self):
        tracer = Tracer()
        tracer.install(package="fakelat")
        self.assertEqual(sorted(tracer.wrapped),
                         ["fakelat.lattice.canonical_form",
                          "fakelat.user.canonical_form"])
        self.mods["fakelat.user"].go()
        m = tracer.metrics()
        self.assertEqual(m["canon.calls"], 3)
        self.assertGreater(m["canon.s"], 0)
        for name in ("enum.calls", "enum.sets", "cov.calls", "match.calls",
                     "recon.hit_ratio", "search.useful_ratio", "cli.self_s"):
            self.assertEqual(m[name], 0, name)
        self.assertLessEqual(set(m), set(PER_LAYER))

    def test_iterators_are_timed_per_resumption(self):
        tracer = Tracer()

        def gen_sets():
            yield from range(4)

        wrapped = tracer.wrap("_polygons.sets", "_polygons", gen_sets)
        self.assertEqual(list(wrapped()), [0, 1, 2, 3])
        m = tracer.metrics()
        self.assertEqual((m["enum.calls"], m["enum.sets"]), (1, 4))


if __name__ == "__main__":
    unittest.main()
