"""Per-layer spans and counts, recorded from outside latcov.

install() replaces latcov functions, at every module attribute that
holds them (which is where callers look them up, e.g.
latcov.search.compute_covariogram), with wrappers that record a span
per call: name, duration, and the span that was open when it started.
Calls that return an iterator get one span per resumption.  Nothing in
latcov changes.

A wrapped name that no longer exists is skipped, and one that is no
longer called records nothing: its metrics read 0 and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from collections.abc import Iterator

# Layer module -> the functions wrapped in it.  "*" wraps every public
# function the module defines, so the enumeration layer is followed
# through renames and splits.
LAYERS = {
    "_polygons": "*",
    "covariogram": ("compute_covariogram", "covariogram_equal"),
    "lattice": ("canonical_form", "is_lattice_convex", "hull_lattice_points",
                "difference_set", "affine_witnesses"),
    "search": ("enumerate_lattice_convex", "homometric_classes",
               "match_corollary"),
    "reconstruct": ("reconstruct_all", "invariants_from_covariogram",
                    "edge_pair_from_covariogram"),
    "invariants": ("invariants_direct",),
    "homometry": ("mirror_pair",),
    "cli": ("main",),
}

# Per-layer metric -> (unit, better); the order in which they are printed.
PER_LAYER = {
    "enum.calls": ("count", "lower"),
    "enum.sets": ("count", "lower"),
    "enum.s": ("s", "lower"),
    "enum.j2_s": ("s", "lower"),
    "cov.calls": ("count", "lower"),
    "cov.pairs": ("count", "lower"),
    "cov.s": ("s", "lower"),
    "canon.calls": ("count", "lower"),
    "canon.s": ("s", "lower"),
    "convex.calls": ("count", "lower"),
    "convex.s": ("s", "lower"),
    "hull_scan.cells": ("count", "lower"),
    "group.self_s": ("s", "lower"),
    "group.buckets": ("count", "lower"),
    "search.useful_ratio": ("ratio", "higher"),
    "match.calls": ("count", "lower"),
    "match.s": ("s", "lower"),
    "affine.calls": ("count", "lower"),
    "recon.candidates": ("count", "lower"),
    "recon.diffset_calls": ("count", "lower"),
    "recon.cov_calls": ("count", "lower"),
    "recon.hit_ratio": ("ratio", "higher"),
    "recon.self_s": ("s", "lower"),
    "inv_direct.s": ("s", "lower"),
    "inv_cov.s": ("s", "lower"),
    "edge_pair.calls": ("count", "lower"),
    "edge_pair.s": ("s", "lower"),
    "mirror_pair.calls": ("count", "lower"),
    "mirror_pair.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace_overhead": ("ratio", "lower"),
}

GROUP = "search.homometric_classes"
RECON = "reconstruct.reconstruct_all"


class Tracer:
    """Spans kept in memory as per-name totals.

    For each span name: calls (wrapper invocations, not resumptions),
    incl_s (time inside, counted at the outermost span of that name),
    self_s (time inside minus time in child spans) and items (length of
    a returned tuple or list, or values yielded).  Per layer: calls
    entered from outside the layer and time at the outermost span of the
    layer.
    """

    def __init__(self):
        self.stack: list = []          # open spans: [name, layer, start, child_s]
        self.depth = Counter()         # open spans per name
        self.layer_depth = Counter()   # open spans per layer
        self.calls = Counter()
        self.incl_s = Counter()
        self.self_s = Counter()
        self.items = Counter()
        self.layer_calls = Counter()
        self.layer_s = Counter()
        self.counts = Counter()        # hook counters
        self.fingerprints: set = set()
        self.wrapped: list = []

    # -- spans --------------------------------------------------------------

    def _enter(self, name, layer, call):
        if call:
            self.calls[name] += 1
            if not self.layer_depth[layer]:
                self.layer_calls[layer] += 1
        self.depth[name] += 1
        self.layer_depth[layer] += 1
        self.stack.append([name, layer, time.perf_counter(), 0.0])

    def _leave(self, items=0):
        name, layer, start, child_s = self.stack.pop()
        dur = time.perf_counter() - start
        self.depth[name] -= 1
        self.layer_depth[layer] -= 1
        self.self_s[name] += dur - child_s
        if not self.depth[name]:
            self.incl_s[name] += dur
        if not self.layer_depth[layer]:
            self.layer_s[layer] += dur
        if self.stack:
            self.stack[-1][3] += dur
        if items:
            self.items[name] += items
            if layer == "_polygons" and self.depth[RECON]:
                self.counts["recon.candidates"] += items

    def _resumptions(self, name, layer, it):
        while True:
            self._enter(name, layer, call=False)
            try:
                item = next(it)
            except StopIteration:
                self._leave()
                return
            except BaseException:
                self._leave()
                raise
            self._leave(items=1)
            yield item

    def wrap(self, name, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name, layer, call=True)
            parent = self.stack[-2][0] if len(self.stack) > 1 else None
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._leave()
                raise
            items = len(result) if isinstance(result, (tuple, list)) else 0
            self._leave(items)
            self._after(name, parent, args, result)
            if isinstance(result, Iterator):
                return self._resumptions(name, layer, result)
            return result
        return traced

    # -- counts taken at the boundaries ---------------------------------------

    def _after(self, name, parent, args, result):
        c = self.counts
        if name == "covariogram.compute_covariogram":
            try:
                c["cov.pairs"] += len(args[0]) ** 2
            except (IndexError, TypeError):
                pass
            if self.depth[RECON]:
                c["recon.cov_calls"] += 1
            if parent == GROUP:
                try:
                    self.fingerprints.add(
                        hash(frozenset(result.entries.items())))
                except (AttributeError, TypeError, ValueError):
                    pass
        elif name == "lattice.difference_set" and self.depth[RECON]:
            c["recon.diffset_calls"] += 1
        elif name == "lattice.hull_lattice_points":
            try:
                vs = args[0].vertices
                c["hull_scan.cells"] += (
                    (max(v[0] for v in vs) - min(v[0] for v in vs) + 1)
                    * (max(v[1] for v in vs) - min(v[1] for v in vs) + 1))
            except (AttributeError, IndexError, TypeError, ValueError):
                pass
        elif name == RECON:
            try:
                c["recon.classes"] += len(result)
            except TypeError:
                pass
        elif name == GROUP:
            # Enumerated sets that land in a reported class: each member
            # class is enumerated once, or twice when it is not centrally
            # symmetric (its reflection is another translation class).
            try:
                for cls in result.classes:
                    for m in cls.members:
                        c["group.useful_sets"] += 1 if _is_symmetric(m) else 2
            except (AttributeError, TypeError):
                pass

    # -- install and report ---------------------------------------------------

    def install(self, package="latcov"):
        """Wrap the LAYERS functions wherever latcov modules hold them."""
        originals = {}
        for layer, names in LAYERS.items():
            try:
                mod = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                continue
            if names == "*":
                names = [n for n, f in vars(mod).items()
                         if not n.startswith("_") and inspect.isfunction(f)
                         and f.__module__ == mod.__name__]
            for n in names:
                fn = getattr(mod, n, None)
                if inspect.isfunction(fn):
                    originals[id(fn)] = (fn, self.wrap(f"{layer}.{n}", layer, fn))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package
                                   or modname.startswith(package + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self.wrapped.append(f"{modname}.{attr}")

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far; 0 for layers
        that were not exercised."""
        c = self.counts
        cov_calls = self.calls["covariogram.compute_covariogram"]
        recon_cov = c["recon.cov_calls"]
        return {
            "enum.calls": self.layer_calls["_polygons"],
            "enum.sets": sum(v for k, v in self.items.items()
                             if k.startswith("_polygons.")),
            "enum.s": self.layer_s["_polygons"],
            "cov.calls": cov_calls,
            "cov.pairs": c["cov.pairs"],
            "cov.s": self.layer_s["covariogram"],
            "canon.calls": self.calls["lattice.canonical_form"],
            "canon.s": self.incl_s["lattice.canonical_form"],
            "convex.calls": self.calls["lattice.is_lattice_convex"],
            "convex.s": self.incl_s["lattice.is_lattice_convex"],
            "hull_scan.cells": c["hull_scan.cells"],
            "group.self_s": self.self_s[GROUP],
            "group.buckets": len(self.fingerprints),
            "search.useful_ratio": (c["group.useful_sets"] / cov_calls
                                    if cov_calls else 0.0),
            "match.calls": self.calls["search.match_corollary"],
            "match.s": self.incl_s["search.match_corollary"],
            "affine.calls": self.calls["lattice.affine_witnesses"],
            "recon.candidates": c["recon.candidates"],
            "recon.diffset_calls": c["recon.diffset_calls"],
            "recon.cov_calls": recon_cov,
            "recon.hit_ratio": (c["recon.classes"] / recon_cov
                                if recon_cov else 0.0),
            "recon.self_s": self.self_s[RECON],
            "inv_direct.s": self.incl_s["invariants.invariants_direct"],
            "inv_cov.s": self.incl_s["reconstruct.invariants_from_covariogram"],
            "edge_pair.calls": self.calls["reconstruct.edge_pair_from_covariogram"],
            "edge_pair.s": self.incl_s["reconstruct.edge_pair_from_covariogram"],
            "mirror_pair.calls": self.calls["homometry.mirror_pair"],
            "mirror_pair.s": self.incl_s["homometry.mirror_pair"],
            "cli.self_s": self.self_s["cli.main"],
        }


def _is_symmetric(K) -> bool:
    """-K is a translate of K."""
    mx = min(p[0] for p in K) + max(p[0] for p in K)
    my = min(p[1] for p in K) + max(p[1] for p in K)
    return {(mx - x, my - y) for x, y in K} == set(K)
