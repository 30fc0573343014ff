"""Command line toolkit.

Every integer read, in a file or a flag, is ASCII digits after an
optional sign, at most COORD_LIMIT in absolute value; anything else, such
as a non-ASCII digit, a superscript or '1_0', exits 2 naming the file and
line, or the flag.

File formats
------------
Points file: one point per line, whitespace-separated integers.  An
optional first line "dim <d>" fixes the dimension (default 2).  A '#'
starts a comment; blank lines are ignored; duplicate points are an error.

Covariogram file: a required "dim <d>" line, then one entry per line as
d coordinates and a positive count.  Entries are sorted, and both u and
-u must be present.  Serialization is unique, so parse and serialize
round-trip bit-exactly.  A file with no entries is refused, whatever its
d, before any d-tuple is built.

gen-pair refuses, before building it, a pair S + T of more than
PAIR_POINT_LIMIT points, and product-pair a pair K x L of more than
PRODUCT_COORD_LIMIT coordinates.  verify-thm22 refuses, before building any
sum, a base S whose sum S + T has more than VERIFY_POINT_LIMIT points or
whose checks would scan more than VERIFY_CELL_LIMIT box cells.
reconstruct refuses, before enumerating any closing, a covariogram with
more than reconstruct.FREE_LINE_LIMIT free lines unless --allow-large
is given, as search refuses a box past the desk-scale limit.

Exit codes: 0 success or affirmative verdict, 1 negative verdict
(check-convex false, affine-equiv none, verify-thm22 mismatch) or output
cut short by a reader that closed stdout, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .covariogram import Covariogram, compute_covariogram, support_of
from .homometry import (
    HexagonParams,
    WidthOneParams,
    condition_i,
    condition_ii,
    corollary_pair_generator,
    decompose_plane,
    product_pair,
)
from .invariants import invariants_direct
from .lattice import (
    LatticeError,
    affine_equivalent,
    canonical_form,
    difference_set,
    is_lattice_convex,
    point_set,
)
from .reconstruct import (
    edge_pair_from_covariogram,
    invariants_from_covariogram,
    reconstruct_all,
    verdict_of,
)
from .search import homometric_classes

COORD_LIMIT = 2 ** 31
PAIR_POINT_LIMIT = 3000
PRODUCT_COORD_LIMIT = 3600
VERIFY_POINT_LIMIT = 100_000
VERIFY_CELL_LIMIT = 1_000_000


class FormatError(Exception):
    """Malformed input; the message names the file and line, or the flag."""


def _int(token: str, where: str) -> int:
    """The one integer grammar: ASCII digits after an optional sign, at
    most COORD_LIMIT in absolute value."""
    digits = token[1:] if token[:1] in ("+", "-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise FormatError(f"{where}: not an integer: {token!r}")
    digits = digits.lstrip("0") or "0"      # int() reads at most 4300 digits
    if len(digits) > len(str(COORD_LIMIT)) or int(digits) > COORD_LIMIT:
        raise FormatError(f"{where}: out of range: {token!r}")
    return -int(digits) if token[0] == "-" else int(digits)


def _ints(text: str, sep: str, count: int, flag: str) -> list:
    """The count integers of a flag's value, split at sep."""
    parts = text.split(sep)
    if len(parts) != count:
        raise FormatError(f"{flag} expects {count} integers, got {text!r}")
    return [_int(part, flag) for part in parts]


def _parse_box(text):
    try:
        w, h = _ints(text.lower(), "x", 2, "--box")
    except FormatError:
        raise FormatError(f"--box expects WxH, got {text!r}") from None
    if w < 1 or h < 1:
        raise FormatError("--box dimensions must be positive")
    return w, h


def _rows(text: str, path: str, dim):
    """The dimension of a points or covariogram text, and its other lines
    as (where, integer tuple) with where "path:line".

    A '#' starts a comment and blank lines are skipped.  A first line
    "dim <d>" with d >= 1 sets the dimension; without one it is dim, and
    dim None makes the header required."""
    rows = [(f"{path}:{n}", fields)
            for n, line in enumerate(text.splitlines(), 1)
            if (fields := line.split("#", 1)[0].split())]
    where, fields = rows[0] if rows else (f"{path}:1", [""])
    if fields[0] == "dim":
        if len(fields) != 2 or (dim := _int(fields[1], where)) < 1:
            raise FormatError(f"{where}: bad dim header")
        del rows[0]
    elif dim is None:
        raise FormatError(f"{where}: missing dim header")
    return dim, ((where, tuple([_int(tok, where) for tok in fields]))
                 for where, fields in rows)


def parse_points(text: str, path: str = "<points>") -> frozenset:
    dim, rows = _rows(text, path, 2)
    pts = set()
    for where, p in rows:
        if len(p) != dim:
            raise FormatError(f"{where}: expected {dim} coordinates")
        if p in pts:
            raise FormatError(f"{where}: duplicate point")
        pts.add(p)
    if not pts:
        raise FormatError(f"{path}:1: no points")
    return frozenset(pts)


def serialize_points(points) -> str:
    pts = sorted(point_set(points))
    dim = len(pts[0])
    lines = [f"dim {dim}"]
    lines += [" ".join(str(c) for c in p) for p in pts]
    return "\n".join(lines) + "\n"


def parse_covariogram(text: str, path: str = "<covariogram>") -> Covariogram:
    dim, rows = _rows(text, path, None)
    entries = {}
    for where, vals in rows:
        if len(vals) != dim + 1:
            raise FormatError(f"{where}: expected {dim} coordinates and a count")
        u = vals[:dim]
        if u in entries:
            raise FormatError(f"{where}: duplicate vector")
        if vals[dim] <= 0:
            raise FormatError(f"{where}: count must be positive")
        entries[u] = vals[dim]
    try:
        return Covariogram(dim, entries)
    except LatticeError as exc:
        raise FormatError(f"{path}:1: {exc}") from None


def serialize_covariogram(g: Covariogram) -> str:
    lines = [f"dim {g.dim}"]
    for u in sorted(g.entries):
        lines.append(" ".join(str(c) for c in u) + f" {g.entries[u]}")
    return "\n".join(lines) + "\n"


def _load_points(path) -> frozenset:
    return parse_points(_read(path), path)


def _load_cov(path) -> Covariogram:
    return parse_covariogram(_read(path), path)


def _read(path) -> str:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FormatError(f"{path}:0: {exc.strerror or exc}") from None
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(
            f"{path}:{line}: non-ASCII byte 0x{data[exc.start]:02x}") from None


def _fmt_point(p) -> str:
    return ",".join(str(c) for c in p)


def _fmt_set(points) -> str:
    return ";".join(_fmt_point(p) for p in sorted(points))


def _fmt_matrix(m) -> str:
    return ",".join(str(c) for row in m for c in row)


def _fmt_scalar(v) -> str:
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v == float("inf"):
        return "inf"
    return str(v)


def _field(key, value):
    print(f"{key}={value}")


def _cmd_compute_cov(args):
    K = _load_points(args.points)
    sys.stdout.write(serialize_covariogram(compute_covariogram(K)))
    return 0


def _cmd_diffset(args):
    if args.from_cov:
        d = support_of(_load_cov(args.points))
    else:
        d = difference_set(_load_points(args.points))
    sys.stdout.write(serialize_points(d))
    return 0


def _cmd_invariants(args):
    if args.from_cov:
        rec = invariants_from_covariogram(_load_cov(args.points))
    else:
        rec = invariants_direct(_load_points(args.points))
    _field("normals", _fmt_set(rec.normals))
    _field("m_prime", _fmt_scalar(rec.m_prime))
    _field("m_doubleprime", _fmt_scalar(rec.m_doubleprime))
    _field("m", _fmt_scalar(rec.m))
    _field("delta", f"{rec.delta.numerator}/{rec.delta.denominator}")
    _field("det_set", ",".join(str(d) for d in sorted(rec.det_set)))
    _field("certified", _fmt_scalar(rec.certified))
    return 0


def _cmd_edges(args):
    g = _load_cov(args.covariogram)
    sketch = edge_pair_from_covariogram(g, _ints(args.normal, ",", 2, "--normal"))
    _field("normal", _fmt_point(sketch.normal))
    _field("long_row", _fmt_set(sketch.long_row))
    _field("short_row", _fmt_set(sketch.short_row))
    return 0


def _cmd_reconstruct(args):
    g = _load_cov(args.covariogram)
    box = _parse_box(args.box) if args.box is not None else (None, None)
    hits = reconstruct_all(g, allow_large=args.allow_large)
    verdict = verdict_of(hits, *box)
    if verdict == "out-of-box":
        hits = []
    _field("verdict", verdict)
    _field("class_count", len(hits))
    for i, K in enumerate(hits):
        _field(f"class.{i}", _fmt_set(K))
    return 0


def _cmd_check_convex(args):
    verdict = is_lattice_convex(_load_points(args.points))
    _field("lattice_convex", _fmt_scalar(verdict))
    return 0 if verdict else 1


def _cmd_canonical(args):
    sys.stdout.write(serialize_points(canonical_form(_load_points(args.points))))
    return 0


def _cmd_affine_equiv(args):
    fn = affine_equivalent(_load_points(args.first), _load_points(args.second))
    if fn is None:
        _field("equivalent", "false")
        return 1
    _field("equivalent", "true")
    _field("matrix", _fmt_matrix(fn.matrix))
    _field("shift", _fmt_point(fn.shift))
    return 0


def _pair_report(report, out_prefix, *lead):
    """Print the lead fields, then the pair, or with out_prefix the files
    it was written to; the files are written first, so that a write that
    fails prints nothing."""
    tail = [("first", _fmt_set(report.first)),
            ("second", _fmt_set(report.second))]
    if out_prefix:
        tail = []
        for tag, pts in (("plus", report.first), ("minus", report.second)):
            path = f"{out_prefix}-{tag}.pts"
            try:
                with open(path, "w", encoding="ascii") as fh:
                    fh.write(serialize_points(pts))
            except OSError as exc:
                raise FormatError(f"{path}: {exc.strerror or exc}") from None
            tail.append((f"wrote_{tag}", path))
    for key, value in (*lead, ("homometric", _fmt_scalar(report.homometric)),
                       ("nontrivial", _fmt_scalar(report.nontrivial)), *tail):
        _field(key, value)
    return 0


def _check_pair_size(m: int, n: int, limit: int, where: str,
                     unit: str = "points") -> None:
    """Refuse, before any point is built, a pair of m times n units that
    exceeds limit.  Both commands verify their pair through two
    covariograms, quadratic in its size.

    gen-pair (PAIR_POINT_LIMIT; |S| times |T| = k + l + 2 points) is
    planar: 2,403 points took 5.2 s, 2,997 points 8.9 s and 4,995
    points 27 s (k = 400, 499 and 832 on a three-point window).
    product-pair (PRODUCT_COORD_LIMIT; |K| |L| points times d_K + d_L
    coordinates each) runs in the product dimension, on the generic
    path: two 30-point planar sets in general position (900 points in
    4-D, 3,600 coordinates) took 2.7 s and 259 MB, two in 3-D (5,400
    coordinates) 3.3 s and 424 MB, two 60-point planar sets (14,400)
    52 s and 3.9 GB, and two 30-point sets in 10-D (18,000) 5.3 s and
    892 MB.  2 vCPUs, Python 3.11.7."""
    if m * n > limit:
        raise FormatError(f"{where}: a pair of {m * n} {unit} exceeds the "
                          f"limit of {limit}")


def _cmd_gen_pair(args):
    params = WidthOneParams(args.k, args.l)
    hexagon = HexagonParams(*_ints(args.hex, ",", 6, "--hex"))
    _check_pair_size(hexagon.size(), params.index, PAIR_POINT_LIMIT,
                     "--k, --l")
    report = corollary_pair_generator(params, hexagon)
    return _pair_report(report, args.out, ("k", params.k),
                        ("l", params.ell), ("base", _fmt_set(report.base)))


def _check_verify_size(S, params: WidthOneParams, path: str) -> None:
    """Refuse, before any sum is built, a verify-thm22 base S whose check
    would be slow: one of more than VERIFY_POINT_LIMIT sums s + t, or one
    whose bounding-box scans, of S + T for condition_i and of S in
    sublattice coordinates for condition_ii, cover more than
    VERIFY_CELL_LIMIT cells.  Both boxes follow from S's box and k, l.

    Near the limits both checks together took 0.61 s on a 33,124-point
    window (99,372 sums, 198,380 cells; k = 1), 0.12 s on 99,999 sums
    of three points (k = 33,331) and 0.35 s on a 3-point sliver whose
    sublattice box has 1,002,001 cells (2 vCPUs, Python 3.11.7)."""
    sums = len(S) * params.index
    if sums > VERIFY_POINT_LIMIT:
        raise FormatError(f"--k, --l: a sum of {sums} points exceeds the "
                          f"limit of {VERIFY_POINT_LIMIT}")
    if len(next(iter(S))) != 2:
        return                      # refused by the checks, scanning nothing
    w = max(x for x, _ in S) - min(x for x, _ in S)
    h = max(y for _, y in S) - min(y for _, y in S)
    # sublattice coordinates i = ((l+1) y - x) / index, j = (x + (k+1) y) / index
    cells = max((w + params.k + 1) * (h + 2),
                ((w + (params.ell + 1) * h) // params.index + 1)
                * ((w + (params.k + 1) * h) // params.index + 1))
    if cells > VERIFY_CELL_LIMIT:
        raise FormatError(f"{path}, --k, --l: a scan of {cells} cells "
                          f"exceeds the limit of {VERIFY_CELL_LIMIT}")


def _cmd_verify_thm22(args):
    params = WidthOneParams(args.k, args.l)
    S = _load_points(args.points)
    _check_verify_size(S, params, args.points)
    ci = condition_i(S, params)
    cii = condition_ii(S, params)
    _field("condition_i", _fmt_scalar(ci))
    _field("condition_ii", _fmt_scalar(cii))
    _field("agree", _fmt_scalar(ci == cii))
    return 0 if ci == cii else 1


def _cmd_product_pair(args):
    K, L = _load_points(args.first), _load_points(args.second)
    dims = len(next(iter(K))) + len(next(iter(L)))
    _check_pair_size(len(K) * len(L), dims, PRODUCT_COORD_LIMIT,
                     f"{args.first}, {args.second}", "coordinates")
    report = product_pair(K, L)
    return _pair_report(report, args.out,
                        ("dim", len(next(iter(report.first)))))


def _cmd_search(args):
    w, h = _parse_box(args.box)
    report = homometric_classes(w, h, jobs=args.jobs,
                                match=args.match_corollary,
                                allow_large=args.allow_large)
    _field("box_width", report.width)
    _field("box_height", report.height)
    _field("total_sets", report.total_classes)
    _field("class_count", len(report.classes))
    for ci, cls in enumerate(report.classes):
        if args.format == "human":
            print(f"# class {ci}")
        _field(f"class.{ci}.size", len(cls.members))
        for mi, member in enumerate(cls.members):
            _field(f"class.{ci}.member.{mi}", _fmt_set(member))
        for pi, pair in enumerate(cls.pairs):
            prefix = f"class.{ci}.pair.{pi}"
            a = cls.members.index(pair.first)
            b = cls.members.index(pair.second)
            _field(f"{prefix}.members", f"{a},{b}")
            if not args.match_corollary:
                continue
            if pair.match is None:
                _field(f"{prefix}.verdict", "unmatched")
                print("warning: unmatched homometric pair "
                      "(candidate new example)", file=sys.stderr)
            else:
                m = pair.match
                _field(f"{prefix}.verdict", "matched")
                _field(f"{prefix}.k", m.params.k)
                _field(f"{prefix}.l", m.params.ell)
                _field(f"{prefix}.hex",
                       f"{m.hexagon.a1},{m.hexagon.a2},{m.hexagon.b1},"
                       f"{m.hexagon.b2},{m.hexagon.g1},{m.hexagon.g2}")
                _field(f"{prefix}.matrix", _fmt_matrix(m.first_map.matrix))
                _field(f"{prefix}.shift", _fmt_point(m.first_map.shift))
                _field(f"{prefix}.shift2", _fmt_point(m.second_map.shift))
                _field(f"{prefix}.swapped", _fmt_scalar(m.swapped))
    return 0


def _cmd_decompose(args):
    params = WidthOneParams(args.k, args.l)
    lam, t = decompose_plane(_ints(args.point, ",", 2, "--point"), params)
    _field("sublattice_part", _fmt_point(lam))
    _field("strip_part", _fmt_point(t))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="latcov",
        description="Exact covariogram toolkit for lattice-convex planar sets.")
    ap.add_argument("--format", choices=("human", "records"), default="human",
                    help="output style; records is stable key=value lines")
    sub = ap.add_subparsers(dest="command", required=True)
    # shared arguments; a parent's come before the subcommand's own
    points = argparse.ArgumentParser(add_help=False)
    points.add_argument("points")
    strip = argparse.ArgumentParser(add_help=False)
    strip.add_argument("--k", type=lambda s: _int(s, "--k"), required=True)
    strip.add_argument("--l", type=lambda s: _int(s, "--l"), required=True)

    p = sub.add_parser("compute-cov", parents=[points],
                       help="covariogram of a points file")
    p.set_defaults(fn=_cmd_compute_cov)

    p = sub.add_parser("diffset", parents=[points],
                       help="difference set of a points file")
    p.add_argument("--from-cov", action="store_true",
                   help="read a covariogram file and print its support")
    p.set_defaults(fn=_cmd_diffset)

    p = sub.add_parser("invariants", parents=[points],
                       help="edge-normal invariant record")
    p.add_argument("--from-cov", action="store_true",
                   help="read a covariogram file instead of points")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("edges", help="boundary row pair from a covariogram")
    p.add_argument("covariogram")
    p.add_argument("--normal", required=True, metavar="UX,UY")
    p.set_defaults(fn=_cmd_edges)

    p = sub.add_parser("reconstruct",
                       help="all realizing sets of a covariogram, up to class")
    p.add_argument("covariogram")
    p.add_argument("--box", metavar="WxH",
                   help="box the sets must fit (default: no limit)")
    p.add_argument("--allow-large", action="store_true",
                   help="lift the free-line limit")
    p.set_defaults(fn=_cmd_reconstruct)

    p = sub.add_parser("check-convex", parents=[points],
                       help="lattice convexity predicate")
    p.set_defaults(fn=_cmd_check_convex)

    p = sub.add_parser("canonical", parents=[points],
                       help="representative up to translation and reflection")
    p.set_defaults(fn=_cmd_canonical)

    p = sub.add_parser("affine-equiv",
                       help="unimodular affine map between two points files")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=_cmd_affine_equiv)

    p = sub.add_parser("gen-pair", parents=[strip],
                       help="hexagon-family mirror pair for a width-one strip")
    p.add_argument("--hex", required=True, metavar="A1,A2,B1,B2,G1,G2")
    p.add_argument("--out", metavar="PREFIX",
                   help="write PREFIX-plus.pts and PREFIX-minus.pts")
    p.set_defaults(fn=_cmd_gen_pair)

    p = sub.add_parser("verify-thm22", parents=[points, strip],
                       help="equivalence of the direct-sum and shape conditions")
    p.set_defaults(fn=_cmd_verify_thm22)

    p = sub.add_parser("product-pair",
                       help="mirror pair of a cartesian product of two sets")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out", metavar="PREFIX",
                   help="write PREFIX-plus.pts and PREFIX-minus.pts")
    p.set_defaults(fn=_cmd_product_pair)

    p = sub.add_parser("search", help="homometric pair search over a box")
    p.add_argument("--box", required=True, metavar="WxH")
    p.add_argument("--jobs", type=lambda s: _int(s, "--jobs"), default=1,
                   help="accepted from 1 up; the search runs in one process")
    p.add_argument("--match-corollary", action="store_true",
                   help="match every found pair against the hexagon family")
    p.add_argument("--allow-large", action="store_true",
                   help="lift the desk-scale box limit")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("decompose", parents=[strip],
                       help="split a point into sublattice and strip parts")
    p.add_argument("--point", required=True, metavar="X,Y")
    p.set_defaults(fn=_cmd_decompose)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except (FormatError, LatticeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader is gone: the flush at exit writes to devnull instead.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
