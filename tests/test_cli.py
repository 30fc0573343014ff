import fcntl
import hashlib
import os
import random
import resource
import subprocess
import sys
import time

import pytest

import helpers
import latcov.cli
from latcov.cli import (
    FormatError,
    main,
    parse_covariogram,
    parse_points,
    serialize_covariogram,
    serialize_points,
)
from latcov.covariogram import Covariogram, compute_covariogram
from latcov.homometry import HexagonParams, WidthOneParams, corollary_pair_generator

TRAP = "dim 2\n0 0\n1 0\n2 0\n3 0\n0 1\n1 1\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


SHARED_ARGUMENT_USAGE = {
    "gen-pair": ("usage: latcov gen-pair [-h] --k K --l L "
                 "--hex A1,A2,B1,B2,G1,G2 [--out PREFIX]",
                 "--k, --l, --hex"),
    "verify-thm22": ("usage: latcov verify-thm22 [-h] --k K --l L points",
                     "points, --k, --l"),
    "decompose": ("usage: latcov decompose [-h] --k K --l L --point X,Y",
                  "--k, --l, --point"),
    "diffset": ("usage: latcov diffset [-h] [--from-cov] points", "points"),
}


@pytest.mark.parametrize("command", sorted(SHARED_ARGUMENT_USAGE))
def test_shared_arguments_keep_usage_and_errors(capsys, command):
    # --k, --l and points come from parent parsers; the usage lines and
    # the missing-argument errors read as when each subcommand had its own
    usage, missing = SHARED_ARGUMENT_USAGE[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.splitlines()[0] == usage
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        usage, f"latcov {command}: error: the following arguments are "
        f"required: {missing}"]
    if "--k" in missing:
        with pytest.raises(SystemExit):
            main([command, "--k", "1", "x"])
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            f"latcov {command}: error: the following arguments are "
            "required: --l")


def test_points_parse_large_input():
    n = 100_000
    text = "".join(f"{i} {i * i % 9973}\n" for i in range(n))
    t0 = time.monotonic()
    assert len(parse_points(text)) == n
    assert time.monotonic() - t0 < 10
    with pytest.raises(FormatError, match=f"<points>:{n + 1}: duplicate"):
        parse_points(text + "7 49\n")


def test_points_roundtrip_random():
    rng = random.Random(900)
    for _ in range(50):
        pts = frozenset((rng.randint(-9, 9), rng.randint(-9, 9))
                        for _ in range(rng.randint(1, 12)))
        assert parse_points(serialize_points(pts)) == pts


def test_points_parse_features():
    text = "# leading comment\n\ndim 2\n1 2  # trailing\n-3 4\n"
    assert parse_points(text) == frozenset({(1, 2), (-3, 4)})
    # default dimension is 2 without a header
    assert parse_points("5 6\n") == frozenset({(5, 6)})
    with pytest.raises(FormatError, match="duplicate"):
        parse_points("1 1\n1 1\n")
    with pytest.raises(FormatError, match="expected 2"):
        parse_points("1 2 3\n")
    with pytest.raises(FormatError, match="out of range"):
        parse_points(f"{2**31 + 1} 0\n")
    with pytest.raises(FormatError, match="no points"):
        parse_points("# nothing here\n")
    with pytest.raises(FormatError, match="not an integer"):
        parse_points("a b\n")


def test_covariogram_roundtrip_random():
    rng = random.Random(901)
    for _ in range(40):
        K = frozenset((rng.randint(-4, 4), rng.randint(-4, 4))
                      for _ in range(rng.randint(1, 8)))
        g = compute_covariogram(K)
        text = serialize_covariogram(g)
        again = parse_covariogram(text)
        assert again.dim == g.dim and again.entries == g.entries
        assert serialize_covariogram(again) == text


def test_covariogram_parse_rejects_bad_input():
    with pytest.raises(FormatError, match="dim header"):
        parse_covariogram("0 0 1\n")
    with pytest.raises(FormatError, match="count must be positive"):
        parse_covariogram("dim 2\n0 0 0\n")
    with pytest.raises(FormatError):
        parse_covariogram("dim 2\n0 0 2\n1 0 1\n")  # asymmetric
    with pytest.raises(FormatError, match="duplicate"):
        parse_covariogram("dim 2\n0 0 2\n0 0 2\n")


def test_compute_and_invariants(tmp_path, capsys):
    pts = write(tmp_path, "trap.pts", TRAP)
    rc, out, _ = run(capsys, "compute-cov", pts)
    assert rc == 0
    cov = write(tmp_path, "trap.cov", out)
    rc, out1, _ = run(capsys, "--format", "records", "invariants", pts)
    assert rc == 0
    assert "m_prime=2" in out1
    assert "m_doubleprime=3" in out1
    assert "delta=2/1" in out1
    assert "certified=false" in out1
    rc, out2, _ = run(capsys, "--format", "records", "invariants",
                      "--from-cov", cov)
    assert out2 == out1


def test_diffset_modes_agree(tmp_path, capsys):
    pts = write(tmp_path, "t.pts", TRAP)
    rc, out, _ = run(capsys, "compute-cov", pts)
    cov = write(tmp_path, "t.cov", out)
    rc1, d1, _ = run(capsys, "diffset", pts)
    rc2, d2, _ = run(capsys, "diffset", "--from-cov", cov)
    assert rc1 == rc2 == 0
    assert d1 == d2


def test_edges_command(tmp_path, capsys):
    pts = write(tmp_path, "t.pts", TRAP)
    _, out, _ = run(capsys, "compute-cov", pts)
    cov = write(tmp_path, "t.cov", out)
    rc, out, _ = run(capsys, "edges", cov, "--normal", "0,-1")
    assert rc == 0
    assert "long_row=-1,-1;0,-1;1,-1;2,-1" in out
    assert "short_row=-1,0;0,0" in out


def test_check_convex_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "good.pts", TRAP)
    bad = write(tmp_path, "bad.pts", "0 0\n2 0\n0 2\n")
    rc, out, _ = run(capsys, "check-convex", good)
    assert rc == 0 and "true" in out
    rc, out, _ = run(capsys, "check-convex", bad)
    assert rc == 1 and "false" in out


def test_affine_equiv_exit_codes(tmp_path, capsys):
    a = write(tmp_path, "a.pts", "0 0\n1 0\n0 1\n")
    b = write(tmp_path, "b.pts", "5 5\n4 5\n5 4\n")  # reflected translate
    c = write(tmp_path, "c.pts", "0 0\n1 0\n0 1\n1 1\n")
    rc, out, _ = run(capsys, "affine-equiv", a, b)
    assert rc == 0
    assert "equivalent=true" in out
    assert "matrix=" in out and "shift=" in out
    rc, out, _ = run(capsys, "affine-equiv", a, c)
    assert rc == 1
    assert "equivalent=false" in out


def test_affine_equiv_in_time_on_large_sets(tmp_path, capsys):
    # 324 points each; the hulls differ in area, so no map exists
    grid = "".join(f"{i} {j}\n" for i in range(18) for j in range(18))
    strip = "".join(f"{i} {j}\n" for i in range(162) for j in range(2))
    a = write(tmp_path, "grid.pts", grid)
    b = write(tmp_path, "strip.pts", strip)
    t0 = time.monotonic()
    rc, out, _ = run(capsys, "affine-equiv", a, b)
    assert rc == 1 and "equivalent=false" in out
    assert time.monotonic() - t0 < 2


def test_gen_pair_stdout_and_files(tmp_path, capsys):
    rc, out, _ = run(capsys, "gen-pair", "--k", "1", "--l", "0",
                     "--hex", "0,1,0,1,0,1")
    assert rc == 0
    assert "homometric=true" in out
    assert "nontrivial=true" in out
    assert "first=" in out and "second=" in out
    prefix = str(tmp_path / "pair")
    rc, out, _ = run(capsys, "gen-pair", "--k", "1", "--l", "0",
                     "--hex", "0,1,0,1,0,1", "--out", prefix)
    assert rc == 0
    plus = parse_points((tmp_path / "pair-plus.pts").read_text())
    minus = parse_points((tmp_path / "pair-minus.pts").read_text())
    assert len(plus) == len(minus) == 9
    ga = compute_covariogram(plus)
    gb = compute_covariogram(minus)
    assert ga.entries == gb.entries


def test_reconstruct_command(tmp_path, capsys):
    pts = write(tmp_path, "t.pts", TRAP)
    _, out, _ = run(capsys, "compute-cov", pts)
    cov = write(tmp_path, "t.cov", out)
    rc, out, _ = run(capsys, "reconstruct", cov, "--box", "4x2")
    assert rc == 0
    assert "verdict=unique" in out
    assert "class_count=1" in out


def test_reconstruct_runs_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = latcov.cli.reconstruct_all

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(latcov.cli, "reconstruct_all", counted)
    pair = corollary_pair_generator(WidthOneParams(1, 0),
                                    HexagonParams(0, 1, 0, 1, 0, 1))
    cov = write(tmp_path, "k.cov",
                serialize_covariogram(compute_covariogram(pair.first)))
    rc, out, _ = run(capsys, "--format", "records", "reconstruct", cov,
                     "--box", "5x5")
    assert rc == 0
    assert len(calls) == 1
    lines = out.splitlines()
    assert lines[:2] == ["verdict=ambiguous(2)", "class_count=2"]
    assert len(lines) == 4


def test_reconstruct_out_of_box(tmp_path, capsys, monkeypatch):
    calls = []
    real = latcov.cli.reconstruct_all

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(latcov.cli, "reconstruct_all", counted)
    pts = write(tmp_path, "t.pts", TRAP)
    _, out, _ = run(capsys, "compute-cov", pts)
    cov = write(tmp_path, "t.cov", out)
    rc, out, _ = run(capsys, "--format", "records", "reconstruct", cov,
                     "--box", "3x2")
    assert rc == 0
    assert out.splitlines() == ["verdict=out-of-box", "class_count=0"]
    assert len(calls) == 1


def test_reconstruct_unrealizable_reports_verdict(tmp_path, capsys):
    # the faces read off the (1, 0) edge of the support cannot span it
    g = Covariogram(2, {(0, 0): 4, (2, 3): 3, (-2, -3): 3, (1, 3): 1,
                        (-1, -3): 1, (0, 1): 1, (0, -1): 1, (1, 1): 1,
                        (-1, -1): 1})
    cov = write(tmp_path, "u.cov", serialize_covariogram(g))
    rc, out, err = run(capsys, "--format", "records", "reconstruct", cov)
    assert rc == 0
    assert err == ""
    assert out.splitlines() == ["verdict=unrealizable", "class_count=0"]


@pytest.mark.parametrize("command", [("search", "--box", "3x3")],
                         ids=["search"])
def test_jobs_below_one_exits_2(capsys, command):
    for jobs in ("0", "-2"):
        rc, out, err = run(capsys, *command, "--jobs", jobs)
        assert rc == 2
        assert out == ""
        assert "jobs" in err


def test_verify_thm22_command(tmp_path, capsys):
    # hexagon triangle in sublattice coordinates for k=1
    pts = write(tmp_path, "s.pts", "0 0\n-2 1\n-1 2\n")
    rc, out, _ = run(capsys, "verify-thm22", pts, "--k", "1", "--l", "0")
    assert rc == 0
    assert "condition_i=true" in out
    assert "agree=true" in out
    # no translate of {(0,0),(1,0)} sits inside the sublattice, and the
    # direct sum fails too, so both conditions are false and still agree
    off = write(tmp_path, "x.pts", "0 0\n1 0\n")
    rc, out, _ = run(capsys, "verify-thm22", off, "--k", "1", "--l", "0")
    assert rc == 0
    assert "condition_i=false" in out
    assert "condition_ii=false" in out
    assert "agree=true" in out


def test_decompose_command(capsys):
    rc, out, _ = run(capsys, "decompose", "--k", "1", "--l", "0",
                     "--point", "2,1")
    assert rc == 0
    assert "sublattice_part=1,1" in out
    assert "strip_part=1,0" in out


def test_decompose_solves_at_largest_k(capsys):
    # the strip of k = 2^31 - 1 has 2^31 + 1 points; none is built
    k = 2 ** 31 - 1
    t0 = time.monotonic()
    for point, lam, t in [("2,1", "1,1", "1,0"),
                          (f"{k + 1},0", f"{k + 1},-1", "0,1")]:
        rc, out, _ = run(capsys, "--format", "records", "decompose",
                         "--k", str(k), "--l", "0", "--point", point)
        assert rc == 0
        assert out.splitlines() == [f"sublattice_part={lam}",
                                    f"strip_part={t}"]
    assert time.monotonic() - t0 < 3


def test_gen_pair_far_one_point_window(capsys):
    # the window's i-side is 10^7 long, but only i = 0 has a j
    t0 = time.monotonic()
    rc, out, _ = run(capsys, "--format", "records", "gen-pair", "--k", "1",
                     "--l", "0", "--hex", "0,10000000,0,0,0,0")
    assert rc == 0
    assert "base=0,0" in out.splitlines()
    assert time.monotonic() - t0 < 2


@pytest.mark.parametrize("argv, limit", [
    (("gen-pair", "--k", "2147483647", "--l", "2147483646",
      "--hex", "0,0,0,0,0,0"), "PAIR_POINT_LIMIT"),
    (("verify-thm22", "s.pts", "--k", "2147483647", "--l", "0"),
     "VERIFY_POINT_LIMIT"),
    (("gen-pair", "--k", "1", "--l", "0",
      "--hex", "0,100000,0,100000,-100000,100000"), "PAIR_POINT_LIMIT"),
], ids=["gen-pair-huge-k", "verify-thm22-huge-k", "gen-pair-1e10-window"])
def test_oversized_pair_refused_up_front(tmp_path, capsys, argv, limit):
    s = write(tmp_path, "s.pts", "0 0\n-2 1\n-1 2\n")
    t0 = time.monotonic()
    rc, out, err = run(capsys, *[s if arg == "s.pts" else arg for arg in argv])
    assert (rc, out) == (2, "")
    assert f"exceeds the limit of {getattr(latcov.cli, limit)}" in err
    assert time.monotonic() - t0 < 2


def window_points(params, a, b):
    return "".join(f"{x} {y}\n" for x, y in sorted(
        params.from_coords((i, j)) for i in range(a + 1)
        for j in range(b + 1)))


def test_verify_thm22_sized_to_its_own_check(tmp_path, capsys):
    # a 3,481-point window, whose pair gen-pair refuses, is checked
    s = write(tmp_path, "s.pts", window_points(WidthOneParams(1, 0), 58, 58))
    t0 = time.monotonic()
    rc, out, _ = run(capsys, "verify-thm22", s, "--k", "1", "--l", "0")
    assert rc == 0
    assert "condition_i=true" in out and "agree=true" in out
    assert time.monotonic() - t0 < 1


@pytest.mark.parametrize("points, k, limit", [
    # 3 points times a strip of 33,336 points: 100,008 sums
    ("0 0\n-2 1\n-1 2\n", "33334", "VERIFY_POINT_LIMIT"),
    # three points whose sublattice box has about 10^12 cells
    ("0 0\n3000000 0\n1 1\n", "1", "VERIFY_CELL_LIMIT"),
    # a far triangle: its box of S + T alone is about 2^62 cells
    ("0 0\n1 0\n2147483646 2147483647\n", "1", "VERIFY_CELL_LIMIT"),
], ids=["sums", "sliver", "far"])
def test_verify_thm22_refuses_slow_checks_up_front(tmp_path, capsys, points,
                                                   k, limit):
    s = write(tmp_path, "s.pts", points)
    t0 = time.monotonic()
    rc, out, err = run(capsys, "verify-thm22", s, "--k", k, "--l", "0")
    assert (rc, out) == (2, "")
    assert f"exceeds the limit of {getattr(latcov.cli, limit)}" in err
    assert time.monotonic() - t0 < 1


def test_pair_limit_counts_base_times_strip():
    params = WidthOneParams(1, 0)
    limit = latcov.cli.PAIR_POINT_LIMIT
    latcov.cli._check_pair_size(limit // 3, params.index, limit, "--k, --l")
    with pytest.raises(FormatError, match="exceeds the limit"):
        latcov.cli._check_pair_size(limit // 3 + 1, params.index, limit,
                                    "--k, --l")


def test_product_pair_refused_up_front(tmp_path, capsys):
    # two 60-point sets make a 3,600-point pair in 4-D, whose two
    # covariograms took about a minute and 3.9 GB
    rng = random.Random(60)
    pts = set()
    while len(pts) < 60:
        pts.add((rng.randrange(50), rng.randrange(50)))
    a = write(tmp_path, "a.pts", "".join(f"{x} {y}\n" for x, y in pts))
    prefix = tmp_path / "pair"
    t0 = time.monotonic()
    rc, out, err = run(capsys, "product-pair", a, a, "--out", str(prefix))
    assert (rc, out) == (2, "")
    assert "a pair of 14400 coordinates exceeds the limit of " \
        f"{latcov.cli.PRODUCT_COORD_LIMIT}" in err
    assert time.monotonic() - t0 < 2
    assert list(tmp_path.iterdir()) == [tmp_path / "a.pts"]


def test_product_pair_refused_by_coordinates(tmp_path, capsys):
    # two 30-point sets in 10-D make a pair of only 900 points, but of
    # 18,000 coordinates, whose two covariograms took 5.3 s and 892 MB
    rng = random.Random(10)
    pts = set()
    while len(pts) < 30:
        pts.add(tuple(rng.randrange(5) for _ in range(10)))
    a = write(tmp_path, "a.pts", "dim 10\n" + "".join(
        " ".join(map(str, p)) + "\n" for p in pts))
    prefix = tmp_path / "pair"
    t0 = time.monotonic()
    rc, out, err = run(capsys, "product-pair", a, a, "--out", str(prefix))
    assert (rc, out) == (2, "")
    assert "a pair of 18000 coordinates exceeds the limit of " \
        f"{latcov.cli.PRODUCT_COORD_LIMIT}" in err
    assert time.monotonic() - t0 < 2
    assert list(tmp_path.iterdir()) == [tmp_path / "a.pts"]


@pytest.mark.parametrize("command", [
    ("gen-pair", "--k", "1", "--l", "0", "--hex", "0,1,0,1,0,1"),
    ("product-pair", "a.pts", "a.pts"),
], ids=["gen-pair", "product-pair"])
def test_out_write_failure_exits_2(tmp_path, capsys, command):
    a = write(tmp_path, "a.pts", "0 0\n1 0\n0 1\n")
    prefix = str(tmp_path / "missing" / "x")
    argv = [a if arg == "a.pts" else arg for arg in command]
    rc, out, err = run(capsys, *argv, "--out", prefix)
    assert (rc, out) == (2, "")
    assert f"{prefix}-plus.pts:" in err


def test_product_pair_command(tmp_path, capsys):
    a = write(tmp_path, "a.pts", "0 0\n1 0\n0 1\n")
    rc, out, _ = run(capsys, "product-pair", a, a)
    assert rc == 0
    assert "dim=4" in out
    assert "nontrivial=true" in out


def test_search_command(capsys):
    rc, out, err = run(capsys, "--format", "records", "search",
                       "--box", "4x4", "--match-corollary")
    assert rc == 0
    assert "total_sets=1633" in out
    assert "verdict=matched" in out
    assert "unmatched" not in out
    rc2, out2, _ = run(capsys, "--format", "records", "search",
                       "--box", "4x4", "--match-corollary")
    assert out2 == out  # deterministic


def test_search_reports_unmatched_pairs(capsys, monkeypatch):
    # a pair the matcher refuses is printed as unmatched, with a warning
    # per pair, and the search still succeeds
    monkeypatch.setattr(latcov.search, "_match", lambda *args: None)
    rc, out, err = run(capsys, "--format", "records", "search",
                       "--box", "6x5", "--match-corollary")
    assert rc == 0
    assert out.count(".verdict=unmatched\n") == out.count(".members=") == 12
    assert "verdict=matched" not in out
    assert err == "warning: unmatched homometric pair " \
        "(candidate new example)\n" * 12


def test_search_records_pinned_6x5(capsys):
    # the 12 pairs at 6x5 and the first witness found for each
    rc, out, _ = run(capsys, "--format", "records", "search", "--box", "6x5",
                     "--match-corollary", "--jobs", "1")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6fa8f302ef225d55e15f82ebdf01864797b9e1a1cff354cf49621496121efeab")


def test_search_jobs_is_a_no_op(capsys):
    # any jobs from 1 up prints the 6x5 records of one process
    rc, out, _ = run(capsys, "--format", "records", "search", "--box", "6x5",
                     "--match-corollary", "--jobs", "2147483648")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6fa8f302ef225d55e15f82ebdf01864797b9e1a1cff354cf49621496121efeab")


def test_search_records_pinned_5x6(capsys):
    # the transposed box: the same 12 pairs, each found and matched anew
    rc, out, _ = run(capsys, "--format", "records", "search", "--box", "5x6",
                     "--match-corollary", "--jobs", "1")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e7b70edca6d87e23322b1ed458b644da35dff5c7fb7d8204226b63bf3e49e9cb")


def test_search_records_pinned_7x6(capsys):
    # the 36 pairs at 7x6, beyond the desk-scale limit
    rc, out, _ = run(capsys, "--format", "records", "search", "--box", "7x6",
                     "--allow-large", "--match-corollary", "--jobs", "1")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "eee9cae8ba1eb0cfaebd5852f3e4bcd51fc1717841080e26e06e754bf33e0896")


@pytest.mark.parametrize("box, digest", [
    ("6x6", "92ef384370935511b580098c32fbe967b51bc6b38d9011e0cb0bf0e5cbfd62a1"),
    ("6x7", "9780ea46ff5aa78e7124cc3f6f396000a0c46697e84cd273d06dd434246842e8"),
])
def test_search_records_pinned_square_and_transposed(capsys, box, digest):
    # a square box, where the search also maps keys by x <-> y, and the
    # transpose of 7x6
    rc, out, _ = run(capsys, "--format", "records", "search", "--box", box,
                     "--match-corollary", "--jobs", "1")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_search_human_output_pinned_6x5(capsys):
    # human mode heads each class with a "# class i" line
    rc, out, _ = run(capsys, "search", "--box", "6x5")
    assert rc == 0
    assert sum(line.startswith("# class ") for line in out.splitlines()) == 12
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7af452be4e693a8da8b61d566ae74b1d9c9aa9b8a1f603a49cf448ba369167de")


def test_search_box_guard(capsys):
    rc, _, err = run(capsys, "search", "--box", "9x9")
    assert rc == 2
    assert "allow_large" in err or "desk-scale" in err


@pytest.mark.parametrize("box", ["\u00b2x3", "3x\u0663", "\uff13x3"],
                         ids=["superscript", "arabic-indic", "fullwidth"])
def test_box_takes_ascii_digits_only(tmp_path, capsys, box):
    rc, out, err = run(capsys, "search", "--box", box)
    assert (rc, out) == (2, "")
    assert "--box expects WxH" in err
    pts = write(tmp_path, "t.pts", TRAP)
    _, cov, _ = run(capsys, "compute-cov", pts)
    rc, out, err = run(capsys, "reconstruct", write(tmp_path, "t.cov", cov),
                       "--box", box)
    assert (rc, out) == (2, "")
    assert "--box expects WxH" in err


@pytest.mark.parametrize("token", ["\u0663", "1_0", "\u00b2"],
                         ids=["arabic-indic", "underscore", "superscript"])
@pytest.mark.parametrize("case", [
    "--box", "--normal", "--point", "--hex", "--k", "--l", "--jobs",
    "points file", "covariogram file", "points dim", "covariogram dim"])
def test_integer_grammar(tmp_path, capsys, case, token):
    # every integer input reads ASCII digits only: a non-ASCII digit, an
    # underscore-grouped literal and a superscript each exit 2 with empty
    # stdout and an error naming the flag or file, or raise FormatError
    # from the library parsers
    def put(name, text):
        (tmp_path / name).write_bytes(text.encode("utf-8"))
        return str(tmp_path / name)

    cov = put("t.cov", serialize_covariogram(compute_covariogram(
        parse_points(TRAP))))
    argv = {
        "--box": ("search", "--box", f"{token}x2"),
        "--normal": ("edges", cov, "--normal", f"{token},1"),
        "--point": ("decompose", "--k", "20", "--l", "0",
                    "--point", f"{token},1"),
        "--hex": ("gen-pair", "--k", "1", "--l", "0",
                  "--hex", f"0,{token},0,1,0,1"),
        "--k": ("decompose", "--k", token, "--l", "0", "--point", "2,1"),
        "--l": ("decompose", "--k", "20", "--l", token, "--point", "2,1"),
        "--jobs": ("search", "--box", "2x2", "--jobs", token),
        "points file": ("check-convex", put("p.pts", f"{token} 0\n0 1\n")),
        "covariogram file": ("reconstruct",
                             put("c.cov", f"dim 2\n0 0 {token}\n")),
    }
    if case == "points dim":
        with pytest.raises(FormatError):
            parse_points(f"dim {token}\n0 0 0\n")
    elif case == "covariogram dim":
        with pytest.raises(FormatError):
            parse_covariogram(f"dim {token}\n0 0 0 1\n")
    else:
        rc, out, err = run(capsys, *argv[case])
        assert (rc, out) == (2, "")
        assert (case if case.startswith("--") else argv[case][-1]) in err


def test_missing_file_and_bad_args(tmp_path, capsys):
    rc, _, err = run(capsys, "invariants", str(tmp_path / "nope.pts"))
    assert rc == 2
    assert "nope.pts:0:" in err
    pts = write(tmp_path, "t.pts", TRAP)
    rc, _, err = run(capsys, "reconstruct", pts, "--box", "axb")
    assert rc == 2


@pytest.mark.parametrize("argv, text, message", [
    (["gen-pair", "--k", "1", "--l", "0", "--hex", "1,2,3"], None,
     "--hex expects 6 integers, got '1,2,3'"),
    (["search", "--box", "0x5"], None, "--box dimensions must be positive"),
    (["canonical", "{}"], "dim 0\n0\n", ":1: bad dim header"),
    (["verify-thm22", "--k", "1", "--l", "0", "{}"],
     "dim 3\n0 0 0\n1 0 0\n0 1 0\n", "dimension mismatch"),
], ids=["flag-count", "box-zero", "dim-zero", "thm22-3d"])
def test_malformed_input_exits_2(tmp_path, capsys, argv, text, message):
    path = write(tmp_path, "input", text) if text is not None else ""
    rc, out, err = run(capsys, *(arg.replace("{}", path) for arg in argv))
    assert (rc, out) == (2, "")
    assert message in err


def test_degenerate_input_reports_cleanly(tmp_path, capsys):
    seg = write(tmp_path, "seg.pts", "0 0\n1 0\n2 0\n")
    rc, _, err = run(capsys, "invariants", seg)
    assert rc == 2
    assert "degenerate" in err


@pytest.mark.parametrize("command,text", [
    (("check-convex",), "dim ²\n0 0\n1 0\n0 1\n"),
    (("reconstruct",), "dim 2\n0 0 1\n# café\n"),
], ids=["points", "covariogram"])
def test_non_ascii_file_exits_2(tmp_path, capsys, command, text):
    path = tmp_path / "bad.txt"
    path.write_bytes(text.encode("utf-8"))
    rc, out, err = run(capsys, *command, str(path))
    assert (rc, out) == (2, "")
    line = 1 if "²" in text else 3
    assert f"bad.txt:{line}: non-ASCII byte" in err


def test_far_covariogram_refused_in_time(tmp_path, capsys):
    # the top edge of the support spans 2N + 1 points, more than g has
    # entries, so it is refused without listing them
    n = 2 ** 31
    g = Covariogram(2, {(0, 0): 3, (n, 1): 1, (-n, -1): 1, (-n, 1): 1,
                        (n, -1): 1, (1, 0): 1, (-1, 0): 1})
    cov = write(tmp_path, "far.cov", serialize_covariogram(g))
    t0 = time.monotonic()
    rc, out, _ = run(capsys, "--format", "records", "reconstruct", cov)
    assert (rc, out.splitlines()) == (0, ["verdict=unrealizable",
                                          "class_count=0"])
    rc, out, err = run(capsys, "invariants", "--from-cov", cov)
    assert (rc, out) == (2, "")
    assert "not realizable" in err
    rc, out, err = run(capsys, "edges", cov, "--normal", "0,1")
    assert (rc, out) == (2, "")
    assert "not realizable" in err
    assert time.monotonic() - t0 < 10


def _cap_memory():
    # about 1 GB of address space: building a 2^31-tuple fails here
    # cleanly instead of exhausting the machine
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


HUGE_DIM = "dim 2147483648\n"
SPANS_NO_SET = "total_sets=0\nclass_count=0\n"
STRIP_SETS = "total_sets=9903520314283042194898026497\nclass_count=0\n"
FAR_TRIANGLE = ("2147483648 -2147483648\n-2147483648 2147483648\n"
                "-2147483647 2147483648\n")
FAR_3D = ("dim 3\n2147483648 -2147483648 0\n-2147483648 2147483648 1\n"
          "0 0 -2147483648\n")
# a 6-point lattice-convex set sheared by x += 2^29 y, as a covariogram
FAR_COV = serialize_covariogram(compute_covariogram(
    {(x + 2 ** 29 * y, y)
     for x, y in [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (1, 2)]}))


def many_free_lines_table():
    # 4,373 entries, 24 free lines and one class, built when the test
    # runs rather than at import
    return serialize_covariogram(compute_covariogram(helpers.triangle_sum(1, 8)))


# Hostile inputs, one or more per subcommand: argv with {} for the input
# file, the file's contents (None for no file, or a function that returns
# them), the exit code, and a part of stderr for a refusal or of stdout
# for an answer.  Each is answered or refused at once under about 1 GB.
HOSTILE = {
    # a 15-byte file holding only a dim header builds no 2^31-tuple origin
    "reconstruct": (["reconstruct", "{}"], HUGE_DIM, 2, "invalid covariogram"),
    "invariants": (["invariants", "{}", "--from-cov"], HUGE_DIM, 2,
                   "invalid covariogram"),
    "diffset": (["diffset", "{}", "--from-cov"], HUGE_DIM, 2,
                "invalid covariogram"),
    "edges": (["edges", "{}", "--normal", "1,0"], HUGE_DIM, 2,
              "invalid covariogram"),
    "compute-cov-empty": (["compute-cov", "{}"], "", 2, "no points"),
    "diffset-empty": (["diffset", "{}"], "", 2, "no points"),
    "canonical-empty": (["canonical", "{}"], "", 2, "no points"),
    "check-convex-empty": (["check-convex", "{}"], "", 2, "no points"),
    "affine-equiv-empty": (["affine-equiv", "{}", "{}"], "", 2, "no points"),
    "invariants-one-point": (["invariants", "{}"], "0 0\n", 2,
                             "degenerate set"),
    "product-pair-one-point": (["product-pair", "{}", "{}"], "0 0\n", 0,
                               "homometric=true"),
    "gen-pair-huge-k": (["gen-pair", "--k", "2147483648", "--l", "0",
                         "--hex", "0,1,0,1,0,1"], None, 2, "exceeds the limit"),
    "verify-thm22-huge-k": (["verify-thm22", "{}", "--k", "2147483648",
                             "--l", "0"], "0 0\n1 0\n0 1\n", 2, "exceeds the limit"),
    "decompose-far": (["decompose", "--k", "2147483648", "--l", "0",
                       "--point", "2147483648,-2147483648"], None, 0,
                      "strip_part=2147483646,0"),
    # a huge l on its own: answered when k > l, refused by size or order
    "decompose-huge-l": (["decompose", "--k", "2147483648", "--l",
                          "2147483647", "--point", "5,-7"], None, 0,
                         "strip_part=1,1"),
    "gen-pair-huge-l": (["gen-pair", "--k", "2147483648", "--l", "2147483647",
                         "--hex", "0,1,0,1,0,1"], None, 2, "exceeds the limit"),
    "verify-thm22-huge-l": (["verify-thm22", "{}", "--k", "2147483648",
                             "--l", "2147483647"], "0 0\n1 0\n0 1\n", 2,
                            "exceeds the limit"),
    "decompose-l-above-k": (["decompose", "--k", "3", "--l", "2147483648",
                             "--point", "5,-7"], None, 2, "k > l >= 0"),
    "edges-huge-normal": (["edges", "{}", "--normal", "2147483648,0"],
                          "dim 2\n0 0 1\n", 2, "must be primitive"),
    "reconstruct-lone-origin": (["reconstruct", "{}"], "dim 2\n0 0 1\n", 0,
                                "verdict=unrealizable"),
    "search-huge-box": (["search", "--box", "2147483648x2147483648"], None, 2,
                        "desk-scale limit"),
    # a box with a side of 1 spans no set, whatever its other side
    "search-wide-segment": (["search", "--box", "2147483648x1",
                             "--allow-large"], None, 0, SPANS_NO_SET),
    "search-tall-segment": (["search", "--box", "1x2147483648",
                             "--allow-large"], None, 0, SPANS_NO_SET),
    # a box with a side of 2 counts its sets in closed form
    "search-wide-strip": (["search", "--box", "2147483648x2",
                           "--allow-large"], None, 0, STRIP_SETS),
    "search-tall-strip": (["search", "--box", "2x2147483648",
                           "--allow-large"], None, 0, STRIP_SETS),
    # a box with a side of 3 has no split, whatever its other side
    "search-thin-tall": (["search", "--box", "3x101", "--allow-large"], None,
                         0, "\nclass_count=0\n"),
    "search-thin-wide": (["search", "--box", "101x3", "--allow-large"], None,
                         0, "\nclass_count=0\n"),
    # points files: one point, and coordinates near 2^31 in 2 and 3 dims
    "canonical-one-point": (["canonical", "{}"], "5 7\n", 0, "dim 2\n0 0\n"),
    "canonical-far": (["canonical", "{}"], FAR_TRIANGLE, 0,
                      "dim 2\n0 4294967296\n1 4294967296\n4294967296 0\n"),
    "compute-cov-far": (["compute-cov", "{}"], FAR_TRIANGLE, 0,
                        "-4294967296 4294967296 1\n"),
    "canonical-far-3d": (["canonical", "{}"], FAR_3D, 0,
                         "2147483648 2147483648 2147483649\n"),
    "diffset-far-3d": (["diffset", "{}"], FAR_3D, 0,
                       "4294967296 -4294967296 -1\n"),
    # the support's hull is read over its rows, whatever their width
    "reconstruct-far-cov": (["reconstruct", "{}"], FAR_COV, 0,
                            "verdict=unique\nclass_count=1\nclass.0=0,0;1,0;"
                            "2,0;536870912,1;536870913,1;1073741825,2\n"),
    "invariants-far-cov": (["invariants", "{}", "--from-cov"], FAR_COV, 0,
                           "\nm=2\n"),
    "edges-far-cov": (["edges", "{}", "--normal", "0,-1"], FAR_COV, 0,
                      "long_row=-1073741825,-2;-1073741824,-2;"
                      "-1073741823,-2\n"),
    # only the closings with g's second moments are filled
    "reconstruct-many-free-lines": (["reconstruct", "{}"],
                                    many_free_lines_table, 0,
                                    "verdict=unique\nclass_count=1\n"),
}


@pytest.mark.parametrize("command", list(HOSTILE))
def test_huge_covariogram_dim_refused(tmp_path, command):
    # named for its first rows, covariograms of a huge dim: every row
    # exits with its code in under a second, with no traceback
    argv, contents, code, message = HOSTILE[command]
    if callable(contents):
        contents = contents()
    path = write(tmp_path, "input", contents) if contents is not None else ""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "latcov.cli",
         *(arg.replace("{}", path) for arg in argv)],
        capture_output=True, text=True, preexec_fn=_cap_memory,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code:
        assert proc.stdout == ""
        assert message in proc.stderr
    else:
        assert message in proc.stdout
    assert time.monotonic() - t0 < 1


@pytest.mark.parametrize("points, code, verdict", [
    ("0 0\n2147483647 0\n", 1, "false"),
    ("0 0\n1 1\n2 2\n", 0, "true"),
], ids=["far-gapped", "diagonal"])
def test_check_convex_segment_in_time(tmp_path, points, code, verdict):
    # a segment is decided by its lattice length: none of the far
    # segment's 2^31 lattice points is listed
    path = write(tmp_path, "segment.pts", points)
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "latcov.cli", "check-convex", path],
        capture_output=True, text=True, preexec_fn=_cap_memory,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert (proc.returncode, proc.stdout) == \
        (code, f"lattice_convex={verdict}\n"), proc.stderr
    assert time.monotonic() - t0 < 2


def test_closed_stdout_exits_quietly():
    # the reader takes one line and closes the pipe: the search's 4.8 kB
    # of records cannot fit a one-page pipe, so a later write meets the
    # closed pipe whatever the buffering, and main exits without a trace
    r, w = os.pipe()
    fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "latcov.cli", "--format", "records",
         "search", "--box", "6x5", "--match-corollary"],
        stdout=w, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    os.close(w)
    with os.fdopen(r, "rb", buffering=0) as out:
        line = out.readline()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, line, err) == (1, b"box_width=6\n", "")
