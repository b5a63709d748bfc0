"""CLI tests: file parsing, each subcommand against known answers, exit
codes, and byte-identical output across worker counts."""

import argparse
import contextlib
import functools
import importlib
import importlib.util
import io
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from functools import partial
from itertools import product
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import polyorbit
from polyorbit import (
    HPolyhedron,
    PolyFile,
    PolyFileError,
    convert_dd,
    parse_polyfile,
    write_polyfile,
)
from polyorbit import cli, latcount, polycore, repconv
from polyorbit.cli import main
from polyorbit.permgrp import orbit_of_set
from polyorbit.polycore import VPolyhedron, matrix, primitive

import snapshot_outputs
from shapes import (cross_h, cross_v, cube_h, cube_v, cut_v, hypersimplex_v,
                    polybench_workloads, reference_parse_polyfile, reference_parser,
                    replace, row_image, santos_prismatoid, unimodular_image)

FIX = Path(__file__).parent / "fixtures"


def run(capsys, *args) -> tuple[int, str, str]:
    code = main([str(a) for a in args])
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestPolyFileParsing:
    def test_fixtures_are_canonical(self):
        # every committed fixture round-trips byte for byte
        for path in sorted(FIX.iterdir()):
            text = path.read_text()
            pf = parse_polyfile(text)
            assert write_polyfile(pf) == text, path.name
            assert parse_polyfile(write_polyfile(pf)) == pf, path.name

    def test_round_trip_with_all_options(self):
        pf = PolyFile(
            kind="H",
            rows=matrix([(F(1), F(-1), F(0)), (F(1, 2), F(0), F(-1)),
                         (F(0), F(1), F(1))]),
            linearity=(3,),
            objective=("minimize", (F(0), F(2, 3), F(-1))),
            blocks=(1, 1),
        )
        assert parse_polyfile(write_polyfile(pf)) == pf

    @pytest.mark.parametrize("text, width", [
        ("H-representation\nbegin\n0 3 rational\nend\n", 3),
        ("H-representation\nbegin\n0 3 rational\nend\nmaximize 0 1 -1\n", 3),
        ("V-representation\nbegin\n0 3 rational\nend\n", 3),
        ("V-representation\nbegin\n0 2 rational\nend\nminimize 1/2 3\n", 2),
    ], ids=["H", "H-objective", "V", "V-objective"])
    def test_zero_row_files_round_trip(self, text, width):
        # a file with no rows takes its width from the header
        pf = parse_polyfile(text)
        assert not pf.rows and pf.width == width
        assert write_polyfile(pf) == text
        assert parse_polyfile(write_polyfile(pf)) == pf

    def test_width_must_match_the_rows(self):
        with pytest.raises(ValueError, match="width 3"):
            PolyFile(kind="H", rows=matrix([(1, -1)]), width=3)

    def test_h_conversion(self):
        pf = parse_polyfile((FIX / "cube3.ine").read_text())
        P = pf.to_hpolyhedron()
        assert P.n == 3 and len(P.A) == 6
        assert P.contains((0, 0, 0)) and not P.contains((2, 0, 0))

    def test_v_conversion(self):
        pf = parse_polyfile((FIX / "cube3.ext").read_text())
        V = pf.to_vpolyhedron()
        assert len(V.vertices) == 8 and not V.rays

    def test_linearity_marks_equality_rows(self):
        text = ("H-representation\nlinearity 1 1\nbegin\n2 2 rational\n"
                "1 -1\n3 -1\nend\n")
        P = parse_polyfile(text).to_hpolyhedron()
        assert P.equality_rows == (1,)
        assert P.contains((1,)) and not P.contains((0,))

    def test_comments_and_blank_lines_ignored(self):
        text = ("# a comment\nH-representation\n\nbegin\n1 2 rational\n"
                "1 -1\nend\n")
        assert len(parse_polyfile(text).rows) == 1

    @pytest.mark.parametrize("text,fragment", [
        ("X-representation\nbegin\n0 1 rational\nend\n", "line 1"),
        ("H-representation\nbegin\n1 2 floating\n1 -1\nend\n", "line 3"),
        ("H-representation\nbegin\n1 2 rational\n1 -1 0\nend\n", "line 4"),
        ("H-representation\nbegin\n1 2 rational\n1 1.5\nend\n", "line 4"),
        ("H-representation\nbegin\n1 2 rational\n1 1/0\nend\n", "line 4"),
        ("H-representation\nbegin\n1 2 rational\n1 1/00\nend\n", "line 4"),
        ("V-representation\nbegin\n1 2 rational\n2 1\nend\n", "line 4"),
        ("H-representation\nbegin\n2 2 rational\n1 -1\nend\n", "line 5"),
        ("H-representation\nbegin\n1 2 rational\n1 -1\nend\nfoo bar\n", "line 6"),
        ("H-representation\nlinearity 2 1\nbegin\n1 2 rational\n1 -1\nend\n",
         "line 2"),
        ("H-representation\nlinearity 1 9\nbegin\n1 2 rational\n1 -1\nend\n",
         "out of range"),
        ("H-representation\nbegin\n1 2 rational\n1 -1\nend\nblocks 0\n", "line 6"),
        ("H-representation\nbegin\n1 2 rational\n1 -1\nend\n"
         "maximize 1 1\nmaximize 1 1\n", "line 7"),
        ("H-representation\nbegin\n", "end of file"),
    ])
    def test_parse_errors_name_the_line(self, text, fragment):
        with pytest.raises(PolyFileError, match=fragment):
            parse_polyfile(text)

    @pytest.mark.parametrize("tok, verdict", [
        # a row of integer tokens is read by int() in one pass; a row with any
        # other token, and every error text, go through the per-token rational parse
        ("1_000", "line 4: not a rational number: '1_000'"),
        ("\u0661\u0662", F(12)),          # \d matches any Unicode decimal digit
        ("\u0663/\u0664", F(3, 4)),
        ("+-1", "line 4: not a rational number: '+-1'"),
        ("1/0", "line 4: zero denominator: '1/0'"),
        ("1.5", "line 4: not a rational number: '1.5'"),
        ("1/-2", "line 4: not a rational number: '1/-2'"),
        ("\u00b2", "line 4: not a rational number: '\u00b2'"),
        ("0x10", "line 4: not a rational number: '0x10'"),
        ("+", "line 4: not a rational number: '+'"),
        ("3", F(3)),                      # "3 1/2" is a row of Fractions
    ])
    @pytest.mark.parametrize("rest", ["-1", "1/2"], ids=["integer-row", "rational-row"])
    def test_token_table(self, tok, verdict, rest):
        text = f"H-representation\nbegin\n1 2 rational\n{tok} {rest}\nend\n"
        if isinstance(verdict, str):
            with pytest.raises(PolyFileError) as info:
                parse_polyfile(text)
            assert str(info.value) == verdict
        else:
            # a row of integer tokens holds ints, a row with a p/q token Fractions
            row = parse_polyfile(text).rows[0]
            kind = F if "/" in tok + rest else int
            assert row == (verdict, F(rest)) and all(type(x) is kind for x in row)

    def test_v_linearity_on_a_point_row_is_refused(self):
        # a line through a point is not a V row; only a ray row (leading 0)
        # may be marked, and it becomes a line
        text = ("V-representation\nlinearity 1 {}\nbegin\n3 3 rational\n"
                "1 0 0\n0 1 0\n1 0 1\nend\n")
        for i in (1, 3):
            with pytest.raises(PolyFileError) as info:
                parse_polyfile(text.format(i))
            assert str(info.value) == (f"linearity index {i} marks a vertex row; "
                                       "only a ray row can be a line")
        V = parse_polyfile(text.format(2)).to_vpolyhedron()
        assert V.vertices == ((0, 0), (0, 1)) and V.rays == ((1, 0), (-1, 0))

    def test_v_linearity_on_a_point_row_is_refused_in_code(self):
        # the same triangle built as a PolyFile: a value that writes a file
        # parse_polyfile refuses is refused when it is made
        rows = matrix([(1, 0, 0), (0, 1, 0), (1, 0, 1)])
        for i in (1, 3):
            with pytest.raises(PolyFileError) as info:
                PolyFile(kind="V", rows=rows, linearity=(i,))
            assert str(info.value) == (f"linearity index {i} marks a vertex row; "
                                       "only a ray row can be a line")
        with pytest.raises(PolyFileError, match=r"^linearity index 4 is out of range 1\.\.3$"):
            PolyFile(kind="V", rows=rows, linearity=(4,))
        pf = PolyFile(kind="V", rows=rows, linearity=(2,))
        assert parse_polyfile(write_polyfile(pf)) == pf
        # an H row is an equality whatever it starts with
        assert PolyFile(kind="H", rows=rows, linearity=(1, 3)).linearity == (1, 3)

    @pytest.mark.parametrize("tok,value", [
        ("+3", F(3)), ("-0", F(0)), ("007", F(7)), ("-4/6", F(-2, 3)),
        ("+10/4", F(5, 2)), ("0/5", F(0)), ("-007/014", F(-1, 2)), ("6/3", F(2)),
    ])
    def test_rational_tokens(self, tok, value):
        # a row of integer tokens holds ints, a row with a p/q token Fractions,
        # "6/3 -1" too
        text = f"H-representation\nbegin\n1 2 rational\n{tok} -1\nend\n"
        row = parse_polyfile(text).rows[0]
        entry = row[0]
        assert entry == value and all(type(x) is (F if "/" in tok else int) for x in row)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_one_pass_read_agrees_with_the_token_regex(self, data):
        # generated files against the parser that matched each body token with
        # [+-]?\d+ first: an equal PolyFile, ints and Fractions alike, or the same
        # refusal; the first entry of a V row is 0 or 1 half the time
        tok = st.one_of(
            st.integers(-10 ** 6, 10 ** 6).map(str),
            st.tuples(st.sampled_from(["", "+", "-"]), st.sampled_from(["0", "00", "007"]),
                      st.integers(0, 99)).map(lambda t: f"{t[0]}{t[1]}{t[2]}"),
            st.tuples(st.integers(-9, 9), st.integers(0, 12)).map(lambda t: f"{t[0]}/{t[1]}"),
            st.sampled_from(["1_0", "-2_5", "+0_0", "1__0", "_1", "1_", "1/1_0"]),
            st.sampled_from(["\u0661\u0662", "-\u0663", "+\u0966", "\uff17", "\u0663/\u0664",
                             "\u00b2", "\u00bd"]),
            st.sampled_from(["+-1", "--1", "1.5", "1/-2", "1/+2", "1/", "/2", "+", "-", "0x10",
                             "1e3", "-0/00", "3/0", "x"]))
        kind = data.draw(st.sampled_from("HV"))
        width, m = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 4))
        lines = [f"{kind}-representation", "begin", f"{m} {width} rational"]
        for _ in range(m):
            first = data.draw(st.one_of(st.sampled_from(["0", "1"]), tok) if kind == "V" else tok)
            row = [first] + data.draw(st.lists(tok, min_size=width - 1, max_size=width - 1))
            lines.append(data.draw(st.sampled_from([" ", "\t", "  "])).join(row))
            if data.draw(st.booleans()):
                lines.append(data.draw(st.sampled_from(["", "# 1_0 x", "  "])))
        lines.append("end")
        if data.draw(st.booleans()):
            lines.append("maximize " + " ".join(data.draw(st.lists(tok, min_size=width + 1,
                                                                   max_size=width + 1))))
        text = "\n".join(lines) + "\n"

        def outcome(parse):
            try:
                pf = parse(text)
            except PolyFileError as exc:
                return "refused", str(exc)
            return pf, [list(map(type, row)) for row in pf.rows]

        assert outcome(parse_polyfile) == outcome(reference_parse_polyfile)


def _old_route(pf: PolyFile) -> HPolyhedron:
    """The polyhedron of an H file as it was built before its rows were
    read as integers: A = -row[1:] and b = row[0], in Fractions."""
    return HPolyhedron.from_rows([[-x for x in row[1:]] for row in pf.rows],
                                 [row[0] for row in pf.rows], pf.linearity)


def _assert_read_as_before(text: str):
    pf = parse_polyfile(text)
    P, Q = pf.to_hpolyhedron(), _old_route(pf)
    # the integer forms come first, before anything builds A and b
    assert "A" not in vars(P) and "b" not in vars(P)
    assert (P.int_rows, P.m, P.n, P.equality_rows) == (Q.int_rows, Q.m, Q.n, Q.equality_rows)
    assert P == Q and hash(P) == hash(Q) and repr(P) == repr(Q)
    assert (P.A, P.b) == (Q.A, Q.b)
    assert all(type(x) is F for x in P.b) and all(type(x) is F for a in P.A for x in a)
    assert replace(P) == P and replace(P).int_rows == P.int_rows


@pytest.fixture(scope="module")
def workload_builds(tmp_path_factory):
    """(directory, jobs) of each benchmark workload at seeds 1-5, built
    through the polybench package loaded by path; the inputs stay written."""
    workloads = polybench_workloads()
    builds = []
    for name in sorted(workloads.SETTINGS):
        for seed in range(1, 6):
            workdir = tmp_path_factory.mktemp(f"{name}-{seed}")
            builds.append((workdir, workloads.build(name, seed, 10, str(workdir))))
    return builds


@pytest.fixture(scope="module")
def workload_h_files(workload_builds):
    """The text of every H input that the benchmark's workloads write for
    seeds 1-5."""
    return [p.read_text() for workdir, _ in workload_builds
            for p in sorted(workdir.glob("*.ine"))]


class TestIntegerRead:
    """An H file's rows reach HPolyhedron as integers, or as Fractions in a
    row with a p/q token, and give the polyhedron the Fraction route gave."""

    @pytest.mark.parametrize("path", sorted(FIX.glob("*.ine")), ids=lambda p: p.name)
    def test_fixtures(self, path):
        _assert_read_as_before(path.read_text())

    def test_workload_inputs(self, workload_h_files):
        assert len(workload_h_files) > 100
        for text in workload_h_files:
            _assert_read_as_before(text)

    def test_seeded_tokens(self):
        # rows of integer tokens in every spelling, rows with p/q tokens,
        # zero rows and equality rows
        rng = random.Random(33)
        spellings = ["+3", "-0", "007", "0", "-5", "12", "+0", "-007/014", "6/4", "-1/3", "0/7"]
        for _ in range(300):
            m, width = rng.randint(1, 6), rng.randint(1, 5)
            rows = [[rng.choice(spellings[:7] if rng.random() < 0.6 else spellings)
                     for _ in range(width)] for _ in range(m)]
            lin = rng.sample(range(1, m + 1), rng.randint(0, m))
            head = f"linearity {len(lin)} {' '.join(map(str, lin))}\n" if lin else ""
            _assert_read_as_before(f"H-representation\n{head}begin\n{m} {width} rational\n"
                                   + "".join(" ".join(r) + "\n" for r in rows) + "end\n")

    @pytest.mark.parametrize("name", sorted(p.name for p in FIX.glob("*.ine")))
    def test_ilp_with_blocks_never_builds_A(self, name, monkeypatch, capsys):
        # the sweep, its relaxation LP and the final membership test read
        # int_rows, m and n alone, and so does every other command on every
        # H file, whatever its answer or refusal
        built, read = [], PolyFile.to_hpolyhedron

        def to_hpolyhedron(pf):
            built.append(read(pf))
            return built[-1]

        monkeypatch.setattr(cli.PolyFile, "to_hpolyhedron", to_hpolyhedron)
        for args in [("automorphisms",), ("convert",), ("count",), ("count", "--symmetric"),
                     ("ehrhart",), ("volume",), ("ilp",)]:
            built.clear()
            code, out, _ = run(capsys, args[0], FIX / name, *args[1:])
            assert len(built) <= 1, args
            assert all("A" not in vars(P) and "b" not in vars(P) for P in built), args
        blocks = "\nblocks" in (FIX / name).read_text()
        assert code in (0, 1) and ("fibers tested" in out) == blocks and len(built) == 1


@pytest.fixture(scope="module")
def lattice_counting_h_paths(tmp_path_factory):
    """Every H input that the lattice-counting workload writes for seeds 1-5."""
    workloads = polybench_workloads()
    paths = []
    for seed in range(1, 6):
        workdir = tmp_path_factory.mktemp(f"lattice-counting-{seed}")
        workloads.build("lattice-counting", seed, 10, str(workdir))
        paths += sorted(workdir.glob("*.ine"))
    return paths


def vertex_reads(paths, monkeypatch, capsys) -> list:
    """(exit code, conversions made) of count, count --symmetric, ehrhart,
    volume, and ilp on a file without blocks, for each path; asserts that
    no conversion of an H input built its Fraction vertices."""
    made, real, runs = [], polycore._h_to_v, []

    def h_to_v(P):
        made.append(real(P))
        return made[-1]

    monkeypatch.setattr(polycore, "_h_to_v", h_to_v)
    for path in paths:
        blocks = "\nblocks" in path.read_text()
        for args in [("count",), ("count", "--symmetric"), ("ehrhart",), ("volume",)] + (
                [] if blocks else [("ilp",)]):
            made.clear()
            code, _, _ = run(capsys, args[0], path, *args[1:])
            assert all("vertices" not in vars(V) for V, _ in made), (path.name, args)
            runs.append((code, len(made)))
    return runs


class TestIntegerVertices:
    """The counting commands read the integer points of an H input's one
    conversion, never its Fraction vertices."""

    def test_fixtures(self, monkeypatch, capsys):
        runs = vertex_reads(sorted(FIX.glob("*.ine")), monkeypatch, capsys)
        assert sum(made for _, made in runs) >= 20

    def test_lattice_counting_inputs(self, lattice_counting_h_paths, monkeypatch, capsys):
        assert len(lattice_counting_h_paths) > 50
        runs = vertex_reads(lattice_counting_h_paths, monkeypatch, capsys)
        assert all(code in (0, 2) for code, _ in runs)
        assert sum(made for _, made in runs) >= 4 * len(lattice_counting_h_paths)


class TestIntegerVFile:
    """A V file is read in integers: to_vpolyhedron makes V by of_points from
    the cleared denominators of its rows, equal to from_points of the same
    Fractions, and builds its Fraction vertices only when read."""

    @pytest.mark.parametrize("linearity, body", [
        ("", "1 0 0\n1 2 0\n1 0 3\n"),
        ("", "1 1/2 0\n1 2 -2/3\n1 0 3/4\n"),
        ("", "1 1/2 0\n0 1/3 -2/5\n1 0 3\n"),
        ("linearity 1 2\n", "1 1/2 0\n0 1/3 -2/5\n1 0 3\n"),
        ("", "1 1/2 0\n0 0 0\n1 0 3\n"),
    ], ids=["integer", "rational", "ray", "line", "zero-ray"])
    def test_equals_the_fraction_route(self, linearity, body):
        pf = parse_polyfile(f"V-representation\n{linearity}begin\n3 3 rational\n{body}end\n")
        points, rays = [], []
        for i, row in enumerate(pf.rows, start=1):
            if row[0] == 1:
                points.append(row[1:])
            elif any(row[1:]):
                rays += [row[1:]] + ([tuple(-x for x in row[1:])] if i in pf.linearity else [])
        V, W = pf.to_vpolyhedron(), VPolyhedron.from_points(points, rays)
        assert "vertices" not in vars(V)
        assert (V.int_points, V.k, V.n, V.rays) == (W.int_points, W.k, W.n, W.rays)
        s, pts, rs = V.int_points
        assert all(type(x) is int for x in (s, *(x for p in pts + rs for x in p)))
        assert V.vertices == W.vertices and "vertices" in vars(V)
        assert V == W and hash(V) == hash(W)

    @pytest.mark.parametrize("name", ["cube3.ext", "santos.ext", "quad-asym.ext"])
    def test_automorphisms_builds_no_vertex(self, name, monkeypatch, capsys):
        built, read = [], PolyFile.to_vpolyhedron

        def to_vpolyhedron(pf):
            built.append(read(pf))
            return built[-1]

        monkeypatch.setattr(cli.PolyFile, "to_vpolyhedron", to_vpolyhedron)
        code, out, _ = run(capsys, "automorphisms", FIX / name)
        assert code == 0 and out.startswith("order ")
        assert len(built) == 1 and "vertices" not in vars(built[0])


class TestAutomorphismsCmd:
    def test_cube_v_order_48(self, capsys):
        code, out, _ = run(capsys, "automorphisms", FIX / "cube3.ext")
        assert code == 0
        assert out.splitlines()[0] == "order 48"
        assert all(ln.startswith("generator (") for ln in out.splitlines()[1:])

    def test_cube_h_order_48(self, capsys):
        code, out, _ = run(capsys, "automorphisms", FIX / "cube3.ine")
        assert code == 0 and out.splitlines()[0] == "order 48"

    def test_asymmetric_quadrilateral_order_1(self, capsys):
        code, out, _ = run(capsys, "automorphisms", FIX / "quad-asym.ext")
        assert code == 0 and out == "order 1\n"

    def test_santos_order(self, capsys):
        code, out, _ = run(capsys, "automorphisms", FIX / "santos.ext")
        assert code == 0 and out.splitlines()[0] == "order 64"

    def test_unbounded_v_rejected(self, tmp_path, capsys):
        f = tmp_path / "ray.ext"
        f.write_text("V-representation\nbegin\n2 3 rational\n1 0 0\n0 1 0\nend\n")
        code, _, err = run(capsys, "automorphisms", f)
        assert code == 2 and "unbounded" in err

    def test_malformed_header_names_line(self, tmp_path, capsys):
        f = tmp_path / "bad.ine"
        f.write_text("H-representation\nbegin\n1 2 floats\n1 -1\nend\n")
        code, _, err = run(capsys, "automorphisms", f)
        assert code == 2 and "line 3" in err

    def test_repeated_point_is_refused_as_convert_refuses_it(self, tmp_path, capsys):
        # a square with (0, 0) listed twice once printed "order 4"; the
        # square's group has order 8
        f = tmp_path / "square-twice.ext"
        f.write_text("V-representation\nbegin\n5 3 rational\n"
                     "1 0 0\n1 1 0\n1 0 1\n1 1 1\n1 0 0\nend\n")
        refusal = (2, "", "error: duplicate points in the input\n")
        assert run(capsys, "automorphisms", f) == refusal
        assert run(capsys, "convert", f) == refusal

    @pytest.mark.parametrize("linearity", ["", "linearity 1 4\n"], ids=["ray", "line"])
    @pytest.mark.parametrize("command", ["count", "ehrhart", "volume", "automorphisms", "convert"])
    def test_zero_ray_is_read_as_no_ray(self, command, linearity, tmp_path, capsys):
        # a ray row 0 0 0 (or a line) adds nothing to the triangle: every
        # command answers as for the file without it, where volume,
        # automorphisms and convert once refused it as unbounded
        body = "1 0 0\n1 1 0\n1 0 1\n"
        with_ray, without = tmp_path / "zero-ray.ext", tmp_path / "triangle.ext"
        with_ray.write_text(f"V-representation\n{linearity}begin\n4 3 rational\n"
                            f"{body}0 0 0\nend\n")
        without.write_text(f"V-representation\nbegin\n3 3 rational\n{body}end\n")
        answer = run(capsys, command, without)
        assert answer[0] == 0
        assert run(capsys, command, with_ray) == answer


# inputs that the symmetric routes refuse, or that only convert refuses (an
# unbounded system whose rows span has a group, but no vertex orbits)
REFUSAL_FILES = {
    "refuse-empty.ext": "V-representation\nbegin\n0 3 rational\nend\n",
    "refuse-ray.ext": "V-representation\nbegin\n2 3 rational\n1 0 0\n0 1 0\nend\n",
    "refuse-repeated.ext": "V-representation\nbegin\n5 3 rational\n"
                           "1 0 0\n1 1 0\n1 0 1\n1 1 1\n1 0 0\nend\n",
    "refuse-empty.ine": "H-representation\nbegin\n2 3 rational\n0 -1 0\n-1 1 0\nend\n",
    "refuse-unbounded.ine": "H-representation\nbegin\n3 3 rational\n"
                            "0 1 0\n0 0 1\n-1 1 1\nend\n",
    "refuse-redundant.ine": "H-representation\nbegin\n5 3 rational\n"
                            "1 -1 0\n1 1 0\n1 0 -1\n1 0 1\n5 -1 -1\nend\n",
    "refuse-flat.ine": "H-representation\nbegin\n4 3 rational\n"
                       "1 -1 0\n-1 1 0\n1 0 -1\n1 0 1\nend\n",
    "refuse-linearity.ine": "H-representation\nlinearity 1 1\nbegin\n4 3 rational\n"
                            "1 -1 0\n1 1 0\n1 0 -1\n1 0 1\nend\n",
}
NO_VERTICES = (1, "empty: the file lists no vertices\n", "")
RAYS = (2, "error: unbounded V input (rays present) is not supported here\n", "")
REPEATED = (2, "error: duplicate points in the input\n", "")
NO_HULL = (1, "empty: empty polyhedron has no affine hull\n", "")
REDUNDANT = (2, "error: restricted symmetry detection needs an irredundant description\n", "")
FLAT = (2, "error: restricted symmetry detection needs a full-dimensional input\n", "")

# (exit code, stderr, stdout) of `automorphisms` on each fixture, on seeded
# unimodular images and on the refused inputs: the order and every
# generator line, or the refusal, byte for byte
AUTOMORPHISMS_PINNED = {
    "refuse-empty.ext": NO_VERTICES,
    "refuse-ray.ext": RAYS,
    "refuse-repeated.ext": REPEATED,
    "refuse-empty.ine": NO_HULL,
    "refuse-unbounded.ine": (0, "", "order 2\ngenerator (1 2)\n"),
    "refuse-redundant.ine": REDUNDANT,
    "refuse-flat.ine": FLAT,
    "refuse-linearity.ine": FLAT,
    "cube3-blocks.ine": (0, "",
        "order 48\n"
        "generator (5 6)\n"
        "generator (3 4)\n"
        "generator (3 5)(4 6)\n"
        "generator (1 2)\n"
        "generator (1 3)(2 4)\n"),
    "cube3-obj.ine": (0, "",
        "order 48\n"
        "generator (5 6)\n"
        "generator (3 4)\n"
        "generator (3 5)(4 6)\n"
        "generator (1 2)\n"
        "generator (1 3)(2 4)\n"),
    "cube3.ext": (0, "",
        "order 48\n"
        "generator (3 5)(4 6)\n"
        "generator (2 3)(6 7)\n"
        "generator (1 2)(3 4)(5 6)(7 8)\n"),
    "cube3.ine": (0, "",
        "order 48\n"
        "generator (5 6)\n"
        "generator (3 4)\n"
        "generator (3 5)(4 6)\n"
        "generator (1 2)\n"
        "generator (1 3)(2 4)\n"),
    "diamond-third.ext": (0, "",
        "order 8\n"
        "generator (3 4)\n"
        "generator (1 2)\n"
        "generator (1 3)(2 4)\n"),
    "ilp-huge.ine": (0, "",
        "order 48\n"
        "generator (5 6)\n"
        "generator (3 4)\n"
        "generator (3 5)(4 6)\n"
        "generator (1 2)\n"
        "generator (1 3)(2 4)\n"),
    "ilp-infeas.ine": (2, "error: restricted symmetry detection needs a full-dimensional input\n",
        ""),
    "quad-asym.ext": (0, "",
        "order 1\n"),
    "santos.ext": (0, "",
        "order 64\n"
        "generator (9 10)(12 13)(18 19)(21 22)(23 26)(24 25)(27 28)(30 31)(36 37)(39 40)\n"
        "generator (2 3)(15 16)(17 32)(18 30)(19 31)(20 29)(21 27)(22 28)(33 34)(46 47)\n"
        "generator (4 5)(7 8)(11 38)(12 36)(13 37)(14 35)(15 33)(16 34)(41 42)(44 45)\n"
        "generator (1 11)(2 12)(3 13)(5 44)(6 14)(8 41)(9 15)(10 16)(17 23)(19 30)(20 24)"
        "(22 27)(25 29)(26 32)(33 39)(34 40)(35 43)(36 46)(37 47)(38 48)\n"
        "generator (1 17 11 23)(2 15 12 9)(3 33 13 39)(4 18)(5 19 44 30)(6 20 14 24)(7 21)"
        "(8 22 41 27)(10 46 16 36)(25 43 29 35)(26 48 32 38)(28 42)(31 45)(34 37 40 47)\n"),
    "segment-half.ine": (0, "",
        "order 1\n"),
    "square-midpoint.ext": (0, "",
        "order 2\n"
        "generator (1 2)(3 4)\n"),
    "cube5": (0, "",
        "order 3840\n"
        "generator (5 9)(6 16)(12 18)(13 24)(14 22)(17 31)(20 26)(21 32)\n"
        "generator (4 15)(5 14)(8 23)(9 22)(10 27)(17 20)(19 25)(26 31)\n"
        "generator (3 19)(5 21)(6 16)(9 32)(10 28)(12 18)(13 17)(14 22)(15 29)(20 26)(23 30)"
        "(24 31)\n"
        "generator (2 4)(3 12)(6 23)(9 32)(10 22)(11 27)(13 17)(14 28)(15 20)(16 30)(18 19)"
        "(26 29)\n"
        "generator (1 2)(3 4)(7 11)(8 28)(10 23)(13 26)(14 32)(15 19)(20 24)(21 22)(25 29)"
        "(27 30)\n"
        "generator (1 5 4 8 24 11)(2 7 31 27 25 21)(3 10)(6 19 22 26 28 12)(9 13)"
        "(14 29 16 18 23 20)(15 30)(17 32)\n"),
    "cross6": (0, "",
        "order 46080\n"
        "generator (9 10)\n"
        "generator (7 9)(10 12)\n"
        "generator (5 7)(8 12)\n"
        "generator (4 5)(6 8)\n"
        "generator (2 3)\n"
        "generator (2 4)(3 6)\n"
        "generator (1 2)(3 11)\n"),
    "cut5": (0, "",
        "order 1920\n"
        "generator (5 14)(6 12)(7 9)(10 16)\n"
        "generator (4 8)(5 6)(7 9)(10 16)(11 13)(12 14)\n"
        "generator (3 7)(6 13)(10 15)(11 14)\n"
        "generator (2 3)(4 10)(7 11)(8 16)(9 13)(12 14)\n"
        "generator (1 2)(3 10)(6 13)(7 15)(9 16)(11 14)\n"),
    "hypersimplex37": (0, "",
        "order 5040\n"
        "generator (6 21)(7 25)(10 15)(12 33)(13 23)(16 19)(17 22)(20 34)(26 35)(30 31)\n"
        "generator (4 8)(5 32)(7 30)(9 14)(10 13)(15 23)(17 34)(20 22)(24 28)(25 31)\n"
        "generator (3 27)(5 24)(6 26)(7 20)(10 15)(11 18)(12 33)(13 23)(16 19)(17 31)(21 35)"
        "(22 30)(25 34)(28 32)\n"
        "generator (2 4)(3 16 27 19)(5 33 24 12)(6 22 26 30)(7 34 20 25)(8 9)(10 18 15 11)"
        "(13 28 23 32)(14 29)(17 21 31 35)\n"
        "generator (2 6)(3 16)(4 25)(5 32)(7 30)(8 31)(9 17)(10 13)(12 18)(14 34)(15 28)"
        "(20 22)(23 24)(26 29)\n"
        "generator (1 2)(3 11)(4 16 8 19)(5 26 32 35)(6 24 21 28)(7 25 31 30)(9 12 14 33)"
        "(10 15 23 13)(17 34 20 22)(18 27)\n"),
    "prismatoid": (0, "",
        "order 64\n"
        "generator (1 14)(16 23)(18 41)(19 48)(24 33)(26 29)(27 36)(28 39)(30 44)(35 45)\n"
        "generator (1 16)(6 42)(7 34)(10 43)(12 47)(14 23)(17 31)(18 28)(22 37)(39 41)\n"
        "generator (2 25)(4 38)(5 15)(8 20)(10 47)(11 40)(12 43)(13 46)(27 35)(36 45)\n"
        "generator (1 23)(2 11)(3 4)(5 21)(6 36)(7 45)(9 38)(10 30)(12 29)(13 20)(15 32)"
        "(17 19)(22 24)(26 47)(27 42)(28 41)(31 48)(33 37)(34 35)(43 44)\n"
        "generator (1 20 23 13)(2 28 11 41)(3 17 4 19)(5 33 21 37)(6 12 36 29)(7 47 45 26)"
        "(8 16)(9 31 38 48)(10 35 30 34)(14 46)(15 24 32 22)(18 40)(25 39)(27 44 42 43)\n"),
    "cube_h6": (0, "",
        "order 46080\n"
        "generator (10 11)\n"
        "generator (8 9)\n"
        "generator (8 10)(9 11)\n"
        "generator (5 7)\n"
        "generator (5 8)(7 9)\n"
        "generator (3 5)(6 7)\n"
        "generator (2 3)(4 6)\n"
        "generator (1 2)(4 12)\n"),
    "cross_h4": (0, "",
        "order 384\n"
        "generator (5 8)(6 9)(11 16)(14 15)\n"
        "generator (4 14)(5 7)(6 12)(13 16)\n"
        "generator (3 6)(4 7)(8 15)(9 12)(10 16)(11 13)\n"
        "generator (1 2)(3 10)(4 5)(6 13)(7 14)(8 15)(9 11)(12 16)\n"
        "generator (1 3)(2 10)(4 11)(5 6)(7 9)(8 12)(13 15)(14 16)\n"),
}

IMAGES = {
    "cube5": lambda: unimodular_image(list(cube_v(5).vertices), "cube5")[0],
    "cross6": lambda: unimodular_image(list(cross_v(6).vertices), "cross6")[0],
    "cut5": lambda: unimodular_image(list(cut_v(5).vertices), "cut5")[0],
    "cut7": lambda: unimodular_image(list(cut_v(7).vertices), "cut7")[0],
    "hypersimplex37": lambda: unimodular_image(list(hypersimplex_v(3, 7).vertices),
                                               "hypersimplex37")[0],
    "prismatoid": lambda: unimodular_image(list(santos_prismatoid().vertices), "prismatoid")[0],
    "cube_h6": lambda: row_image(cube_h(6), "cube_h6"),
    "cross_h4": lambda: row_image(cross_h(4), "cross_h4"),
}


def _input_file(directory: Path, name: str) -> Path:
    """A pinned input: a refused input's text or a seeded image, written to
    directory, or else a fixture."""
    if name in REFUSAL_FILES:
        path = directory / name
        path.write_text(REFUSAL_FILES[name])
        return path
    return _write_image(directory, name) if name in IMAGES else FIX / name


def _write_image(directory: Path, name: str) -> Path:
    P = IMAGES[name]()
    if isinstance(P, HPolyhedron):
        # file rows carry (b, -a) for a.x <= b
        path = directory / f"{name}.ine"
        pf = PolyFile(kind="H", rows=matrix((b,) + tuple(-x for x in a)
                                            for a, b in zip(P.A, P.b)))
    else:
        path = directory / f"{name}.ext"
        pf = PolyFile(kind="V", rows=matrix((1,) + tuple(v) for v in P.vertices))
    path.write_text(write_polyfile(pf))
    return path


@pytest.mark.parametrize("name", sorted(AUTOMORPHISMS_PINNED))
def test_automorphisms_output_pinned(name, tmp_path, capsys):
    code, err, out = AUTOMORPHISMS_PINNED[name]
    assert run(capsys, "automorphisms", _input_file(tmp_path, name)) == (code, out, err)


def test_automorphisms_of_a_cut7_image(tmp_path, capsys):
    # paper scale: CUT_7 has 2^6 vertices in dimension 21, and its affine
    # symmetry group has order 2^6 * 7! = 322560
    code, out, err = run(capsys, "automorphisms", _write_image(tmp_path, "cut7"))
    assert (code, err, out.splitlines()[0]) == (0, "", "order 322560")


def test_automorphisms_of_a_shuffled_cut8_image(tmp_path, capsys):
    # CUT_8 in a vertex order that costs a search without forward checking
    # 6-10 s: colour refinement leaves one cell of 128, so the assignment
    # order is the file's.  The benchmark's families module writes the file
    spec = importlib.util.spec_from_file_location(
        "polybench_families", Path(__file__).parent.parent / "polybench" / "families.py")
    families = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(families)
    path = tmp_path / "cut8.ext"
    families.write_v(path, families.image_v(random.Random("cut8"), families.cut_v(8), 3, 4))
    start = time.perf_counter()
    code, out, err = run(capsys, "automorphisms", path)
    assert time.perf_counter() - start < 3
    assert (code, err, out.splitlines()[0]) == (0, "", "order 5160960")


class TestConvertCmd:
    def test_cube_h_single_vertex_orbit(self, capsys):
        code, out, _ = run(capsys, "convert", FIX / "cube3.ine",
                           "--idm-adm-level", "0", "1")
        assert code == 0
        assert out == "vertex orbits 1\norbit 1 size 8 rep 1 -1 -1 -1\n"

    def test_cube_v_single_facet_orbit(self, capsys):
        code, out, _ = run(capsys, "convert", FIX / "cube3.ext")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "facet orbits 1" and "size 6" in lines[1]

    def test_trivial_symmetry_reps_equal_full_conversion(self, capsys):
        code, out, _ = run(capsys, "convert", FIX / "quad-asym.ext")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "facet orbits 4"
        got = set()
        for ln in lines[1:]:
            assert " size 1 rep " in ln
            ent = [F(t) for t in ln.split(" rep ")[1].split()]
            got.add(primitive(tuple(-x for x in ent[1:]) + (ent[0],)))
        pf = parse_polyfile((FIX / "quad-asym.ext").read_text())
        P = convert_dd(pf.to_vpolyhedron())
        want = {primitive(row + (b,)) for row, b in zip(P.A, P.b)}
        assert got == want

    def test_adjacencies_to_stdout(self, capsys):
        code, out, _ = run(capsys, "convert", FIX / "cube3.ext", "--adjacencies")
        assert code == 0
        assert "graph {" in out and "o1 " in out and out.endswith("}\n")

    def test_dot_without_adjacencies_is_refused(self, tmp_path, capsys, monkeypatch):
        # refused before any conversion work: a conversion here would crash
        # with exit 3
        def refuse(*args):
            raise AssertionError("conversion started")

        monkeypatch.setattr(cli, "affine_symmetry_group", refuse)
        dot = tmp_path / "cube3.dot"
        code, out, err = run(capsys, "convert", FIX / "cube3.ext", "--dot", dot)
        assert (code, out) == (2, "")
        assert err == "error: --dot needs --adjacencies\n"
        assert not dot.exists()

    def test_santos_dot_file(self, tmp_path, capsys):
        dot = tmp_path / "santos.dot"
        code, out, _ = run(capsys, "convert", FIX / "santos.ext",
                           "--adjacencies", "--dot", dot)
        assert code == 0
        assert out.splitlines()[0] == "facet orbits 6"
        text = dot.read_text()
        assert text.startswith("graph {") and text.endswith("}\n")
        assert sum("label=" in ln for ln in text.splitlines()) == 6

    # (exit code, stderr, stdout) on rational coordinates, on a midpoint of
    # an edge that a pencil tie puts on one facet with the two ends of that
    # edge, and on the refused inputs
    DIAMOND = "facet orbits 1\norbit 1 size 4 rep 1 -3 -3\n"
    SQUARE_ADM = ("facet orbits 3\norbit 1 size 2 rep 0 1 0\n"
                  "orbit 2 size 1 rep 2 0 -1\norbit 3 size 1 rep 0 0 1\n")
    SQUARE_IDM = ("facet orbits 3\norbit 1 size 2 rep 0 1 0\n"
                  "orbit 2 size 1 rep 0 0 1\norbit 3 size 1 rep 2 0 -1\n")
    PINNED = [
        ("diamond-third.ext", (), (0, "", DIAMOND)),
        ("diamond-third.ext", ("--idm-adm-level", "1", "1"), (0, "", DIAMOND)),
        ("diamond-third.ext", ("--adjacencies",),
         (0, "", DIAMOND + 'graph {\n  o1 [label="orbit 1 (size 4)"];\n  o1 -- o1;\n}\n')),
        ("square-midpoint.ext", (), (0, "", SQUARE_ADM)),
        ("square-midpoint.ext", ("--idm-adm-level", "1", "1"), (0, "", SQUARE_IDM)),
        ("square-midpoint.ext", ("--adjacencies",),
         (0, "", SQUARE_ADM + 'graph {\n  o1 [label="orbit 1 (size 2)"];\n'
          '  o2 [label="orbit 2 (size 1)"];\n  o3 [label="orbit 3 (size 1)"];\n'
          '  o1 -- o2;\n  o1 -- o3;\n}\n')),
        ("refuse-empty.ext", (), NO_VERTICES),
        ("refuse-ray.ext", (), RAYS),
        ("refuse-repeated.ext", (), REPEATED),
        ("refuse-empty.ine", (), NO_HULL),
        ("refuse-unbounded.ine", (), (2, "error: decomposition requires a bounded polytope\n", "")),
        ("refuse-redundant.ine", (), REDUNDANT),
        ("refuse-flat.ine", (), FLAT),
        ("refuse-linearity.ine", (), FLAT),
    ]

    @pytest.mark.parametrize("fixture,args,pinned", PINNED,
                             ids=[f"{p[0]}{''.join(p[1])}" for p in PINNED])
    def test_rational_and_non_vertex_output_pinned(self, fixture, args, pinned, tmp_path,
                                                   capsys):
        code, err, out = pinned
        assert run(capsys, "convert", _input_file(tmp_path, fixture), *args) == (code, out, err)

    # CUT_6: 32 vertices in dimension 15 and 3 facet orbits, which sum to the
    # 368 facets of the plain conversion; the walk at (0 1) meets the orbits
    # in another order than the incidence method and the plain conversion
    CUT6_WALK = ("facet orbits 3\n"
                 "orbit 1 size 80 rep 2 -1 0 0 0 -1 0 0 0 -1 0 0 0 0 0 0\n"
                 "orbit 2 size 192 rep 6 1 1 1 1 2 -1 -1 -1 -2 -1 -1 -2 -1 -2 -2\n"
                 "orbit 3 size 96 rep 2 1 1 1 0 1 -1 -1 0 -1 -1 0 -1 0 -1 0\n")
    CUT6_WALK_GRAPH = ("graph {\n"
                       '  o1 [label="orbit 1 (size 80)"];\n'
                       '  o2 [label="orbit 2 (size 192)"];\n'
                       '  o3 [label="orbit 3 (size 96)"];\n'
                       "  o1 -- o1;\n"
                       "  o1 -- o2;\n"
                       "  o1 -- o3;\n"
                       "  o2 -- o3;\n"
                       "  o3 -- o3;\n"
                       "}\n")
    CUT6_OTHER = ("facet orbits 3\n"
                  "orbit 1 size 80 rep 2 -1 0 0 0 -1 0 0 0 -1 0 0 0 0 0 0\n"
                  "orbit 2 size 96 rep 2 1 1 1 0 1 -1 -1 0 -1 -1 0 -1 0 -1 0\n"
                  "orbit 3 size 192 rep 6 1 1 1 1 2 -1 -1 -1 -2 -1 -1 -2 -1 -2 -2\n")
    CUT6_OTHER_GRAPH = ("graph {\n"
                        '  o1 [label="orbit 1 (size 80)"];\n'
                        '  o2 [label="orbit 2 (size 96)"];\n'
                        '  o3 [label="orbit 3 (size 192)"];\n'
                        "  o1 -- o1;\n"
                        "  o1 -- o2;\n"
                        "  o1 -- o3;\n"
                        "  o2 -- o2;\n"
                        "  o2 -- o3;\n"
                        "}\n")

    @pytest.fixture(scope="class")
    def cut6(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cut6") / "cut6.ext"
        rows = matrix((1,) + tuple(v) for v in cut_v(6).vertices)
        path.write_text(write_polyfile(PolyFile(kind="V", rows=rows)))
        return path

    @pytest.mark.parametrize("adjacencies", [(), ("--adjacencies",)], ids=["", "adjacencies"])
    @pytest.mark.parametrize("levels", [("0", "1"), ("1", "1"), ("2", "2")], ids=" ".join)
    def test_cut6_output_pinned(self, cut6, levels, adjacencies, capsys):
        walk = levels == ("0", "1")
        out = self.CUT6_WALK if walk else self.CUT6_OTHER
        if adjacencies:
            out += self.CUT6_WALK_GRAPH if walk else self.CUT6_OTHER_GRAPH
        args = ("convert", cut6, "--idm-adm-level", *levels, *adjacencies)
        assert run(capsys, *args) == (0, out, "")


class TestCountCmd:
    def test_cube_h(self, capsys):
        assert run(capsys, "count", FIX / "cube3.ine") == (0, "27\n", "")

    def test_cube_v(self, capsys):
        assert run(capsys, "count", FIX / "cube3.ext") == (0, "27\n", "")

    def test_symmetric_route(self, capsys):
        code, out, _ = run(capsys, "count", "--symmetric", FIX / "cube3-blocks.ine")
        assert (code, out) == (0, "27\n")

    def test_symmetric_needs_blocks_header(self, capsys):
        code, _, err = run(capsys, "count", "--symmetric", FIX / "cube3.ine")
        assert code == 2 and "blocks" in err

    @pytest.mark.parametrize("text", [
        "V-representation\nbegin\n0 3 rational\nend\n",
        "V-representation\nbegin\n1 3 rational\n0 1 0\nend\n",
        "H-representation\nbegin\n0 3 rational\nend\n",
    ], ids=["v-empty", "v-ray-only", "h-no-rows"])
    def test_missing_blocks_header_is_checked_first(self, text, tmp_path, capsys):
        # the header is checked before the input is converted: a body that
        # would fail conversion (no points, no rows) gives the same error
        f = tmp_path / "no-blocks.txt"
        f.write_text(text)
        assert run(capsys, "count", "--symmetric", f) == (
            2, "", "error: --symmetric needs a blocks header in the input file\n")

    def test_symmetric_route_takes_a_v_file(self, tmp_path, capsys):
        # the square [0, 2]^2 with its centre, by points: the symmetric count
        # converts it to its facet rows, as the H file of the same square
        v, h = tmp_path / "square.ext", tmp_path / "square.ine"
        v.write_text("V-representation\nbegin\n5 3 rational\n1 0 0\n1 2 0\n1 0 2\n"
                     "1 2 2\n1 1 1\nend\nblocks 2\n")
        h.write_text("H-representation\nbegin\n4 3 rational\n0 1 0\n2 -1 0\n0 0 1\n"
                     "2 0 -1\nend\nblocks 2\n")
        assert run(capsys, "count", "--symmetric", v) == run(capsys, "count", "--symmetric", h) \
            == run(capsys, "count", v) == (0, "9\n", "")

    def test_empty_polytope_counts_zero(self, tmp_path, capsys):
        f = tmp_path / "empty.ine"
        f.write_text("H-representation\nbegin\n1 2 rational\n-1 0\nend\n")
        assert run(capsys, "count", f) == (0, "0\n", "")

    def test_symmetric_unbounded_is_an_input_error(self, tmp_path, capsys):
        # the orthant x1, x2 >= 0 is invariant under the swap, and unbounded
        f = tmp_path / "orthant.ine"
        f.write_text("H-representation\nbegin\n2 3 rational\n0 1 0\n0 0 1\nend\nblocks 2\n")
        assert run(capsys, "count", "--symmetric", f) == (
            2, "", "error: cannot count lattice points of an unbounded polyhedron\n")

    def test_symmetric_with_linearity_and_blocks(self, tmp_path, capsys):
        # [0, 3]^4 with x1 + x2 = 3 (row 3, a linearity row) and x3 + x4 <= 4,
        # invariant under blocks (2, 2): the domain rows come before the
        # file's rows, and the equality keeps its place among them
        rows = [[0, 1, 0, 0, 0], [3, -1, 0, 0, 0], [3, -1, -1, 0, 0], [0, 0, 1, 0, 0],
                [3, 0, -1, 0, 0], [0, 0, 0, 1, 0], [3, 0, 0, -1, 0], [0, 0, 0, 0, 1],
                [3, 0, 0, 0, -1], [4, 0, 0, -1, -1]]
        f = tmp_path / "linearity-blocks.ine"
        f.write_text("H-representation\nlinearity 1 3\nbegin\n10 5 rational\n"
                     + "".join(" ".join(map(str, r)) + "\n" for r in rows) + "end\nblocks 2 2\n")
        scan = sum(all(r[0] + sum(map(mul, r[1:], x)) >= 0 for r in rows)
                   and 3 - x[0] - x[1] == 0 for x in product(range(4), repeat=4))
        assert scan == 4 * 13
        assert run(capsys, "count", "--symmetric", f) == run(capsys, "count", f) == (
            0, f"{scan}\n", "")

    def test_santos_count_by_its_slices(self, capsys):
        # 5931403 is the count the x5-first walk gave; x5 takes only the
        # values -1, 0 and 1 on santos' prismatoid, so its count is also the
        # sum over the three full-dimensional 4-D slices, cut from its facets
        start = time.perf_counter()
        assert run(capsys, "count", FIX / "santos.ext") == (0, "5931403\n", "")
        assert time.perf_counter() - start < 60
        H = convert_dd(parse_polyfile((FIX / "santos.ext").read_text()).to_vpolyhedron())
        slices = [HPolyhedron.from_rows([a[:4] for a in H.A],
                                        [b - a[4] * t for a, b in zip(H.A, H.b)])
                  for t in (-1, 0, 1)]
        assert sum(latcount.count_lattice_points(S) for S in slices) == 5931403


class TestEhrhartCmd:
    def test_half_segment(self, capsys):
        code, out, _ = run(capsys, "ehrhart", FIX / "segment-half.ine")
        assert code == 0
        assert out == "period 2\ndegree 1\nclass 0: 1 1/2\nclass 1: 1/2 1/2\n"

    def test_cube(self, capsys):
        code, out, _ = run(capsys, "ehrhart", FIX / "cube3.ine")
        assert code == 0
        assert out == "period 1\ndegree 3\nclass 0: 1 6 12 8\n"

    def test_period_bound_refusal(self, capsys):
        code, _, err = run(capsys, "ehrhart", FIX / "segment-half.ine",
                           "--period-bound", "1")
        assert code == 2 and "period" in err

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_nonpositive_period_bound_is_an_input_error(self, bound, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ehrhart", str(FIX / "segment-half.ine"), "--period-bound", bound])
        cap = capsys.readouterr()
        assert exc.value.code == 2
        assert cap.out == "" and "--period-bound" in cap.err and "at least 1" in cap.err

    @pytest.mark.parametrize("name", ["ilp-huge.ine", "santos.ext"])
    def test_oversized_input_refused_at_once(self, capsys, name):
        # dilate 2 of [0, 1000]^3 and dilate 3 of santos.ext, the largest
        # of their sample plans, hold far more integer prefixes than the
        # walk's budget
        start = time.perf_counter()
        code, out, err = run(capsys, "ehrhart", FIX / name)
        assert time.perf_counter() - start < 30
        assert (code, out) == (2, "")
        assert err.startswith("error: Ehrhart counting exceeds budget 1000000:")
        assert err.count("\n") == 1


class TestVolumeCmd:
    def test_cube(self, capsys):
        assert run(capsys, "volume", FIX / "cube3.ine") == (0, "8\n", "")

    def test_half_segment(self, capsys):
        assert run(capsys, "volume", FIX / "segment-half.ine") == (0, "1/2\n", "")

    def test_quadrilateral_area(self, capsys):
        # shoelace area of (0,0), (3,0), (4,2), (0,1) is 5
        assert run(capsys, "volume", FIX / "quad-asym.ext") == (0, "5\n", "")

    def test_empty_exits_1(self, tmp_path, capsys):
        f = tmp_path / "empty.ine"
        f.write_text("H-representation\nbegin\n1 2 rational\n-1 0\nend\n")
        code, _, err = run(capsys, "volume", f)
        assert code == 1 and "empty" in err


class TestIlpCmd:
    def test_symmetric_optimize(self, capsys):
        code, out, _ = run(capsys, "ilp", FIX / "cube3-obj.ine")
        assert code == 0
        assert out == "feasible\npoint 1 1 1\nobjective 3\nfibers tested 1\n"

    def test_symmetric_feasibility(self, capsys):
        code, out, _ = run(capsys, "ilp", FIX / "cube3-blocks.ine")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "feasible" and lines[1].startswith("point ")
        assert lines[2].startswith("fibers tested ")

    def test_infeasible_slab(self, capsys):
        code, out, _ = run(capsys, "ilp", FIX / "ilp-infeas.ine")
        assert code == 1
        assert out.splitlines()[0] == "infeasible"

    def test_minimize(self, tmp_path, capsys):
        pf = parse_polyfile((FIX / "cube3-obj.ine").read_text())
        f = tmp_path / "min.ine"
        f.write_text(write_polyfile(PolyFile(
            pf.kind, pf.rows, pf.linearity,
            ("minimize", pf.objective[1]), pf.blocks)))
        code, out, _ = run(capsys, "ilp", f)
        assert code == 0
        assert out == "feasible\npoint -1 -1 -1\nobjective -3\nfibers tested 1\n"

    def test_answer_does_not_depend_on_row_scaling(self, tmp_path, capsys):
        # the same block system with three box rows scaled by 5, 4 and 3 and
        # a row scaled by 1/9, and with every row primitive
        rows = [((1, 0, 0, 0), 1), ((-1, 0, 0, 0), 3), ((0, 1, 0, 0), 1), ((0, -1, 0, 0), 3),
                ((0, 0, 5, 0), 5), ((0, 0, -4, 0), 8), ((0, 0, 0, 1), 0), ((0, 0, 0, -3), 3),
                ((2, 2, -3, 1), -3), ((0, 0, 1, 1), F(-1, 3))]
        outs = []
        for name, scale in [("scaled", False), ("primitive", True)]:
            body = [primitive((bb, *(-x for x in a))) if scale else (bb, *(-x for x in a))
                    for a, bb in rows]
            f = tmp_path / f"{name}.ine"
            f.write_text(write_polyfile(PolyFile("H", matrix(body), blocks=(2, 1, 1))))
            outs.append(run(capsys, "ilp", f))
        assert outs[0] == outs[1] == (0, "feasible\npoint -1 -1 0 -1\nfibers tested 4\n", "")

    def test_no_blocks_walks_without_warning(self, capsys):
        # without blocks the answer is the lex-least point of the counting walk
        assert run(capsys, "ilp", FIX / "cube3.ine") == (0, "feasible\npoint -1 -1 -1\n", "")

    def test_walk_past_node_budget_refused(self, tmp_path, monkeypatch, capsys):
        # the plane 3(x1 + x2 + x3) = 1 holds no integer point of [-10, 10]^3,
        # which the walk learns only after fixing 21 values of x1 and the 320
        # pairs (x1, x2) of the plane's projection
        f = tmp_path / "plane.ine"
        f.write_text("H-representation\nlinearity 1 1\nbegin\n7 4 rational\n1 -3 -3 -3\n"
                     + "".join(f"10 {' '.join('1' if j == i else '0' for j in range(3))}\n"
                               f"10 {' '.join('-1' if j == i else '0' for j in range(3))}\n"
                               for i in range(3))
                     + "end\n")
        assert run(capsys, "ilp", f) == (1, "infeasible\n", "")
        monkeypatch.setattr(latcount, "_WALK_BUDGET", 320)
        assert run(capsys, "ilp", f) == (1, "infeasible\n", "")
        monkeypatch.setattr(latcount, "_WALK_BUDGET", 319)
        assert run(capsys, "ilp", f) == (
            2, "", "error: integer point search exceeds budget 319 prefixes\n")

    def test_lattice_free_box_under_the_old_cap_answers(self, tmp_path, capsys):
        # 0 <= x1 <= 199999, x2 = ... = x6 = 0 and 2 x7 = 1: a box of
        # 200,000 points over x1..x6, which the walk fixes on each of six
        # levels, 1.2 million prefixes in all, before it answers infeasible
        f = tmp_path / "slab.ine"
        rows = ["199999 -1 0 0 0 0 0 0", "0 1 0 0 0 0 0 0"]
        rows += [" ".join("1" if j == i else "0" for j in range(8)) for i in range(2, 7)]
        f.write_text("H-representation\nlinearity 6 3 4 5 6 7 8\nbegin\n8 8 rational\n"
                     + "\n".join(rows) + "\n1 0 0 0 0 0 0 -2\nend\n")
        assert run(capsys, "ilp", f) == (1, "infeasible\n", "")

    def test_unbounded_without_blocks_refused(self, tmp_path, capsys):
        f = tmp_path / "orthant.ine"
        f.write_text("H-representation\nbegin\n2 3 rational\n0 1 0\n0 0 1\nend\n")
        assert run(capsys, "ilp", f) == (
            2, "", "error: integer programming needs a bounded polyhedron\n")

    def test_unbounded_with_blocks_refused(self, tmp_path, capsys):
        # the orthant in R^2 under the swap of x1 and x2: the block sum is unbounded
        f = tmp_path / "orthant-blocks.ine"
        f.write_text("H-representation\nbegin\n2 3 rational\n0 1 0\n0 0 1\nend\nblocks 2\n")
        assert run(capsys, "ilp", f) == (
            2, "", "error: projection onto the invariant subspace is unbounded\n")

    @pytest.mark.parametrize("box, err", [
        ("2 -1 0\n2 0 -1", "the objective is not constant on each block"),
        ("2 -1 0\n3 0 -1", "the system is not invariant under the block group"),
    ], ids=["objective", "system"])
    def test_non_invariant_with_blocks_refused(self, tmp_path, capsys, box, err):
        # 0 <= x1 <= 2, 0 <= x2 <= 2 (or 3) under the swap of x1 and x2, with
        # the objective x1 + 2 x2: each part that is not invariant names itself,
        # the rows first
        f = tmp_path / "swap.ine"
        f.write_text(f"H-representation\nbegin\n4 3 rational\n0 1 0\n0 0 1\n{box}\nend\n"
                     "maximize 0 1 2\nblocks 2\n")
        assert run(capsys, "ilp", f) == (2, "", f"error: {err}\n")

    def test_row_listed_more_often_than_its_swap_refused(self, tmp_path, capsys):
        # x1 <= 2 twice and x2 <= 2 once under the swap of x1 and x2: each
        # row's swap is in the file, but not as often as the row
        f = tmp_path / "twice.ine"
        f.write_text("H-representation\nbegin\n5 3 rational\n0 1 0\n0 0 1\n2 -1 0\n2 -1 0\n"
                     "2 0 -1\nend\nblocks 2\n")
        assert run(capsys, "ilp", f) == (
            2, "", "error: the system is not invariant under the block group\n")

    # exact stdout, exit code and stderr on every ILP fixture, at two worker
    # counts; "fibers tested" is the 1-based position of the answer's fiber in
    # the sweep order, or every fiber of an infeasible system (none here: the
    # block sum of ilp-infeas.ine has no integer in its range).  ilp-relax.ine
    # has no objective and block sums over 0..12, 0..14 and 0..12, so its
    # sweep starts at the fibers nearest the LP relaxation's point: with ties
    # in the ratio test going to the larger basis index, solve_lp returns
    # another point and this prints "point 1 1 7 7 1 1" after 1 fiber
    PINNED = [
        ("cube3-blocks.ine", 0, "feasible\npoint 0 0 0\nfibers tested 1\n", ""),
        ("ilp-relax.ine", 0, "feasible\npoint 4 3 4 3 3 2\nfibers tested 3\n", ""),
        ("cube3-obj.ine", 0,
         "feasible\npoint 1 1 1\nobjective 3\nfibers tested 1\n", ""),
        ("ilp-infeas.ine", 1, "infeasible\nfibers tested 0\n", ""),
        ("ilp-huge.ine", 0, "feasible\npoint 0 0 0\n", ""),
    ]

    @pytest.mark.parametrize("jobs", ["1", "4"])
    @pytest.mark.parametrize("fixture,code,out,err", PINNED,
                             ids=[p[0] for p in PINNED])
    def test_fixture_output_pinned(self, fixture, code, out, err, jobs, capsys):
        assert run(capsys, "ilp", FIX / fixture, "--jobs", jobs) == (code, out, err)

    def test_v_input_rejected(self, capsys):
        code, _, err = run(capsys, "ilp", FIX / "cube3.ext")
        assert code == 2 and "H-representation" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "ilp", FIX / "no-such-file.ine")
        assert code == 2 and err


@pytest.mark.parametrize("head,row,count,ilp", [
    ("", "5", "1\n", (0, "feasible\npoint\n")),
    ("", "-1", "0\n", (1, "infeasible\n")),
    ("linearity 1 1\n", "2", "0\n", (1, "infeasible\n")),
])
def test_width_one_file_lives_in_r0(tmp_path, capsys, head, row, count, ilp):
    # a width-1 file has no coordinates: R^0 holds one point, the empty tuple
    f = tmp_path / "r0.ine"
    f.write_text(f"H-representation\n{head}begin\n1 1 rational\n{row}\nend\n")
    assert run(capsys, "count", f) == (0, count, "")
    assert run(capsys, "ilp", f) == ilp + ("",)


class TestJobsDeterminism:
    PIPELINES = [
        ("convert", "santos.ext", "--adjacencies"),
        ("convert", "cube3.ine"),
        ("count", "--symmetric", "cube3-blocks.ine"),
        ("count", "cube3.ext"),
        ("ilp", "cube3-obj.ine"),
        ("ehrhart", "cube3.ine"),
        ("volume", "santos.ext"),
    ]

    @pytest.mark.parametrize("pipeline", PIPELINES,
                             ids=[" ".join(p[:2]) for p in PIPELINES])
    def test_jobs_do_not_change_output(self, pipeline, capsys):
        args = [a if a.startswith("--") else str(FIX / a) if "." in a else a
                for a in pipeline]
        runs = {}
        for jobs in ("1", "4"):
            code, out, _ = run(capsys, *args, "--jobs", jobs)
            assert code == 0
            runs[jobs] = out
        assert runs["1"] == runs["4"]

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_nonpositive_jobs_is_an_input_error(self, jobs, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["convert", str(FIX / "cube3.ine"), "--jobs", jobs])
        cap = capsys.readouterr()
        assert exc.value.code == 2
        assert cap.out == "" and "--jobs" in cap.err and "at least 1" in cap.err


_oracle = functools.cache(reference_parser)


def _subparsers(parser) -> dict:
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _reading(read, argv) -> tuple:
    """vars() of the namespace that read gives for argv, or the SystemExit
    code with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return "read", vars(read(argv))
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue(), err.getvalue()


class TestArgvReading:
    """argv is read from cli._COMMANDS: in one pass when it is a command, a
    file and exact flags, else by the argparse parser built from the same
    table; both read it as the hand-written parser, shapes.reference_parser,
    did."""

    def test_table_parser_prints_the_hand_written_help(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        built, oracle = cli._build_parser(), _oracle()
        pairs = [(built, oracle)] + [
            (_subparsers(built)[name], sub) for name, sub in _subparsers(oracle).items()]
        assert list(_subparsers(built)) == list(_subparsers(oracle))
        for b, o in pairs:
            assert (b.prog, b.format_usage(), b.format_help()) == \
                (o.prog, o.format_usage(), o.format_help())

    @pytest.mark.parametrize("argv", snapshot_outputs.ARGV, ids=" ".join)
    def test_argv_corpus_reads_as_the_hand_written_parser(self, argv, monkeypatch):
        # help, an abbreviation, --flag=value, refused values, an unknown
        # command, a missing or extra file: the same namespace, or the same
        # exit code and text
        monkeypatch.setenv("COLUMNS", "80")
        argv = [str(FIX / snapshot_outputs.ARGV_FIXTURE) if a == "F" else a for a in argv]
        main_reads = lambda a: cli._read_argv(a) or cli._build_parser().parse_args(a)  # noqa: E731
        assert _reading(main_reads, argv) == _reading(_oracle().parse_args, argv)

    @pytest.mark.parametrize("argv", [
        ["-h"], ["count", "-h"], ["count", "f", "--sym"], ["count", "f", "--jobs=2"],
        ["count", "f", "--jobs", "-1"], ["count", "-1"], ["count", "-"], ["count", "f", "--"],
        ["convert", "f", "--idm-adm-level", "-1", "1"], ["convert", "f", "--dot"],
        ["convert", "f", "--idm-adm-level", "1"], ["count"], ["count", "f", "g"],
        ["count", "f", "--jobs", "0"], ["count", "f", "--jobs", "x"], ["cnt", "f"], [],
        ["count", "f", "--period-bound", "2"], ["volume", "f", "--symmetric"],
    ], ids=" ".join)
    def test_what_argparse_reads_is_left_to_it(self, argv):
        assert cli._read_argv(argv) is None

    def test_none_reads_sys_argv(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["polyorbit", "count", "f", "--symmetric"])
        assert vars(cli._read_argv(None)) == vars(_oracle().parse_args(None))

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_one_pass_namespace_is_argparse_namespace(self, data):
        # commands, exact flags (mostly the command's own) with a count of
        # values, abbreviations, = forms, repeats, values int() reads in odd
        # spellings, and missing and extra files
        values = ["\u0663", "1_0", " 2", "+2", "0", "-1"]
        arity = {"--jobs": 1, "--idm-adm-level": 2, "--adjacencies": 0, "--dot": 1,
                 "--symmetric": 0, "--period-bound": 1}
        own = {"automorphisms": [], "convert": ["--idm-adm-level", "--adjacencies", "--dot"],
               "count": ["--symmetric"], "ehrhart": ["--period-bound"], "volume": [], "ilp": [],
               "cnt": [], "-h": [], "": []}

        def flag(flags):   # mostly with as many values as the flag takes
            return st.sampled_from(flags).flatmap(lambda f: st.sampled_from(
                [arity[f]] * 4 + [0, 1, 2]).flatmap(lambda n: st.lists(
                    st.sampled_from(values), min_size=n, max_size=n).map(lambda v: [f, *v])))

        command = data.draw(st.sampled_from(sorted(own)))
        own_flag = flag(["--jobs", *own[command]])
        other = st.sampled_from(["--adj", "--j", "--sym", "--period", "--idm", "--d", "-h", "--",
                                 "--jobs=2", "--dot=x.dot", "--period-bound=3", "--symmetric=1",
                                 "q.ext", *values]).map(lambda w: [w])
        units = data.draw(st.lists(st.one_of(own_flag, own_flag, own_flag, own_flag,
                                             flag(sorted(arity)), other), max_size=4))
        if data.draw(st.integers(0, 3)):   # one file, at a drawn place
            units.insert(data.draw(st.integers(0, len(units))), ["p.ine"])
        argv = [command] + [w for unit in units for w in unit]
        ns = cli._read_argv(argv)
        if ns is not None:
            assert _reading(_oracle().parse_args, argv) == ("read", vars(ns))

    def test_workload_argv_is_read_in_one_pass(self, workload_builds):
        # every job of the three workloads at seeds 1-5
        argvs = [job.argv for _, jobs in workload_builds for job in jobs]
        assert len(argvs) > 400
        for argv in argvs:
            ns = cli._read_argv(argv)
            assert ns is not None and vars(ns) == vars(_oracle().parse_args(argv))

    @pytest.fixture
    def no_parser(self, monkeypatch):
        calls = []

        def refuse():
            calls.append(True)
            raise AssertionError("argparse was built")

        monkeypatch.setattr(cli, "_build_parser", refuse)
        return calls

    @pytest.mark.parametrize("fixture", sorted(
        p.name for p in FIX.iterdir() if p.name not in snapshot_outputs.SKIPPED_FIXTURES))
    def test_main_builds_no_parser_for_a_fixture(self, fixture, no_parser, capsys):
        for cmd in snapshot_outputs.COMMANDS:
            main([cmd[0], str(FIX / fixture), *cmd[1:]])
            assert not no_parser, cmd
        capsys.readouterr()

    def test_main_builds_no_parser_for_a_workload_job(self, workload_builds, no_parser, capsys):
        # one job of each shape: its command and flags
        shapes = {}
        for _, jobs in workload_builds:
            for job in jobs:
                shapes.setdefault((job.argv[0], *(a for a in job.argv if a.startswith("-"))), job)
        assert len(shapes) >= 8
        for job in shapes.values():
            main(list(job.argv))
            assert not no_parser, job.argv
        capsys.readouterr()


class TestErrorContract:
    @pytest.mark.parametrize("command", ["automorphisms", "convert"])
    def test_one_row_half_line_is_an_input_error(self, command, tmp_path, capsys):
        # x >= 0 in R^1: one row, whose redundancy test once built a
        # zero-row LP and escaped as a ValueError traceback
        path = tmp_path / "half-line.ine"
        path.write_text("H-representation\nbegin\n1 2 rational\n0 1\nend\n")
        code, out, err = run(capsys, command, path)
        assert (code, out) == (2, "")
        assert err == ("error: homogenized rows do not span; "
                       "input must be bounded and full-dimensional\n")

    @pytest.mark.parametrize("command", ["count", "volume", "ehrhart", "ilp", "automorphisms",
                                         "convert"])
    def test_zero_row_h_file_is_an_input_error(self, command, tmp_path, capsys):
        # no rows at all once read as R^0 and got an answer with exit 0
        path = tmp_path / "zero.ine"
        path.write_text("H-representation\nbegin\n0 3 rational\nend\n")
        code, out, err = run(capsys, command, path)
        assert (code, out, err) == (2, "", "error: an H-representation needs at least one row\n")

    @pytest.mark.parametrize("command, code, err", [
        ("automorphisms", 1, "empty: the file lists no vertices\n"),
        ("convert", 1, "empty: the file lists no vertices\n"),
        ("count", 1, "empty: no points given\n"),
        ("ehrhart", 1, "empty: no points given\n"),
        ("volume", 1, "empty: no points given\n"),
        ("ilp", 2, "error: an H-representation file is required here\n"),
    ])
    def test_zero_row_v_file_is_empty(self, command, code, err, tmp_path, capsys):
        path = tmp_path / "zero.ext"
        path.write_text("V-representation\nbegin\n0 3 rational\nend\nmaximize 0 1 1\n")
        assert run(capsys, command, path) == (code, "", err)

    def test_zero_denominator_is_an_input_error(self, tmp_path, capsys):
        # "1/00" once passed the check and escaped Fraction(1, 0) as exit 3
        path = tmp_path / "zero-den.ine"
        path.write_text("H-representation\nbegin\n2 2 rational\n1 1/00\n1 -1\nend\n")
        code, out, err = run(capsys, "count", path)
        assert (code, out, err) == (2, "", "error: line 4: zero denominator: '1/00'\n")

    @pytest.mark.parametrize("text, line", [
        ("begin\n2 2 rational\n{big} -1\n1 1\nend\n", 4),   # an integer row, read in one pass
        ("begin\n2 2 rational\n1 1\n{big}/7 -1\nend\n", 5),  # a p/q entry
        ("begin\n2 2 rational\n1 1\n1 -1\nend\nmaximize 0 {big}\n", 7),
        # these three once named a wrong reason: non-integer sizes in the
        # header, a malformed linearity line, blocks that are not integers
        ("begin\n{big} 2 rational\n1 1\nend\n", 3),
        ("linearity 1 {big}\nbegin\n2 2 rational\n1 1\n1 -1\nend\n", 2),
        ("begin\n2 2 rational\n1 1\n1 -1\nend\nblocks 1 {big}\n", 7),
    ], ids=["integer-row", "p/q", "objective", "header", "linearity", "blocks"])
    def test_entry_past_the_digit_limit_is_an_input_error(self, text, line, tmp_path, capsys):
        # int() refuses more than sys.get_int_max_str_digits() digits; this
        # once escaped as "internal error: ValueError" (exit 3)
        limit = sys.get_int_max_str_digits()
        big = "7" * (limit + 701)
        path = tmp_path / "digits.ine"
        path.write_text("H-representation\n" + text.format(big=big))
        assert run(capsys, "count", path) == (
            2, "", f"error: line {line}: an entry exceeds the limit of {limit} digits\n")
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("command, answer", [
        ("count", "1" + "0" * 4249 + "2" + "0" * 4249 + "1"),   # (B + 1)^2
        ("volume", "1" + "0" * 8500),                           # B^2
    ])
    def test_answer_past_the_digit_limit_is_printed_exactly(self, command, answer,
                                                            tmp_path, capsys):
        # the box 0 <= x, y <= B = 10^4250: its entries are under the limit
        # of 4,300 digits and its answers are not; str() refuses them, and
        # this once exited 3 with "internal error: ValueError"
        limit = sys.get_int_max_str_digits()
        B = 10 ** 4250
        path = tmp_path / "big-box.ine"
        path.write_text("H-representation\nbegin\n4 3 integer\n0 1 0\n0 0 1\n"
                        f"1{'0' * 4250} -1 0\n1{'0' * 4250} 0 -1\nend\n")
        assert run(capsys, command, path) == (0, answer + "\n", "")
        assert answer == cli._num((B + 1) ** 2 if command == "count" else B * B)
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("x, text", [
        (0, "0"), (-7, "-7"), (F(-3, 4), "-3/4"), (F(6, 3), "2"),
        (10 ** 640, "1" + "0" * 640),                 # one whole chunk below the head
        (10 ** 1280 + 7, "1" + "0" * 1279 + "7"),     # a chunk of zeros kept whole
        (-(10 ** 5000 + 12345), "-1" + "0" * 4995 + "12345"),
        (F(10 ** 5000 + 1, 3), "1" + "0" * 4999 + "1/3"),
    ], ids=["zero", "negative", "fraction", "whole-fraction", "one-chunk", "zero-chunk",
            "long-negative", "long-fraction"])
    def test_numbers_print_in_decimal_past_the_digit_limit(self, x, text):
        assert cli._num(x) == text

    @pytest.mark.parametrize("command", ["count", "automorphisms", "ilp"])
    def test_file_that_is_not_utf8_is_an_input_error(self, command, tmp_path, capsys):
        # an input error named by its line, as every other parse error is,
        # not an internal error (exit 3) or the codec's byte offset
        path = tmp_path / "latin.ine"
        path.write_bytes(b"H-representation\nbegin\n1 2 rational\n1 \xff\nend\n")
        code, out, err = run(capsys, command, path)
        assert (code, out, err) == (2, "", "error: line 4: byte 0xff is not UTF-8"
                                           " (invalid start byte)\n")

    @pytest.mark.parametrize("data, message", [
        (b"\xffH-representation\n", "line 1: byte 0xff is not UTF-8 (invalid start byte)"),
        # lines end as parse_polyfile ends them: \r\n, a lone \r, and \x0c too
        (b"H-representation\r\nbegin\r1 2 rational\x0c\n\xe9 1\n",
         "line 5: byte 0xe9 is not UTF-8 (invalid continuation byte)"),
        (b"# \xc3\xa9t\xc3\xa9\n\nH-representation\nbegin\n1 2 rational\n1 1\nend\n\xe2\x82",
         "line 8: byte 0xe2 is not UTF-8 (unexpected end of data)"),
    ])
    def test_bad_utf8_names_the_line_of_its_first_bad_byte(self, data, message,
                                                          tmp_path, capsys):
        path = tmp_path / "bad.ine"
        path.write_bytes(data)
        assert run(capsys, "count", path) == (2, "", f"error: {message}\n")

    def test_set_orbit_over_budget_is_an_input_error(self, monkeypatch, tmp_path, capsys):
        # both facet orbits of CUT_5 have more than 20 sets
        path = tmp_path / "cut5.ext"
        rows = matrix((1,) + tuple(v) for v in cut_v(5).vertices)
        path.write_text(write_polyfile(PolyFile(kind="V", rows=rows)))
        monkeypatch.setattr(repconv, "orbit_of_set", partial(orbit_of_set, budget=20))
        code, out, err = run(capsys, "convert", path)
        assert (code, out, err) == (2, "", "error: set orbit exceeded budget 20\n")

    def test_row_and_facet_orbit_disagreement_is_a_verification_failure(self, monkeypatch,
                                                                         capsys):
        # a facet orbit that does not match its row orbit fails an internal
        # check: exit 3, not the input error of exit 2
        def vertex_orbit(G, S):
            return orbit_of_set(G, frozenset([min(S)]))   # 8 vertices, 6 rows

        monkeypatch.setattr(repconv, "orbit_of_set", vertex_orbit)
        code, out, err = run(capsys, "convert", FIX / "cube3.ine")
        assert (code, out, err) == (
            3, "", "verification failure: internal error: row and facet orbits disagree\n")

    def test_unexpected_exception_is_exit_3(self, monkeypatch, capsys):
        def broken(V):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "affine_symmetry_group", broken)
        code, out, err = run(capsys, "automorphisms", FIX / "cube3.ext")
        assert (code, out, err) == (3, "", "internal error: ValueError: boom\n")


class TestModuleEntryPoint:
    @pytest.mark.parametrize("args", [("automorphisms", "cube3.ext"),
                                      ("convert", "cube3.ine", "--jobs", "2")])
    def test_python_m_polyorbit_matches_main(self, args, capsys):
        argv = [str(FIX / a) if "." in a else a for a in args]
        code, out, _ = run(capsys, *argv)
        src = str(Path(polyorbit.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "polyorbit", *argv], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
        assert (proc.returncode, proc.stderr, proc.stdout) == (code, "", out)
