"""CLI tests: file parsing, each subcommand against known answers, exit
codes, and byte-identical output across worker counts."""

import os
import subprocess
import sys
import time
from fractions import Fraction as F
from functools import partial
from pathlib import Path

import pytest

import polyorbit
from polyorbit import (
    HPolyhedron,
    PolyFile,
    PolyFileError,
    convert_dd,
    parse_polyfile,
    write_polyfile,
)
from polyorbit import cli, latcount, repconv
from polyorbit.cli import main
from polyorbit.permgrp import orbit_of_set
from polyorbit.polycore import matrix, primitive

from shapes import cut_v

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

    # rational coordinates, and a midpoint of an edge that a pencil tie puts
    # on one facet with the two ends of that edge
    DIAMOND = "facet orbits 1\norbit 1 size 4 rep 1 -3 -3\n"
    SQUARE_ADM = ("facet orbits 3\norbit 1 size 2 rep 0 1 0\n"
                  "orbit 2 size 1 rep 2 0 -1\norbit 3 size 1 rep 0 0 1\n")
    SQUARE_IDM = ("facet orbits 3\norbit 1 size 2 rep 0 1 0\n"
                  "orbit 2 size 1 rep 0 0 1\norbit 3 size 1 rep 2 0 -1\n")
    PINNED = [
        ("diamond-third.ext", (), DIAMOND),
        ("diamond-third.ext", ("--idm-adm-level", "1", "1"), DIAMOND),
        ("diamond-third.ext", ("--adjacencies",),
         DIAMOND + 'graph {\n  o1 [label="orbit 1 (size 4)"];\n  o1 -- o1;\n}\n'),
        ("square-midpoint.ext", (), SQUARE_ADM),
        ("square-midpoint.ext", ("--idm-adm-level", "1", "1"), SQUARE_IDM),
        ("square-midpoint.ext", ("--adjacencies",),
         SQUARE_ADM + 'graph {\n  o1 [label="orbit 1 (size 2)"];\n'
         '  o2 [label="orbit 2 (size 1)"];\n  o3 [label="orbit 3 (size 1)"];\n'
         '  o1 -- o2;\n  o1 -- o3;\n}\n'),
    ]

    @pytest.mark.parametrize("fixture,args,out", PINNED,
                             ids=[f"{p[0]}{''.join(p[1])}" for p in PINNED])
    def test_rational_and_non_vertex_output_pinned(self, fixture, args, out, capsys):
        assert run(capsys, "convert", FIX / fixture, *args) == (0, out, "")

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
        # the dilates 1..5 of [0, 1000]^3 and 1..7 of santos.ext hold far
        # more integer prefixes than the walk's budget
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

    # exact stdout, exit code and stderr on every ILP fixture, at two worker
    # counts; "fibers tested" is the 1-based position of the answer's fiber in
    # the sweep order, or every fiber of an infeasible system (none here: the
    # block sum of ilp-infeas.ine has no integer in its range)
    PINNED = [
        ("cube3-blocks.ine", 0, "feasible\npoint 0 0 0\nfibers tested 1\n", ""),
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

    @pytest.mark.parametrize("command", ["count", "volume", "ehrhart", "ilp"])
    def test_zero_row_h_file_is_an_input_error(self, command, tmp_path, capsys):
        # no rows at all once read as R^0 and got an answer with exit 0
        path = tmp_path / "zero.ine"
        path.write_text("H-representation\nbegin\n0 3 rational\nend\n")
        code, out, err = run(capsys, command, path)
        assert (code, out, err) == (2, "", "error: an H-representation needs at least one row\n")

    def test_set_orbit_over_budget_is_an_input_error(self, monkeypatch, tmp_path, capsys):
        # both facet orbits of CUT_5 have more than 20 sets
        path = tmp_path / "cut5.ext"
        rows = matrix((1,) + tuple(v) for v in cut_v(5).vertices)
        path.write_text(write_polyfile(PolyFile(kind="V", rows=rows)))
        monkeypatch.setattr(repconv, "orbit_of_set", partial(orbit_of_set, budget=20))
        code, out, err = run(capsys, "convert", path)
        assert (code, out, err) == (2, "", "error: set orbit exceeded budget 20\n")

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
