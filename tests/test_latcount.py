"""Counting, Ehrhart interpolation, volume, and slice decomposition."""
import random
import sys
from fractions import Fraction as F
from itertools import permutations, product
from math import ceil, factorial, floor, gcd
from pathlib import Path

import pytest

from polyorbit.permgrp import PermutationGroup
from polyorbit.polycore import (
    EmptyPolyhedronError,
    HPolyhedron,
    PolyhedronError,
    VerificationError,
    VPolyhedron,
    dot,
    gauss_jordan,
    matrix,
    primitive,
    rank,
    solve_lp,
    zero_vector,
)
from polyorbit.latcount import (
    QuasiPolynomial,
    count_lattice_points,
    count_with_symmetry,
    ehrhart,
    first_lattice_point,
    slice_decomposition,
    volume,
)
from polyorbit.cli import main, parse_polyfile
from polyorbit.repconv import convert_dd
from polyorbit.symilp import block_group, canonical_core_point, orbit_barycenter
from shapes import (birkhoff, cross_h, cross_v, cube_h, cube_v, reference_chain,
                    reference_count, reference_ehrhart, reference_volume, simplex_h, simplex_v,
                    vec_add)
from test_symilp import (
    apply_perm,
    enum_integral,
    lex_first,
    random_invariant_system,
    rational_invariant_system,
)


FIX = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).resolve().parents[1]


def box_count(P):
    """Independent counting route: box scan with exact membership."""
    lo, hi = [], []
    for i in range(P.n):
        e = tuple(F(int(i == j)) for j in range(P.n))
        top = solve_lp(P, e)
        if top.status == "infeasible":
            return 0
        bot = solve_lp(P, e, maximize=False)
        assert top.status == "optimal" and bot.status == "optimal"
        lo.append(ceil(bot.value))
        hi.append(floor(top.value))
    return sum(1 for q in product(*(range(a, b + 1) for a, b in zip(lo, hi)))
               if P.contains(tuple(F(x) for x in q)))


def random_polytope(rng, n, denom=1):
    """Bounded random H-polytope: a box plus a few cutting rows."""
    A, b = [], []
    for i in range(n):
        for s in (1, -1):
            row = [F(0)] * n
            row[i] = F(s)
            A.append(tuple(row))
            b.append(F(rng.randint(1, 2 * denom), denom))
    for _ in range(rng.randint(1, 3)):
        row = tuple(F(rng.randint(-2, 2)) for _ in range(n))
        A.append(row)
        b.append(F(rng.randint(0, 3 * denom), denom))
    return HPolyhedron.from_rows(A, b)


class TestFirstLatticePoint:
    def test_matches_box_oracle(self):
        # feasibility, a zero objective, c and -c (the minimize case), and an
        # objective with coefficients up to 10^6 over denominators up to 10^4,
        # on boxes cut by rows; a third are held on an equality row, and a
        # sixth are cut to the slab 1/3 <= x1 <= 2/3, which holds no integer
        # point
        rng = random.Random(20261018)
        seen = set()
        for t in range(300):
            n = 1 + t % 4
            P = random_polytope(rng, n, denom=1 + t % 3)
            e1 = (F(1),) + (F(0),) * (n - 1)
            if t % 3 == 0:
                P = HPolyhedron.from_rows(
                    P.A + (tuple(F(rng.randint(-2, 2)) for _ in range(n)),),
                    P.b + (F(rng.randint(-2, 2), rng.choice([1, 2])),),
                    equality_rows=(len(P.A) + 1,))
            elif t % 6 == 1:
                P = HPolyhedron.from_rows(P.A + (e1, tuple(-x for x in e1)),
                                          P.b + (F(2, 3), F(-1, 3)))
            pts = enum_integral(P)
            c = tuple(F(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(n))
            big = tuple(F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(n))
            for goal in (None, (F(0),) * n, c, tuple(-x for x in c), big):
                assert first_lattice_point(P, goal) == lex_first(pts, goal), (t, goal)
            seen.add((bool(pts), bool(P.equality_rows)))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_huge_cube_answers_at_once(self):
        # [0, 1000]^3: two prefixes, where a box scan has 1001^3 points; a
        # maximizer walks every prefix over the first n - 1 coordinates
        def cube(n):
            return HPolyhedron.from_rows(
                [tuple(F(s * (i == j)) for j in range(n)) for i in range(n) for s in (1, -1)],
                [1000, 0] * n)
        assert first_lattice_point(cube(3)) == (0, 0, 0)
        assert first_lattice_point(cube(2), (F(1, 2), F(-1, 3))) == (1000, 0)

    def test_objective_on_a_flat(self):
        # x1 + x2 = 3 in [0, 3]^2: the maximizers of x1 + x2 are the whole flat
        P = HPolyhedron.from_rows([(1, 1), (1, 0), (0, 1), (-1, 0), (0, -1)],
                                  [3, 3, 3, 0, 0], equality_rows=(1,))
        assert first_lattice_point(P, (1, 1)) == (0, 3)
        assert first_lattice_point(P, (2, 1)) == (3, 0)
        assert first_lattice_point(P, (1, 10**6)) == (0, 3)
        assert first_lattice_point(P, (F(10**6, 7), F(1, 10**4))) == (3, 0)

    def test_empty_and_r0(self):
        assert first_lattice_point(HPolyhedron.from_rows([(1, 0), (-1, 0)], [0, -1])) is None
        assert first_lattice_point(HPolyhedron(((),), (F(5),))) == ()
        assert first_lattice_point(HPolyhedron(((),), (F(-1),))) is None
        assert first_lattice_point(HPolyhedron(((),), (F(2),), (1,))) is None

    def test_objective_of_another_length_is_refused(self):
        # on [0, 2] x [0, 3] the lex-least maximizer of x1 is (2, 0); an
        # objective of length 1 or 3 is refused, as solve_lp refuses it
        P = HPolyhedron.from_rows([(1, 0), (0, 1), (-1, 0), (0, -1)], [2, 3, 0, 0])
        assert first_lattice_point(P, (1, 0)) == (2, 0)
        for c in ((1,), (1, 0, 5)):
            with pytest.raises(PolyhedronError, match="objective length does not match dimension"):
                first_lattice_point(P, c)

    def test_rays_refused(self):
        # the strip 1/5 <= x1 <= 4/5 holds no integer point, but has rays
        P = HPolyhedron.from_rows([(-1, 0), (1, 0)], [F(-1, 5), F(4, 5)])
        with pytest.raises(PolyhedronError, match="bounded"):
            first_lattice_point(P)

    def test_large_objective_walks_the_box(self):
        # 2x1 + 2x2 = 1 in [-5, 5]^2 holds no integer point: the walk fixes
        # the 10 values of x1 whatever the size of c, as a box scan would
        P = HPolyhedron.from_rows(
            [(2, 2), (1, 0), (0, 1), (-1, 0), (0, -1)], [1, 5, 5, 5, 5], equality_rows=(1,))
        assert first_lattice_point(P, (1, 10**6)) is None
        assert first_lattice_point(P, (1, F(1, 10**4))) is None

    def test_budget_holds_per_level(self, monkeypatch):
        import polyorbit.latcount as lc
        # 0 <= x1 <= 9, x2 = 0 and 2 x3 = 1: the walk fixes 10 values on
        # each of the first two levels, 20 in all, and none extends to x3
        P = HPolyhedron.from_rows(
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 2)], [9, 0, 0, 1], equality_rows=(3, 4))
        monkeypatch.setattr(lc, "_WALK_BUDGET", 10)
        assert first_lattice_point(P) is None
        assert first_lattice_point(P, (0, 0, 1)) is None
        monkeypatch.setattr(lc, "_WALK_BUDGET", 9)
        with pytest.raises(PolyhedronError, match="budget 9 prefixes"):
            first_lattice_point(P)

    def test_first_leaf_stops_the_walk(self, monkeypatch):
        import polyorbit.latcount as lc
        # [0, 9]^2 has 10 values of x1: the lex-least point fixes one, and a
        # maximizer all ten, though the first one fixed is the answer
        P = HPolyhedron.from_rows([(1, 0), (0, 1), (-1, 0), (0, -1)], [9, 9, 0, 0])
        monkeypatch.setattr(lc, "_WALK_BUDGET", 9)
        assert first_lattice_point(P) == (0, 0)
        with pytest.raises(PolyhedronError, match="budget 9"):
            first_lattice_point(P, (-1, 1))
        monkeypatch.setattr(lc, "_WALK_BUDGET", 10)
        assert first_lattice_point(P, (-1, 1)) == (0, 9)

    def test_solves_no_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("the first-point walk solved an LP")

        for name, module in list(sys.modules.items()):
            if name.startswith("polyorbit") and hasattr(module, "solve_lp"):
                monkeypatch.setattr(module, "solve_lp", no_lp)
        assert first_lattice_point(cube_h(3), (1, 1, 1)) == (1, 1, 1)


class TestCountLatticePoints:
    def test_cube(self):
        assert count_lattice_points(cube_h(3)) == 27

    def test_standard_simplex(self):
        assert count_lattice_points(simplex_h(2)) == 3

    def test_empty(self):
        P = HPolyhedron.from_rows([(1, 0), (-1, 0)], [0, -1])
        assert count_lattice_points(P) == 0

    def test_unbounded_rejected(self):
        P = HPolyhedron.from_rows([(1, 0), (0, 1)], [0, 0])
        with pytest.raises(PolyhedronError, match="unbounded"):
            count_lattice_points(P)

    def test_equality_rows_respected(self):
        # x1 + x2 = 1 held as an equality inside the unit box
        P = HPolyhedron.from_rows(
            [(1, 1), (1, 0), (0, 1), (-1, 0), (0, -1)],
            [1, 1, 1, 0, 0], equality_rows=(1,))
        assert count_lattice_points(P) == 2

    def test_lower_dimensional(self):
        # diagonal segment from (0,0) to (2,2)
        P = HPolyhedron.from_rows(
            [(1, -1), (-1, 1), (1, 0), (-1, 0)], [0, 0, 2, 0])
        assert count_lattice_points(P) == 3

    def test_half_segment_dilates(self):
        seg = HPolyhedron.from_rows([(-1,), (2,)], [0, 1])
        got = [count_lattice_points(seg.dilate(lam)) for lam in range(1, 7)]
        assert got == [1, 2, 2, 3, 3, 4]

    def test_matches_box_enumeration(self):
        rng = random.Random(20240311)
        for _ in range(8):
            P = random_polytope(rng, rng.randint(2, 3), denom=rng.choice([1, 2]))
            assert count_lattice_points(P) == box_count(P)

    def test_oracle_on_equalities_flats_and_dilates(self):
        rng = random.Random(20261018)
        for _ in range(24):
            n = rng.randint(1, 3)
            P = random_polytope(rng, n, denom=rng.choice([1, 2, 3]))
            A, b, eq = list(P.A), list(P.b), ()
            a = tuple(F(rng.randint(-2, 2)) for _ in range(n))
            c = F(rng.randint(-2, 2), rng.choice([1, 2]))
            shape = rng.choice(["plain", "equality", "flat"])
            if shape == "equality":      # a.x = c, marked as an equality row
                A.append(a)
                b.append(c)
                eq = (len(A),)
            elif shape == "flat":        # the same hyperplane as two inequalities
                A += [a, tuple(-x for x in a)]
                b += [c, -c]
            Q = HPolyhedron.from_rows(A, b, eq)
            for lam in (1, 2, 3):
                D = Q.dilate(lam)
                assert count_lattice_points(D) == box_count(D)

    def test_unbounded_without_integer_first_coordinate(self):
        # 1/5 <= x1 <= 4/5 with x2 free holds no integer point
        P = HPolyhedron.from_rows([(-1, 0), (1, 0)], [F(-1, 5), F(4, 5)])
        assert count_lattice_points(P) == 0

    def test_unbounded_fiber_rejected(self):
        # 0 <= x1 <= 1 with x2 free: every integer x1 has an unbounded fiber
        P = HPolyhedron.from_rows([(-1, 0), (1, 0)], [0, 1])
        with pytest.raises(PolyhedronError, match="unbounded"):
            count_lattice_points(P)

    def test_one_dimensional(self):
        assert count_lattice_points(HPolyhedron.from_rows([(-3,), (2,)], [1, 7])) == 4
        assert count_lattice_points(HPolyhedron.from_rows([(2,)], [4], (1,))) == 1
        assert count_lattice_points(HPolyhedron.from_rows([(2,)], [3], (1,))) == 0
        assert count_lattice_points(HPolyhedron.from_rows([(2,), (-2,)], [1, -1])) == 0
        with pytest.raises(PolyhedronError, match="unbounded"):
            count_lattice_points(HPolyhedron.from_rows([(-1,)], [0]))

    def test_counting_solves_no_lp(self, monkeypatch):
        rng = random.Random(5)
        cases = [random_polytope(rng, 3, denom=2) for _ in range(3)]
        cases += [cube_h(3).dilate(2), simplex_h(2),
                  HPolyhedron.from_rows([(1, -1), (-1, 1), (1, 0), (-1, 0)], [0, 0, 2, 0])]
        expected = [box_count(P) for P in cases]

        def no_lp(*args, **kwargs):
            raise AssertionError("lattice counting solved an LP")

        for name, module in list(sys.modules.items()):
            if name.startswith("polyorbit") and hasattr(module, "solve_lp"):
                monkeypatch.setattr(module, "solve_lp", no_lp)
        assert [count_lattice_points(P) for P in cases] == expected
        assert count_lattice_points(HPolyhedron.from_rows([(1, 0), (-1, 0)], [0, -1])) == 0
        with pytest.raises(PolyhedronError, match="unbounded"):
            count_lattice_points(HPolyhedron.from_rows([(1, 0), (0, 1)], [0, 0]))

    @pytest.mark.parametrize("seed", range(40))
    def test_v_input_walks_its_own_points(self, monkeypatch, seed):
        # duplicates, midpoints and lower-dimensional hulls included; one
        # dd_cone call for the facets that top the chain, and none per level
        V = random_point_cloud(random.Random(seed))
        H = convert_dd(V)
        assert dd_cone_calls(monkeypatch, count_lattice_points, V) == 1
        assert count_lattice_points(V) == count_lattice_points(H) == box_count(H)

    @pytest.mark.parametrize("pts,rays", [
        ([(0, 0)], [(0, 1)]),                       # integral ray: refused
        ([(F(1, 2), 0)], [(0, 1)]),                 # no integral x1: counts 0
        ([(F(1, 2), 0)], [(1, 0), (-1, 0)]),        # a line: refused
    ])
    def test_v_input_with_rays_as_its_conversion(self, pts, rays):
        V = VPolyhedron.from_points(pts, rays)
        try:
            expected = count_lattice_points(convert_dd(V))
        except PolyhedronError as exc:
            with pytest.raises(PolyhedronError, match=str(exc)):
                count_lattice_points(V)
        else:
            assert count_lattice_points(V) == expected

    def test_v_input_without_points_is_empty(self):
        with pytest.raises(EmptyPolyhedronError, match="no points given"):
            count_lattice_points(VPolyhedron.from_points([], [(1, 0)]))

    @pytest.mark.parametrize("seed", range(16))
    def test_rational_image_into_one_more_dimension(self, seed):
        # a rational affine map of full column rank into R^(n+1): the hull is
        # a hyperplane whose lattice basis is no coordinate frame
        rng = random.Random(700 + seed)
        base = [cube_v(3), cross_v(3), cube_v(2), cross_v(4)][seed % 4]
        n = base.n
        while True:
            A = [tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
                 for _ in range(n + 1)]
            if rank(A) == n:
                break
        t = [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n + 1)]
        V = VPolyhedron.from_points([tuple(dot(row, v) + c for row, c in zip(A, t))
                                     for v in base.vertices])
        H = convert_dd(V)
        assert len(H.equality_rows) == 1
        assert volume(V) == volume(H) == reference_volume(H)

    @pytest.mark.parametrize("name", ["cube3.ext", "diamond-third.ext", "quad-asym.ext",
                                      "square-midpoint.ext"])
    def test_v_file_converts_nothing(self, monkeypatch, capsys, name):
        path = FIX / name
        V = parse_polyfile(path.read_text()).to_vpolyhedron()
        assert dd_cone_calls(monkeypatch, main, ["count", str(path)]) == 1
        assert capsys.readouterr() == (f"{count_lattice_points(convert_dd(V))}\n", "")

    def test_symmetric_counting_solves_no_lp(self, monkeypatch, capsys):
        rng = random.Random(17)
        cases = [(cube_h(3), (3,)), (unit_box(3), (1, 2)), (cube_h(2), (1, 1))]
        cases += [(random_invariant_system(rng, blocks), blocks)
                  for blocks in [(2,), (2, 2), (1, 2), (2, 1, 2)]]
        expected = [count_lattice_points(P) for P, _ in cases]

        def no_lp(*args, **kwargs):
            raise AssertionError("lattice counting solved an LP")

        for name, module in list(sys.modules.items()):
            if name.startswith("polyorbit") and hasattr(module, "solve_lp"):
                monkeypatch.setattr(module, "solve_lp", no_lp)
        assert [count_with_symmetry(P, blocks) for P, blocks in cases] == expected
        capsys.readouterr()
        assert main(["count", "--symmetric", str(FIX / "cube3-blocks.ine")]) == 0
        assert capsys.readouterr() == ("27\n", "")


class TestQuasiPolynomial:
    def test_evaluation_picks_residue_class(self):
        q = QuasiPolynomial(2, ((F(1), F(1, 2)), (F(1, 2), F(1, 2))), 1)
        assert [q.evaluate(lam) for lam in range(5)] == [1, 1, 2, 2, 3]

    def test_leading_coefficient(self):
        q = QuasiPolynomial(1, ((F(1), F(4), F(4)),), 2)
        assert q.leading_coefficient == 4

    def test_component_count_must_match_period(self):
        with pytest.raises(ValueError):
            QuasiPolynomial(2, ((F(1), F(1)),), 1)

    def test_components_share_degree(self):
        with pytest.raises(ValueError):
            QuasiPolynomial(2, ((F(1), F(1)), (F(1),)), 1)

    def test_leading_coefficients_agree(self):
        with pytest.raises(ValueError):
            QuasiPolynomial(2, ((F(0), F(1)), (F(0), F(2))), 1)


class TestEhrhart:
    def test_square(self):
        q = ehrhart(cube_h(2))
        assert q.period == 1 and q.degree == 2
        assert q.components == ((F(1), F(4), F(4)),)

    def test_cube(self):
        assert ehrhart(cube_h(3)).components == ((F(1), F(6), F(12), F(8)),)

    def test_integral_polytope_gives_polynomial(self):
        P = convert_dd(VPolyhedron.from_points([(0, 0), (2, 1), (1, 3)]))
        q = ehrhart(P)
        assert q.period == 1

    def test_half_segment(self):
        seg = HPolyhedron.from_rows([(-1,), (2,)], [0, 1])
        q = ehrhart(seg)
        assert q.period == 2
        assert q.components == ((F(1), F(1, 2)), (F(1, 2), F(1, 2)))

    @pytest.mark.parametrize("P", [
        cube_h(2),
        simplex_h(2),
        HPolyhedron.from_rows([(-1,), (2,)], [0, 1]),
        HPolyhedron.from_rows([(-1, 0), (0, -1), (2, 2)], [0, 0, 1]),
    ])
    def test_matches_counts_on_dilates(self, P):
        q = ehrhart(P)
        span = 2 * q.period * (q.degree + 1)
        for lam in range(1, span + 1):
            assert q.evaluate(lam) == count_lattice_points(P.dilate(lam))

    def test_constant_term_is_one(self):
        # class-0 component of any Ehrhart quasi-polynomial passes through
        # (0, 1): the zero dilate is the single point at the origin
        for P in (cube_h(2), HPolyhedron.from_rows([(-1,), (2,)], [0, 1])):
            assert ehrhart(P).evaluate(0) == 1

    def test_leading_coefficient_is_volume(self):
        for P in (cube_h(2), simplex_h(3),
                  HPolyhedron.from_rows([(-1,), (2,)], [0, 1])):
            assert ehrhart(P).leading_coefficient == volume(P)

    def test_period_bound(self):
        seg = HPolyhedron.from_rows([(-1,), (7,)], [0, 1])
        with pytest.raises(PolyhedronError, match="period"):
            ehrhart(seg, period_bound=3)

    def test_lower_dimensional_rejected(self):
        P = HPolyhedron.from_rows(
            [(1, -1), (-1, 1), (1, 0), (-1, 0)], [0, 0, 2, 0])
        with pytest.raises(PolyhedronError, match="full-dimensional"):
            ehrhart(P)

    def test_unbounded_rejected(self):
        with pytest.raises(PolyhedronError, match="bounded"):
            ehrhart(HPolyhedron.from_rows([(-1, 0), (0, -1)], [0, 0]))

    def test_v_input_is_read_on_its_points(self):
        # listed points that are not vertices, or repeat one, add no
        # denominator to the period; a zero ray leaves the polytope bounded
        square = VPolyhedron.from_points(
            [(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 3), F(1, 3)), (F(1, 2), 0), (1, 0)])
        assert ehrhart(square).components == ((F(1), F(2), F(1)),)
        tri = VPolyhedron.from_points([(0, 0), (F(1, 2), 0), (0, F(1, 3)), (F(1, 2), 0)],
                                      [(0, 0)])
        assert ehrhart(tri) == ehrhart(convert_dd(tri)) and ehrhart(tri).period == 6
        with pytest.raises(EmptyPolyhedronError, match="no points given"):
            ehrhart(VPolyhedron.from_points([], [(0, 1)]))
        with pytest.raises(PolyhedronError, match="bounded"):
            ehrhart(VPolyhedron.from_points([(0, 0), (1, 0)], [(0, 1)]))
        with pytest.raises(PolyhedronError, match="full-dimensional"):
            ehrhart(VPolyhedron.from_points([(0, 0), (1, 1), (2, 2)]))

    def test_mismatching_counts_are_caught(self, monkeypatch):
        import polyorbit.latcount as lc
        # the plan of [-1, 1]^2 is 0, 1, -1, 2: the closed counts of 1P and
        # 2P (9, and 25 as the check, cut 0) and the interior count of 1P (1,
        # the origin, cut 1); a lie at any of them is caught
        real = lc._count_scaled
        for t, cut, value in [(1, 0, 9), (2, 0, 25), (1, 1, 1)]:
            told = []

            def lying(levels, lam, c, t=t, cut=cut, told=told):
                v = real(levels, lam, c)
                if (lam, c) != (t, cut):
                    return v
                told.append(v)
                return v + 1

            with monkeypatch.context() as m:
                m.setattr(lc, "_count_scaled", lying)
                with pytest.raises(VerificationError):
                    lc.ehrhart(cube_h(2))
            assert told == [value]

    def test_prefix_budget(self, monkeypatch):
        import polyorbit.latcount as lc
        # the plan of [-1, 1]^3 is 0, 1, -1, 2, -2, so its largest dilate is
        # 2, with 5 * 5 prefixes over (x1, x2); that of a triangle of period
        # 2 reaches 4 in class 0 (0, 2, -2, 4), and x1 takes the 3 values
        # 0..2 in it
        tri = HPolyhedron.from_rows([(-1, 0), (0, -1), (1, 1)], [0, 0, F(1, 2)])
        for P, top, prefixes in [(cube_h(3), 2, 25), (tri, 4, 3)]:
            monkeypatch.setattr(lc, "_WALK_BUDGET", prefixes)
            lc.ehrhart(P)
            monkeypatch.setattr(lc, "_WALK_BUDGET", prefixes - 1)
            with pytest.raises(PolyhedronError, match=(
                    f"budget {prefixes - 1}: dilate {top} spans {prefixes} integer")):
                lc.ehrhart(P)


def interior_scan(P, t):
    """Integer points strictly inside every row of t*P, by a scan of the
    bounding box of its vertices."""
    V = convert_dd(P)
    box = [range(floor(t * min(c)), ceil(t * max(c)) + 1) for c in zip(*V.vertices)]
    return sum(all(dot(a, x) < t * b for a, b in zip(P.A, P.b)) for x in product(*box))


def jittered_polytope(rng, d):
    """A full-dimensional rational polytope near a cube, cross-polytope or
    simplex in R^d: every coordinate of the integral base points moved by
    -1, 0 or 1, then divided by a period of 2 or 3."""
    q = rng.choice([2, 3])
    base = rng.choice([[p for p in product((-2, 2), repeat=d)],
                       [tuple(s * 3 * (i == j) for j in range(d)) for i in range(d)
                        for s in (1, -1)],
                       [tuple(3 * (i == j) for j in range(d)) for i in range(-1, d)]])
    while True:
        pts = [tuple(F(x + rng.randint(-1, 1), q) for x in p) for p in base]
        if rank([tuple(a - b for a, b in zip(p, pts[0])) for p in pts[1:]]) == d:
            return convert_dd(VPolyhedron.from_points(pts))


FAMILIES = {"cube": (cube_h, cube_v), "cross": (cross_h, cross_v),
            "simplex": (simplex_h, simplex_v)}


class TestEhrhartReciprocity:
    """ehrhart, with interior counts at negative abscissae, against
    reference_ehrhart, interpolated on positive dilates alone."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_families_match_reference(self, family, d):
        H, V = (make(d) for make in FAMILIES[family])
        assert ehrhart(H) == ehrhart(V) == reference_ehrhart(H)

    def test_period_two_matches_reference(self):
        seg = parse_polyfile((FIX / "segment-half.ine").read_text()).to_hpolyhedron()
        tri = HPolyhedron.from_rows([(-1, 0), (0, -1), (1, 1)], [0, 0, F(1, 2)])
        for P in (seg, tri):
            assert ehrhart(P).period == 2
            assert ehrhart(P) == reference_ehrhart(P)

    @pytest.mark.parametrize("seed", range(12))
    def test_jittered_polytopes_match_reference(self, seed):
        rng = random.Random(f"ehrhart-jitter/{seed}")
        P = jittered_polytope(rng, 1 + seed % 3)
        assert ehrhart(P) == reference_ehrhart(P)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_lattice_counting_inputs_match_reference(self, seed, tmp_path, monkeypatch):
        # the inputs of every ehrhart job of one benchmark round
        monkeypatch.syspath_prepend(str(ROOT))
        from polybench import workloads
        jobs = [job for job in workloads.build("lattice-counting", seed, 10, str(tmp_path))
                if job.argv[0] == "ehrhart"]
        assert len(jobs) == 7
        for job in jobs:
            P = parse_polyfile(Path(job.argv[1]).read_text()).to_hpolyhedron()
            assert ehrhart(P) == reference_ehrhart(P), job.name

    @pytest.mark.parametrize("case", [f"{f}{d}" for f in sorted(FAMILIES) for d in (1, 2, 3)]
                             + [f"jitter{seed}" for seed in range(6)])
    def test_interior_count_matches_box_scan(self, case):
        import polyorbit.latcount as lc
        if case.startswith("jitter"):
            P = jittered_polytope(random.Random(f"interior/{case}"), 2 + int(case[6:]) % 2)
        else:
            P = FAMILIES[case[:-1]][0](int(case[-1]))
        d = P.n
        q = ehrhart(P)
        V = convert_dd(P)
        for t in (1, 2, 3):
            levels = lc._chain(lc._top(P)[1], lc._widest_last(V, t)[0])
            interior = lc._count_scaled(levels, t, 1)
            assert interior == interior_scan(P, t)
            assert q.evaluate(-t) == (-1) ** d * interior


class TestVolume:
    def test_cube(self):
        assert volume(cube_h(3)) == 8

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_standard_simplex(self, d):
        assert volume(simplex_h(d)) == F(1, factorial(d))

    def test_point(self):
        P = HPolyhedron.from_rows([(1,), (-1,)], [3, -3])
        assert volume(P) == 1

    def test_segment_length(self):
        P = HPolyhedron.from_rows([(-3,), (2,)], [-1, 7])
        assert volume(P) == F(7, 2) - F(1, 3)

    def test_diagonal_segment_lattice_relative(self):
        P = HPolyhedron.from_rows(
            [(1, -1), (-1, 1), (1, 0), (-1, 0)], [0, 0, 1, 0])
        assert volume(P) == 1

    def test_embedded_parallelogram(self):
        # spanned by (1,1,0) and (0,1,1): a unit cell of its plane's lattice
        pts = [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 2, 1)]
        assert volume(convert_dd(VPolyhedron.from_points(pts))) == 1

    def test_unimodular_invariance(self):
        base = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 2, 3)]
        ref = volume(convert_dd(VPolyhedron.from_points(base)))
        assert ref == F(1, 2)
        rng = random.Random(99)
        for _ in range(20):
            U = [[F(int(i == j)) for j in range(3)] for i in range(3)]
            for _ in range(6):  # random elementary row operations keep det = +-1
                i, j = rng.sample(range(3), 2)
                op = rng.randrange(3)
                if op == 0:
                    q = rng.randint(-2, 2)
                    U[i] = [a + q * c for a, c in zip(U[i], U[j])]
                elif op == 1:
                    U[i], U[j] = U[j], U[i]
                else:
                    U[i] = [-a for a in U[i]]
            img = [tuple(dot(row, p) for row in U) for p in base]
            assert volume(convert_dd(VPolyhedron.from_points(img))) == ref

    def test_birkhoff(self):
        B = birkhoff(3)
        assert [count_lattice_points(B.dilate(t)) for t in (1, 2, 3)] == [6, 21, 55]
        assert volume(B) == F(1, 8)

    def test_facets_pin_their_order(self):
        import polyorbit.latcount as lc
        # 0b00011 lies in 0b00111; the kept cuts come by size, then value
        rows = {0b00111, 0b11100, 0b00011, 0b01010, 0b11111, 0b10001}
        assert lc._facets(0b11111, rows) == [0b00111, 0b11100, 0b01010, 0b10001]
        assert lc._facets(0b11111, {0b11111}) == []
        assert lc._facets(0b0110, {0b1001, 0b1111}) == [0]

    @pytest.mark.parametrize("seed", range(8))
    def test_facets_are_the_maximal_cuts(self, seed):
        # against the quadratic definition, on random masks with nested cuts
        # and cuts of equal size, whatever order the rows come in
        import polyorbit.latcount as lc
        rng = random.Random(seed)
        n = rng.randint(3, 14)
        rows = [rng.getrandbits(n) for _ in range(rng.randint(1, 12))]
        for r in list(rows):
            rows.append(r & rng.getrandbits(n))                 # nested in r
            bits = [1 << j for j in range(n)]
            rng.shuffle(bits)
            rows.append(sum(bits[:r.bit_count()]))              # as large as r
        face = (1 << n) - 1 if seed % 2 else rng.getrandbits(n) | max(rows)
        cuts = {face & r for r in rows} - {face}
        want = [c for c in cuts if not any(c != o and c & o == c for o in cuts)]
        got = lc._facets(face, set(rows))
        assert sorted(got) == sorted(want)
        assert got == sorted(want, key=lambda c: (-c.bit_count(), c))
        for _ in range(3):
            rng.shuffle(rows)
            assert lc._facets(face, set(rows)) == got

    def test_unbounded_rejected(self):
        with pytest.raises(PolyhedronError, match="bounded"):
            volume(HPolyhedron.from_rows([(-1, 0), (0, -1)], [0, 0]))

    def test_zero_ray_leaves_the_polytope_bounded(self):
        # as in ehrhart: a zero ray adds nothing to the cone, a nonzero one is refused
        pts = [(0, 0), (1, 0), (0, 1)]
        assert volume(VPolyhedron.from_points(pts, [(0, 0)])) == \
            volume(VPolyhedron.from_points(pts)) == F(1, 2)
        with pytest.raises(PolyhedronError, match="bounded"):
            volume(VPolyhedron.from_points(pts, [(0, 0), (1, 0)]))

    def test_empty_rejected(self):
        P = HPolyhedron.from_rows([(1,), (-1,)], [0, -1])
        with pytest.raises(EmptyPolyhedronError):
            volume(P)

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_reference_route(self, seed):
        P = random_volume_polytope(random.Random(seed))
        assert volume(P) == reference_volume(P)

    @pytest.mark.parametrize("P", [cube_h(3), cube_h(5), cross_h(3), birkhoff(3)],
                             ids=["cube3", "cube5", "cross3", "birkhoff3"])
    def test_one_conversion_per_call(self, monkeypatch, P):
        # the triangulation reads the masks of one double description
        assert dd_cone_calls(monkeypatch, volume, P) == 1

    @pytest.mark.parametrize("seed", range(60))
    def test_v_input_matches_h_route(self, monkeypatch, seed):
        # a V input is measured on its own points, duplicates, midpoints and
        # points of lower-dimensional hulls included, in one conversion
        V = random_point_cloud(random.Random(seed))
        H = convert_dd(V)
        assert dd_cone_calls(monkeypatch, volume, V) == 1
        assert volume(V) == volume(H) == reference_volume(H)

    @pytest.mark.parametrize("seed", range(16))
    def test_rational_image_into_one_more_dimension(self, seed):
        # a rational affine map of full column rank into R^(n+1): the hull is
        # a hyperplane whose lattice basis is no coordinate frame
        rng = random.Random(700 + seed)
        base = [cube_v(3), cross_v(3), cube_v(2), cross_v(4)][seed % 4]
        n = base.n
        while True:
            A = [tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
                 for _ in range(n + 1)]
            if rank(A) == n:
                break
        t = [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n + 1)]
        V = VPolyhedron.from_points([tuple(dot(row, v) + c for row, c in zip(A, t))
                                     for v in base.vertices])
        H = convert_dd(V)
        assert len(H.equality_rows) == 1
        assert volume(V) == volume(H) == reference_volume(H)

    @pytest.mark.parametrize("name", ["cube3.ext", "diamond-third.ext", "quad-asym.ext",
                                      "santos.ext", "square-midpoint.ext"])
    def test_v_file_converts_once(self, monkeypatch, capsys, name):
        path = Path(__file__).parent / "fixtures" / name
        assert dd_cone_calls(monkeypatch, main, ["volume", str(path)]) == 1
        out = capsys.readouterr().out
        V = parse_polyfile(path.read_text()).to_vpolyhedron()
        assert out == f"{volume(convert_dd(V))}\n"

    def test_each_face_is_triangulated_once(self, monkeypatch):
        # faces shared by several parents are pulled once per volume call
        import polyorbit.latcount as lc
        real, faces = lc._pull, []

        def counted(face, *args):
            faces.append(face)
            return real(face, *args)

        monkeypatch.setattr(lc, "_pull", counted)
        for _ in range(2):
            faces.clear()
            assert volume(cube_h(5)) == 32
            assert len(faces) == len(set(faces)) == 31


def random_point_cloud(rng):
    """Seeded points whose hull is a polytope of dimension 0 to 3 in R^1 to
    R^4, given with repeated points and midpoints of random pairs."""
    n = rng.randint(1, 4)
    k = 0 if rng.random() < 0.1 else rng.randint(1, min(n, 3))
    M = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
    t = [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
    pts = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(rng.randint(k + 1, k + 5))]
    img = [tuple(t[i] + sum(m * x for m, x in zip(M[i], p)) for i in range(n)) for p in pts]
    for _ in range(rng.randint(0, 3)):
        img.append(rng.choice(img))
        p, q = rng.choice(img), rng.choice(img)
        img.append(tuple((x + y) / 2 for x, y in zip(p, q)))
    rng.shuffle(img)
    return VPolyhedron.from_points(img)


def random_volume_polytope(rng):
    """A seeded polytope with the rows a volume must see through.

    Either lattice points of Z^k mapped into R^n by an integer affine map (so
    the hull may be lower-dimensional and carries equality rows), or a box cut
    by random rows (rational vertices).  Then equalities may be split into two
    inequalities, and rows repeated, scaled, loosened or summed, and shuffled.
    """
    n = rng.randint(2, 5)
    if rng.random() < 0.6:
        k = rng.randint(1, n)
        M = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
        t = [rng.randint(-2, 2) for _ in range(n)]
        pts = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(rng.randint(k + 1, k + 5))]
        img = [tuple(t[i] + sum(m * x for m, x in zip(M[i], p)) for i in range(n)) for p in pts]
        H = convert_dd(VPolyhedron.from_points(img))
        rows = [(a, b, i + 1 in H.equality_rows) for i, (a, b) in enumerate(zip(H.A, H.b))]
    else:
        rows = [(tuple(F(s * (i == j)) for j in range(n)), F(2), False)
                for i in range(n) for s in (1, -1)]
        for _ in range(rng.randint(0, 4)):
            a = tuple(F(rng.randint(-3, 3)) for _ in range(n))
            rows.append((a, F(rng.randint(0, 6), rng.randint(1, 3)), False))
    out = []
    for a, b, eq in rows:
        if eq and rng.random() < 0.5:
            out += [(a, b, False), (tuple(-x for x in a), -b, False)]
        else:
            out.append((a, b, eq))
    for _ in range(rng.randint(0, 3)):
        a, b, eq = rng.choice(out)
        op = rng.randrange(3)
        if op == 0:
            q = F(rng.randint(1, 3), rng.randint(1, 2))
            out.append((tuple(q * x for x in a), q * b, eq))
        elif op == 1 and not eq:
            out.append((a, b + rng.randint(1, 3), False))
        else:
            a2, b2, eq2 = rng.choice(out)
            if not (eq or eq2):
                out.append((tuple(x + y for x, y in zip(a, a2)), b + b2, False))
    rng.shuffle(out)
    return HPolyhedron.from_rows([a for a, _, _ in out], [b for _, b, _ in out],
                                 [i for i, (_, _, eq) in enumerate(out, start=1) if eq])


def unit_box(n):
    A, b = [], []
    for i in range(n):
        for s in (1, -1):
            row = [F(0)] * n
            row[i] = F(s)
            A.append(tuple(row))
            b.append(F(1) if s > 0 else F(0))
    return HPolyhedron.from_rows(A, b)


class TestSliceDecomposition:
    def test_unit_square_anchors(self):
        dec = slice_decomposition(unit_box(2), (2,))
        assert [fo.sums for fo in dec.fiber_orbits] == [(0,), (1,), (2,)]
        assert [fo.anchor for fo in dec.fiber_orbits] == [
            (F(0), F(0)), (F(1, 2), F(1, 2)), (F(1), F(1))]
        assert [count_lattice_points(fo.fiber) for fo in dec.fiber_orbits] == [1, 2, 1]

    def test_invariant_slice_in_barycenter_coordinates(self):
        dec = slice_decomposition(unit_box(2), (2,))
        S = dec.invariant_slice
        assert S.n == 1
        # t ranges over [0, 1]: the diagonal of the unit square
        assert solve_lp(S, (F(1),)).value == 1
        assert solve_lp(S, (F(1),), maximize=False).value == 0

    def test_trivial_blocks_keep_whole_polytope(self):
        P = unit_box(2)
        dec = slice_decomposition(P, (1, 1))
        assert len(dec.fiber_orbits) == 1
        fo = dec.fiber_orbits[0]
        assert fo.sums == ()
        assert fo.fiber.A == P.A and fo.fiber.b == P.b
        assert count_lattice_points(fo.fiber) == 4

    def test_fiber_points_map_back(self):
        P = unit_box(2)
        dec = slice_decomposition(P, (2,))
        seen = set()
        for fo in dec.fiber_orbits:
            for y in enum_integral(fo.fiber):
                x = vec_add(fo.base_point,
                            tuple(dot(col, y) for col in zip(*dec.basis)))
                assert all(c.denominator == 1 for c in x)
                assert P.contains(x)
                assert sum(x) == fo.sums[0]
                seen.add(x)
        assert len(seen) == 4

    def test_simplex_fiber_counts(self):
        P = HPolyhedron.from_rows(
            [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 1)], [0, 0, 0, 3])
        dec = slice_decomposition(P, (3,))
        counts = [count_lattice_points(fo.fiber) for fo in dec.fiber_orbits]
        assert counts == [1, 3, 6, 10]  # triangle numbers per sum level
        assert sum(counts) == count_lattice_points(P)

    def test_mixed_blocks(self):
        dec = slice_decomposition(unit_box(3), (1, 2))
        assert [fo.sums for fo in dec.fiber_orbits] == [(0,), (1,), (2,)]
        counts = [count_lattice_points(fo.fiber) for fo in dec.fiber_orbits]
        assert counts == [2, 4, 2]

    def test_non_invariant_rejected(self):
        P = HPolyhedron.from_rows(
            [(1, 0), (0, 1), (-1, 0), (0, -1)], [1, 2, 0, 0])
        with pytest.raises(PolyhedronError, match="invariant"):
            slice_decomposition(P, (2,))

    def test_group_object_rejected(self):
        G = PermutationGroup([], degree=2)
        with pytest.raises(PolyhedronError, match="block"):
            slice_decomposition(unit_box(2), G)

    def test_empty_polytope_has_no_fibers(self):
        P = HPolyhedron.from_rows(
            [(-1, 0), (0, -1), (1, 1)], [0, 0, -1])
        assert slice_decomposition(P, (2,)).fiber_orbits == ()

    def test_unbounded_sums_rejected(self):
        P = HPolyhedron.from_rows([(1, 1)], [1])
        with pytest.raises(PolyhedronError, match="bounded"):
            slice_decomposition(P, (2,))


def lp_slice_decomposition(P, blocks):
    """The LP route to the slice decomposition, kept as an oracle: block-sum
    ranges from 2k LPs on the full P, one feasibility LP per candidate fiber
    and the invariant slice with one row per row of P.  Returns (slice,
    basis, fiber orbits)."""
    n, k = P.n, len(blocks)
    offs = [0]
    for nb in blocks:
        offs.append(offs[-1] + nb)

    def indicator(lo, hi):
        return tuple(F(int(lo <= t < hi)) for t in range(n))

    cols = [indicator(offs[j], offs[j + 1]) for j in range(k)]
    inv_slice = HPolyhedron(matrix([[dot(a, col) for col in cols] for a in P.A]),
                            P.b, P.equality_rows)
    live = [j for j in range(k) if blocks[j] >= 2]
    basis_rows = []
    for j in range(k):
        if blocks[j] == 1:
            basis_rows.append(indicator(offs[j], offs[j] + 1))
        else:
            for t in range(offs[j], offs[j + 1] - 1):
                e = [F(0)] * n
                e[t], e[t + 1] = F(1), F(-1)
                basis_rows.append(tuple(e))
    G = block_group(blocks)
    ranges = []
    for j in live:
        ind = indicator(offs[j], offs[j + 1])
        hi = solve_lp(P, ind)
        if hi.status == "infeasible":
            ranges = None
            break
        lo = solve_lp(P, ind, maximize=False)
        if hi.status != "optimal" or lo.status != "optimal":
            raise PolyhedronError("slice decomposition requires bounded block sums")
        ranges.append(range(ceil(lo.value), floor(hi.value) + 1))
    fiber_rows = matrix([[dot(a, bv) for bv in basis_rows] for a in P.A])
    orbits = []
    for sums in product(*ranges) if ranges is not None else ():
        full = [0] * k
        for j, s in zip(live, sums):
            full[j] = s
        base = canonical_core_point(blocks, full).z
        fiber = HPolyhedron(fiber_rows, tuple(bb - dot(a, base) for a, bb in zip(P.A, P.b)),
                            P.equality_rows)
        if solve_lp(fiber, zero_vector(fiber.n)).is_optimal:
            # the anchor is the barycenter of the base point's orbit
            orbits.append((tuple(sums), orbit_barycenter(G, base), base, fiber))
    return inv_slice, matrix(basis_rows), orbits


def slice_rows(S):
    eq = set(S.equality_rows)
    return [(a, bb, i in eq) for i, (a, bb) in enumerate(zip(S.A, S.b), start=1)]


def oracle_systems(count):
    """Seeded block-invariant systems: integral and rational boxes with
    orbit rows, invariant equality rows, empty systems, and block sums left
    unbounded on a live block or on a singleton."""
    rng = random.Random(2013)
    shapes = [(2,), (3,), (1, 2), (2, 1), (2, 2), (1, 1), (1, 3), (2, 1, 1), (1, 1, 2)]
    for t in range(count):
        blocks = shapes[t % len(shapes)]
        kind = ("box", "lattice", "off-lattice", "window", "empty", "unbounded")[t % 6]
        if kind == "box":
            P = random_invariant_system(rng, blocks, extra_rows=rng.randint(1, 3))
        elif kind == "unbounded":
            # orbit rows, both bounds on a random set of blocks and one
            # bound, above or below, on the others
            n = sum(blocks)
            rows = {}
            a = tuple(F(rng.randint(-2, 2)) for _ in range(n))
            bb = F(rng.randint(0, 6), rng.choice((1, 2)))
            for g in block_group(blocks).elements():
                rows.setdefault(apply_perm(g, a), bb)
            A, b = sorted(rows), [rows[r] for r in sorted(rows)]
            sides = [rng.choice([(1, -1), (1,), (-1,)]) for _ in blocks]
            off = 0
            for j, nb in enumerate(blocks):
                for i in range(off, off + nb):
                    for sgn in sides[j]:
                        A.append(tuple(F(sgn * (i == q)) for q in range(n)))
                        b.append(F(2))
                off += nb
            P = HPolyhedron.from_rows(A, b)
        else:
            P = rational_invariant_system(
                rng, blocks, "lattice" if kind == "empty" else kind)
            if kind == "empty":
                n = sum(blocks)
                P = HPolyhedron(P.A + ((F(1),) * n, (F(-1),) * n),
                                P.b + (F(-1, 2), F(-1, 2)), P.equality_rows)
        yield P, blocks


class TestSliceDecompositionOracle:
    def test_matches_lp_reference(self):
        outcomes = set()
        for P, blocks in oracle_systems(324):
            try:
                want = lp_slice_decomposition(P, blocks)
            except PolyhedronError as exc:
                with pytest.raises(PolyhedronError) as got:
                    slice_decomposition(P, blocks)
                assert str(got.value) == str(exc)
                outcomes.add("unbounded")
                continue
            dec = slice_decomposition(P, blocks)
            inv_slice, basis, orbits = want
            assert dec.basis == basis
            assert [(fo.sums, fo.anchor, fo.base_point, fo.fiber) for fo in dec.fiber_orbits] \
                == orbits
            # the same rows up to duplicates, and each kept once
            got_rows = slice_rows(dec.invariant_slice)
            assert len(set(got_rows)) == len(got_rows)
            assert set(got_rows) == set(slice_rows(inv_slice))
            outcomes.add("fibers" if orbits else "none")
            if orbits and any(nb == 1 for nb in blocks):
                outcomes.add("singleton")
        assert outcomes == {"unbounded", "fibers", "none", "singleton"}


class TestCountWithSymmetry:
    def test_cube(self):
        assert count_with_symmetry(cube_h(3), (3,)) == 27

    def test_trivial_blocks(self):
        assert count_with_symmetry(cube_h(3), (1, 1, 1)) == 27

    def test_random_agrees_with_direct_count(self):
        rng = random.Random(771)
        cases = [(2,), (3,), (2, 2), (1, 2), (2, 1, 2)]
        for blocks in cases + cases:
            P = random_invariant_system(rng, blocks)
            assert count_with_symmetry(P, blocks) == count_lattice_points(P)

    def test_oracle_on_singletons_mixed_blocks_equalities_and_empty(self):
        # the weighted walk on the sorted domain against the plain walk and
        # a box scan; boxes of side 5 put repeated values in every block
        rng = random.Random(4108)
        shapes = [(1,), (1, 1, 1), (2, 1, 2), (3,), (2, 2), (1, 3), (4,)]
        seen = set()
        for t in range(28):
            blocks = shapes[t % len(shapes)]
            kind = ("box", "lattice", "off-lattice", "empty")[t % 4]
            if kind == "box":
                P = random_invariant_system(rng, blocks, extra_rows=rng.randint(1, 3))
            else:
                P = rational_invariant_system(
                    rng, blocks, "lattice" if kind == "empty" else kind)
            if kind == "empty":
                n = sum(blocks)
                P = HPolyhedron(P.A + ((F(1),) * n, (F(-1),) * n),
                                P.b + (F(-1, 2), F(-1, 2)), P.equality_rows)
            want = box_count(P)
            assert count_with_symmetry(P, blocks) == count_lattice_points(P) == want
            seen.add(kind if want else "zero")
        assert seen >= {"box", "lattice", "zero"}

    def test_equality_row_on_a_full_block(self):
        # x1 + x2 + x3 = 3 on [0, 3]^3: the compositions of 3 into 3 parts
        A = [(1, 1, 1)] + [tuple(s * (i == j) for j in range(3))
                           for i in range(3) for s in (1, -1)]
        P = HPolyhedron.from_rows(A, [3] + [3, 0] * 3, equality_rows=(1,))
        assert count_with_symmetry(P, (3,)) == count_lattice_points(P) == 10

    def test_lower_dimensional_inside_the_diagonal(self):
        # x1 = x2 as two inequalities, inside [0, 3]^3
        A = [(1, -1, 0), (-1, 1, 0)] + [tuple(s * (i == j) for j in range(3))
                                        for i in range(3) for s in (1, -1)]
        P = HPolyhedron.from_rows(A, [0, 0] + [3, 0] * 3)
        for blocks in [(2, 1), (1, 1, 1)]:
            assert count_with_symmetry(P, blocks) == box_count(P) == 16

    def test_unbounded_refused_as_by_the_plain_walk(self):
        P = HPolyhedron.from_rows([(-1, 0), (0, -1)], [0, 0])
        with pytest.raises(PolyhedronError, match="unbounded polyhedron"):
            count_with_symmetry(P, (2,))
        # 1/5 <= x1 <= 4/5 holds no integer, so the walk never reaches the
        # unbounded block (x2, x3)
        Q = HPolyhedron.from_rows([(-1, 0, 0), (1, 0, 0)], [F(-1, 5), F(4, 5)])
        assert count_with_symmetry(Q, (1, 2)) == count_lattice_points(Q) == 0

    def test_sorted_point_weights_are_orbit_sizes(self):
        import polyorbit.latcount as lc
        total = 0
        for s in product(range(3), repeat=3):
            if list(s) != sorted(s, reverse=True):
                continue
            # the single sorted point s, as a box of width 0
            A = [tuple(sg * (i == j) for j in range(3)) for i in range(3) for sg in (1, -1)]
            b = [c for x in s for c in (x, -x)]
            w = lc._orbit_count(HPolyhedron.from_rows(A, b), (3,))
            assert w == len(set(permutations(s)))
            total += w
        assert total == 27


def dd_cone_calls(monkeypatch, fn, *args):
    """Number of dd_cone calls made by fn(*args), across all modules."""
    import polyorbit.polycore as pc
    real, calls = pc.dd_cone, []

    def counting(*a, **kw):
        calls.append(None)
        return real(*a, **kw)

    for name, module in list(sys.modules.items()):
        if name.startswith("polyorbit") and getattr(module, "dd_cone", None) is real:
            monkeypatch.setattr(module, "dd_cone", counting)
    fn(*args)
    monkeypatch.undo()
    return len(calls)


class TestOneChainPerCount:
    @pytest.mark.parametrize("cmd, answers", [("count", 12), ("ehrhart", 8), ("ilp", 7)])
    def test_one_dd_on_every_fixture_answered(self, monkeypatch, capsys, tmp_path, cmd,
                                              answers):
        # the DD of the input (its vertices for an H file, its facets for a
        # V file) is the only one: every lower level of the chain is a
        # Fourier-Motzkin step.  ilp runs on every H file with its blocks
        # line dropped; the count walks, which run no DD (santos' takes
        # seconds), are stubbed
        import polyorbit.latcount as lc
        answered = 0
        for path in sorted(FIX.iterdir()):
            if cmd == "ilp":
                if path.suffix == ".ext":
                    continue
                text = "".join(ln for ln in path.read_text().splitlines(keepends=True)
                               if not ln.startswith("blocks"))
                path = tmp_path / path.name
                path.write_text(text)
            codes = []

            def run():
                if cmd == "count":
                    monkeypatch.setattr(lc, "_walk", lambda *args: 0)
                codes.append(main([cmd, str(path)]))

            calls = dd_cone_calls(monkeypatch, run)
            capsys.readouterr()
            if codes[0] in (0, 1):
                assert calls == 1, path.name
                answered += 1
        assert answered == answers

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_scaled_chain_matches_dilates(self, q):
        import polyorbit.latcount as lc
        rng = random.Random(90 + q)
        for d in (1, 2, 3):
            # random points in (1/q)Z^d, and a vertex of denominator q that
            # sticks out along x1, so the period is exactly q
            pts = [tuple(F(rng.randint(-2 * q, 2 * q), q) for _ in range(d))
                   for _ in range(d + 3)]
            pts.append((F(4 * q + 1, q),) + (F(0),) * (d - 1))
            P = convert_dd(VPolyhedron.from_points(pts))
            V = convert_dd(P)
            period = 1
            for v in V.vertices:
                for c in v:
                    period = period * c.denominator // gcd(period, c.denominator)
            assert period == q
            levels = lc._chain(lc._top(V)[1], range(d))
            for lam in range(1, d + 3):
                assert lc._count_scaled(levels, lam, 0) == count_lattice_points(P.dilate(lam))

    def test_ehrhart_dd_calls_do_not_grow_with_the_period(self, monkeypatch):
        for P in (cube_h(2), simplex_h(3)):
            calls = [dd_cone_calls(monkeypatch, ehrhart, P.dilate(F(1, s)))
                     for s in (1, 2, 3)]
            assert calls[0] == calls[1] == calls[2]
            assert calls[0] <= P.n + 2

    def test_symmetric_dd_calls_do_not_grow_with_the_fibers(self, monkeypatch):
        calls = []
        for side in (2, 6):
            A = [tuple(s * (i == j) for j in range(3)) for i in range(3) for s in (1, -1)]
            P = HPolyhedron.from_rows(A, [side, 0] * 3)
            calls.append(dd_cone_calls(monkeypatch, count_with_symmetry, P, (3,)))
            assert count_with_symmetry(P, (3,)) == (side + 1) ** 3
        assert calls[0] == calls[1] <= 3 + 2

    @pytest.mark.parametrize("args", [("count",), ("ehrhart",), ("ilp",)])
    def test_h_input_tops_its_chain_with_its_facets(self, monkeypatch, capsys, args):
        # one DD for the vertices, whose masks give the facets that top the
        # chain and the projections onto 1 and 2 coordinates
        path = str(FIX / "cube3.ine")
        assert dd_cone_calls(monkeypatch, main, [*args, path]) == 1
        capsys.readouterr()

    def test_v_input_ehrhart_converts_once(self, monkeypatch, capsys):
        # one DD of the points to facet rows, which top the chain and whose
        # masks give the projections; no DD back to vertices
        path = str(FIX / "cube3.ext")
        assert dd_cone_calls(monkeypatch, main, ["ehrhart", path]) == 1
        assert capsys.readouterr().out == "period 1\ndegree 3\nclass 0: 1 6 12 8\n"


def oracle_polytope(rng, n):
    """A seeded polytope in R^n and its kind, for the walk oracle.

    Rational points; an integer affine image of points of Z^k, k < n, so a
    lower-dimensional hull; the rows of rational points with redundant rows
    added (loosened, scaled or summed) or with an equality row; or the
    points cut by a slab 1/2 wide, whose fibers are mostly empty.  The first
    two come as V input, the rest as H input.
    """
    kind = rng.choice(["points", "flat", "redundant", "equality", "slab"])
    q = rng.choice([1, 2, 3])
    if kind == "flat":
        k = rng.randint(0, n - 1)
        M = [[rng.randint(-1, 1) for _ in range(k)] for _ in range(n)]
        t = [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
        pts = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(rng.randint(k + 1, k + 4))]
        return kind, VPolyhedron.from_points(
            [tuple(t[i] + sum(m * x for m, x in zip(M[i], p)) for i in range(n)) for p in pts])
    V = VPolyhedron.from_points([tuple(F(rng.randint(-4 * q, 4 * q), q) for _ in range(n))
                                 for _ in range(rng.randint(n + 1, n + 4))])
    if kind == "points":
        return kind, V
    H = convert_dd(V)
    A, b, eq = list(H.A), list(H.b), list(H.equality_rows)
    if kind == "redundant":
        for _ in range(rng.randint(1, 4)):
            i, j = rng.randrange(len(A)), rng.randrange(len(A))
            a, c = rng.choice([(A[i], b[i] + F(1, 2)), (tuple(2 * x for x in A[i]), 2 * b[i]),
                               (vec_add(A[i], A[j]), b[i] + b[j])])
            A.append(a)
            b.append(c)
    else:
        a = tuple(F(rng.randint(-2, 2)) for _ in range(n))
        c = F(rng.randint(-4 * q, 4 * q), rng.choice([1, 2]))
        A.append(a)
        b.append(c)
        if kind == "equality":
            eq.append(len(A))
        else:
            A.append(tuple(-x for x in a))
            b.append(F(1, 2) - c)
    rows = list(zip(A, b, (i + 1 in eq for i in range(len(A)))))
    rng.shuffle(rows)
    return kind, HPolyhedron.from_rows([r[0] for r in rows], [r[1] for r in rows],
                                       [i + 1 for i, r in enumerate(rows) if r[2]])


class TestWalkOracle:
    """The counting walk against the plain per-value walk of reference_count."""

    @pytest.mark.parametrize("seed", range(100))
    def test_count_matches_reference(self, seed):
        rng = random.Random(f"walk-oracle/{seed}")
        kind, P = oracle_polytope(rng, 1 + seed % 5)
        assert count_lattice_points(P) == reference_count(P), kind
        if isinstance(P, VPolyhedron):
            assert count_lattice_points(convert_dd(P)) == reference_count(P), kind

    @pytest.mark.parametrize("seed", range(20))
    def test_count_does_not_depend_on_the_given_order(self, seed):
        rng = random.Random(f"walk-order/{seed}")
        n = 2 + seed % 3
        kind, P = oracle_polytope(rng, n)
        order = list(range(n))
        rng.shuffle(order)
        if isinstance(P, VPolyhedron):
            Q = VPolyhedron.from_points([tuple(v[t] for t in order) for v in P.vertices])
        else:
            Q = HPolyhedron.from_rows([tuple(a[t] for t in order) for a in P.A], P.b,
                                      P.equality_rows)
        assert count_lattice_points(Q) == count_lattice_points(P) == reference_count(Q), kind

    @pytest.mark.parametrize("seed", range(15))
    def test_ehrhart_matches_reference(self, seed):
        # rational simplices and more in dims 1-4, integral ones in dim 5,
        # every other one with a loosened copy of a row
        rng = random.Random(f"ehrhart-oracle/{seed}")
        n = 1 + seed % 5
        q, w = (1, 1) if n == 5 else (rng.choice([1, 2]), 2)
        P = convert_dd(VPolyhedron.from_points(
            [tuple(F(rng.randint(-w * q, w * q), q) for _ in range(n)) for _ in range(n + 3)]))
        if seed % 2:
            P = HPolyhedron(P.A + P.A[:1], P.b + (P.b[0] + 1,), P.equality_rows)
        try:
            poly = ehrhart(P)
        except PolyhedronError as exc:
            assert "full-dimensional" in str(exc)
            return
        for lam in range(1, 2 * poly.period + 2):
            assert poly.evaluate(lam) == reference_count(P.dilate(lam))

    def test_floor_sum_matches_brute_force(self):
        import polyorbit.latcount as lc
        for n in range(9):
            for m in range(1, 6):
                for a in range(-11, 12):
                    for b in range(-11, 12):
                        assert lc._floor_sum(n, m, a, b) == \
                            sum((a * i + b) // m for i in range(n)), (n, m, a, b)
        for n, m, a, b in [(2000, 97, -10**6, 10**9), (1500, 10**6 + 3, 987654, -10**7)]:
            assert lc._floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))

    @pytest.mark.parametrize("rows, lo, hi", [
        ([(1, 1, 0), (-1, 1, 0)], -3, 3),             # both least at v = 0
        ([(0, 1, 5), (1, 1, 5), (2, 1, 5)], 0, 6),    # all tie at lo
        ([(2, 1, 5), (1, 1, 5), (0, 1, 5)], -6, 0),   # all tie at hi
        ([(1, 1, 3), (2, 2, 6), (2, 2, 7)], -4, 4),   # one line, three rows
        ([(1, 2, 1), (1, 2, 1), (-3, 4, 2)], -5, 5),  # repeated rows
        ([(0, 3, 4)], 2, 1),                          # an empty range
    ])
    def test_envelope_sum_with_ties(self, rows, lo, hi):
        import polyorbit.latcount as lc
        expect = sum(min((r - a * v) // c for a, c, r in rows) for v in range(lo, hi + 1))
        assert lc._envelope_sum(rows, lo, hi) == expect

    def test_envelope_tie_goes_to_the_smaller_slope(self, monkeypatch):
        # three lines through (0, 5): the steepest is least on all of [0, 6],
        # so the sum is one piece and one floor sum
        import polyorbit.latcount as lc
        calls = []
        real = lc._floor_sum
        monkeypatch.setattr(lc, "_floor_sum", lambda *a: calls.append(a) or real(*a))
        assert lc._envelope_sum([(0, 1, 5), (1, 1, 5), (2, 1, 5)], 0, 6) == \
            sum(5 - 2 * v for v in range(7))
        assert calls == [(7, 1, -2, 5)]

    def test_envelope_sum_matches_brute_force(self):
        import polyorbit.latcount as lc
        rng = random.Random(2026)
        for _ in range(3000):
            rows = [(rng.randint(-5, 5), rng.randint(1, 5), rng.randint(-20, 20))
                    for _ in range(rng.randint(1, 5))]
            lo = rng.randint(-8, 8)
            hi = lo + rng.randint(-1, 10)
            expect = sum(min((r - a * v) // c for a, c, r in rows) for v in range(lo, hi + 1))
            assert lc._envelope_sum(rows, lo, hi) == expect, (rows, lo, hi)

    def test_empty_range_counts_zero_before_any_row(self):
        import polyorbit.latcount as lc
        assert lc._plane_count([], [], 1, 0) == 0
        with pytest.raises(PolyhedronError, match="unbounded"):
            lc._plane_count([((1,), 1, 0)], [], 0, 0)

    @pytest.mark.parametrize("linearity", [False, True])
    def test_a_flat_sums_its_last_two_levels_in_closed_form(self, monkeypatch, linearity):
        # the plane x3 = x1 + x2 over [0, N]^2, as two opposite rows or as one
        # linearity row: either way the top level holds the equality as a
        # row pair, and each x1 sums its x2 and x3 in one _plane_count
        import polyorbit.latcount as lc
        N = 300
        rows = [(-1, 0, 0, 0), (1, 0, 0, N), (0, -1, 0, 0), (0, 1, 0, N), (-1, -1, 1, 0)]
        P = HPolyhedron.of_rows(rows, [5]) if linearity else \
            HPolyhedron.of_rows(rows + [(1, 1, -1, 0)])
        calls, real = [], lc._plane_count
        monkeypatch.setattr(lc, "_plane_count", lambda *a: calls.append(a) or real(*a))
        assert count_lattice_points(P) == (N + 1) ** 2
        assert len(calls) == N + 1


def canonical_level(level):
    """A chain level in one form per polyhedron: its equalities, the rows
    whose opposite row is in the level too, as the primitive rows of their
    reduced row echelon form, positive on the pivot, and its other rows as
    a set, each reduced to 0 on those pivot columns and made primitive (a
    facet row is unique only modulo the equalities)."""
    rows = set(level)
    eqs = [r for r in level if (tuple(-x for x in r[0]), -r[1], -r[2]) in rows]
    les = [r for r in level if r not in eqs]
    basis, pivots = [], []
    if eqs:
        _, pivots, m, _ = gauss_jordan(head + (c, beta) for head, c, beta in eqs)
        basis = [primitive(r if r[p] > 0 else [-x for x in r]) for r, p in zip(m, pivots)]
    rows = set()
    for head, c, beta in les:
        g = head + (c, beta)
        for b, p in zip(basis, pivots):
            g = tuple(b[p] * x - g[p] * y for x, y in zip(g, b))
        rows.add(primitive(g))
    return basis, rows


def walk_outcome(levels):
    """The weighted walk of a chain with singleton blocks, each equality of
    a level entering as its two opposite rows: its count, or the message it
    raises."""
    import polyorbit.latcount as lc
    try:
        return lc._walk(levels, (0,) * len(levels), [], 1, 1) if levels else 1
    except PolyhedronError as exc:
        return str(exc)


def ridge_cube(n):
    """The unit n-cube with x1 + x2 <= 2, a row tight on a ridge only."""
    U = unit_box(n)
    return HPolyhedron.from_rows(list(U.A) + [(1, 1) + (0,) * (n - 2)], list(U.b) + [2])


def chain_case(rng, kind, n):
    """A seeded polyhedron in R^n of the given kind, for the chain oracle."""
    if kind == "cloud":
        return random_point_cloud(rng)
    if kind == "redundant":
        return oracle_polytope(random.Random(rng.random()), n)[1]
    if kind == "ridge":
        # the unit n-cube with x1 + x2 <= 2, a row tight on a ridge only
        return ridge_cube(n)
    if kind == "rays":
        pts = [tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
               for _ in range(rng.randint(1, 3))]
        rays = [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.5:
            rays.append(tuple(-x for x in rays[0]))      # a line
        V = VPolyhedron.from_points(pts, rays)
        return V if rng.random() < 0.5 else convert_dd(V)
    P = random_polytope(rng, n, denom=rng.choice([1, 2, 3]))
    if kind == "rational":
        return P
    A, b, eq = list(P.A), list(P.b), []
    x = convert_dd(P).vertices[0]
    if kind == "implicit" and n >= 2:
        # x1 <= x2 <= ... <= xn <= x1, in rows none of which is an equality
        for i in range(n):
            A.append(tuple(F((t == i) - (t == (i + 1) % n)) for t in range(n)))
            b.append(F(0))
        return HPolyhedron.from_rows(A, b)
    a = tuple(F(rng.randint(-2, 2)) for _ in range(n))
    c = dot(a, x)
    if kind == "explicit":
        A.append(a)
        b.append(c)
        eq.append(len(A))
    else:                                               # a flat as two rows
        A += [a, tuple(-2 * y for y in a)]
        b += [c, -2 * c]
    return HPolyhedron.from_rows(A, b, eq)


def assert_chain_matches_reference(P, order):
    """The Fourier-Motzkin chain of P against the one double description per
    level of shapes.reference_chain: level by level, the same equalities
    and the same inequality rows, no row twice, and the same walk."""
    import polyorbit.latcount as lc
    V, top = lc._top(P)
    got, want = lc._chain(top, order), reference_chain(V, order)
    assert len(got) == len(want) == P.n
    for k, (g, w) in enumerate(zip(got, want), start=1):
        assert len(g) == len(set(g)), k
        assert canonical_level(g) == canonical_level(w), k
    assert walk_outcome(got) == walk_outcome(want)
    return V


CHAIN_KINDS = ["rational", "explicit", "flat", "implicit", "rays", "redundant", "ridge",
               "cloud"]


class TestFourierMotzkinChain:
    """The chain of Fourier-Motzkin steps against one DD per level."""

    @pytest.mark.parametrize("kind", CHAIN_KINDS)
    @pytest.mark.parametrize("seed", range(12))
    def test_levels_match_the_per_level_dd(self, kind, seed):
        rng = random.Random(f"fm-chain/{kind}/{seed}")
        n = 1 + seed % 4 if kind != "ridge" else 2 + seed % 3
        P = chain_case(rng, kind, n)
        try:
            V = convert_dd(P) if isinstance(P, HPolyhedron) else P
        except EmptyPolyhedronError:
            assert count_lattice_points(P) == 0
            return
        order = list(range(P.n))
        rng.shuffle(order)
        import polyorbit.latcount as lc
        for o in (lc._widest_last(V)[0], range(P.n), order):
            assert_chain_matches_reference(P, o)
        try:
            got = count_lattice_points(P)
        except PolyhedronError as exc:
            with pytest.raises(PolyhedronError, match=str(exc)):
                reference_count(P)
            assert "unbounded" in str(exc)
            return
        assert got == reference_count(P)
        if not V.rays:
            assert got == box_count(convert_dd(P) if isinstance(P, VPolyhedron) else P)

    @pytest.mark.parametrize("rows, b, count", [
        ([(1,), (-1,)], [F(7, 2), 2], 6),                   # n = 1
        ([(2,), (-2,)], [3, -3], 0),                        # the point 3/2, as two rows
        ([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)], [2, 0, 2, 0, 2], 6),
    ])
    def test_small_dimensions(self, rows, b, count):
        P = HPolyhedron.from_rows(rows, b)
        for o in permutations(range(P.n)):
            assert_chain_matches_reference(P, o)
        assert count_lattice_points(P) == count == box_count(P)

    def test_top_drops_a_row_tight_on_a_ridge(self):
        # x1 + x2 <= 2 is tight on the edge x1 = x2 = 1 of the unit cube only
        import polyorbit.latcount as lc
        P = ridge_cube(3)
        eqs, les, masks, points = lc._top(P)[1]
        assert not eqs and sorted(les) == sorted(unit_box(3).int_rows)
        assert [len(level) for level in lc._chain(lc._top(P)[1], range(3))] == [2, 4, 6]
        assert count_lattice_points(P) == 8 == box_count(P)

    def test_a_row_tight_on_a_ridge_would_hide_a_facet(self):
        # the triangle x, y >= 0, x + y <= 2 with 2x + y <= 4, which touches
        # it at the vertex (2, 0) alone: with that row among the facets the
        # one ridge that projects to x <= 2 looks covered, and level 1 loses
        # its upper bound
        import polyorbit.latcount as lc
        P = HPolyhedron.from_rows([(-1, 0), (0, -1), (1, 1), (2, 1)], [0, 0, 2, 4])
        eqs, les, masks, points = lc._top(P)[1]
        assert sorted(les) == [(-1, 0, 0), (0, -1, 0), (1, 1, 2)]
        assert lc._chain(lc._top(P)[1], range(2))[0] == [((), -1, 0), ((), 1, 2)]
        rows = list(P.int_rows)
        tight = [sum(1 << j for j, g in enumerate(P.dd[1]) if g >> i & 1) for i in range(4)]
        assert lc._chain(([], rows, tight, points), range(2))[0] == [((), -1, 0)]
        assert count_lattice_points(P) == 6

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_lattice_counting_inputs(self, seed, tmp_path, monkeypatch, capsys):
        # every chain a count, count --symmetric or ehrhart job of one
        # benchmark round builds, one per job
        import polyorbit.latcount as lc
        monkeypatch.syspath_prepend(str(ROOT))
        from polybench import workloads
        tops, orders, top, chain = [], [], lc._top, lc._chain
        monkeypatch.setattr(lc, "_top", lambda P: tops.append(P) or top(P))
        monkeypatch.setattr(lc, "_chain", lambda t, order: orders.append(order) or chain(t, order))
        jobs = [job for job in workloads.build("lattice-counting", seed, 10, str(tmp_path))
                if job.argv[0] in ("count", "ehrhart")]
        assert jobs
        for job in jobs:
            before = len(tops)
            assert main(job.argv) == 0, job.name
            assert len(tops) == len(orders) == before + 1, job.name
        capsys.readouterr()
        monkeypatch.undo()
        for P, order in zip(tops, orders):
            assert_chain_matches_reference(P, order)
