"""End-to-end acceptance suite.

Eight independent gates, each printing one pass/fail line (run with -s to see
them).  Together they pin down the toolkit's headline behaviors: exact
symmetry detection, conversion up to symmetry, the prismatoid adjacency
pipeline, invariant LP reduction, core-point feasibility, Ehrhart counting,
symmetric counting, and worker-count determinism.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import product
from pathlib import Path

from shapes import (birkhoff, cross_h, cross_v, cube_h, cube_v, ledger_facet_rows,
                    reference_volume, santos_prismatoid)
from test_symilp import enum_integral

from polyorbit import (
    HPolyhedron,
    LinearProgram,
    VPolyhedron,
    adjacency_decomposition,
    adjacency_graph,
    affine_symmetry_group,
    block_group,
    canonical_core_point,
    convert_dd,
    count_lattice_points,
    count_with_symmetry,
    ehrhart,
    incidence_decomposition,
    is_core_point,
    restricted_symmetries_H,
    set_stabilizer,
    shortest_path,
    solve_lp,
    solve_lp_reduced,
    symmetric_ilp_feasible,
    volume,
    write_dot,
)
from polyorbit.cli import main
from polyorbit.polycore import (
    AffineHull,
    affine_hull,
    det,
    integer_kernel_basis,
    matrix,
    nullspace,
    primitive,
    vector,
)

FIX = Path(__file__).parent / "fixtures"


@contextmanager
def gate(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"acceptance {num} ({label}): FAIL")
        raise
    print(f"acceptance {num} ({label}): PASS")


def normalized_rows(H: HPolyhedron) -> set:
    return {primitive(tuple(H.A[i]) + (H.b[i],)) for i in range(H.m)}


def test_1_symmetry_detection():
    with gate(1, "hyperoctahedral symmetry detection"):
        start = time.monotonic()
        for n in (2, 3, 4, 5):
            G = affine_symmetry_group(cube_v(n))
            assert G.order() == 2 ** n * math.factorial(n)
        # 20 random invertible rational affine images keep the order
        rng = random.Random(20260816)
        for trial in range(20):
            n = (2, 3, 4, 5)[trial % 4]
            while True:
                M = matrix([[F(rng.randint(-3, 3), rng.randint(1, 2))
                             for _ in range(n)] for _ in range(n)])
                if det(M) != 0:
                    break
            t = tuple(F(rng.randint(-2, 2)) for _ in range(n))
            img = VPolyhedron.from_points(
                [tuple(sum(M[i][j] * p[j] for j in range(n)) + t[i]
                       for i in range(n)) for p in cube_v(n).vertices])
            assert affine_symmetry_group(img).order() \
                == 2 ** n * math.factorial(n)
        assert time.monotonic() - start < 30


def test_2_conversion_single_orbits():
    with gate(2, "cube/cross conversion up to symmetry"):
        for n in (2, 3, 4, 5):
            for make_h, make_v in ((cube_h, cube_v), (cross_h, cross_v)):
                P, V = make_h(n), make_v(n)
                GH = restricted_symmetries_H(P)
                GV = affine_symmetry_group(V)
                plain_rows = normalized_rows(convert_dd(V))
                plain_verts = set(convert_dd(P).vertices)
                for method in (adjacency_decomposition, incidence_decomposition):
                    led = method(P, GH)
                    assert led.orbit_count == 1          # one facet orbit
                    assert len(led.vertex_group.point_orbits()) == 1  # one vertex orbit
                    assert set(led.vertices) == plain_verts
                    led = method(V, GV)
                    assert led.orbit_count == 1
                    assert len(led.vertex_group.point_orbits()) == 1
                    assert ledger_facet_rows(led) == plain_rows


def test_3_santos_prismatoid(tmp_path):
    with gate(3, "prismatoid adjacency graph distance"):
        start = time.monotonic()
        V = santos_prismatoid()
        G = affine_symmetry_group(V)
        # base facets merge under the full group; the subgroup fixing one
        # base keeps them apart, which is the graph the distance lives in
        top = frozenset(i + 1 for i, p in enumerate(V.vertices) if p[4] == 1)
        stab = set_stabilizer(G, top)
        led = adjacency_decomposition(V, stab)
        g = adjacency_graph(led)
        dot = tmp_path / "prismatoid.dot"
        dot.write_text(write_dot(g))
        text = dot.read_text()
        assert text.startswith("graph {") and text.endswith("}\n")
        assert sum("label=" in ln for ln in text.splitlines()) == g.node_count
        counts = [len(k) for k in g.keys]
        bases = [i + 1 for i, c in enumerate(counts) if c == max(counts)]
        assert len(bases) == 2 and max(counts) == 24
        assert shortest_path(g, bases[0], bases[1]) == 6
        assert time.monotonic() - start < 300


def _random_blocks(rng, total):
    parts = []
    left = total
    while left:
        p = rng.randint(1, min(4, left))
        parts.append(p)
        left -= p
    return tuple(parts)


def _invariant_system(rng, blocks, seeds=3, box=3, blo=0):
    """Invariant by construction: each seed row takes at most two distinct
    values per block, so its orbit is genuinely moved yet stays small."""
    from itertools import combinations
    n = sum(blocks)
    rows = set()
    for _ in range(seeds):
        per_block = []
        for nb in blocks:
            u, v = (F(rng.randint(-3, 3)) for _ in range(2))
            j = rng.randint(0, nb)
            opts = set()
            for pos in combinations(range(nb), j):
                row = [u] * nb
                for p in pos:
                    row[p] = v
                opts.add(tuple(row))
            per_block.append(sorted(opts))
        bb = F(rng.randint(blo, 8))
        for combo in product(*per_block):
            rows.add((sum(combo, ()), bb))
    A = sorted(rows)
    b = [bb for _, bb in A]
    A = [a for a, _ in A]
    for i in range(n):
        for sgn in (1, -1):
            e = [F(0)] * n
            e[i] = F(sgn)
            A.append(tuple(e))
            b.append(F(box))
    return HPolyhedron.from_rows(A, b)


def _invariant_objective(rng, blocks):
    out = []
    for nb in blocks:
        out.extend([F(rng.randint(-4, 4))] * nb)
    return tuple(out)


def test_4_invariant_lp_reduction():
    with gate(4, "invariant LP reduction"):
        rng = random.Random(41)
        for _ in range(50):
            blocks = _random_blocks(rng, rng.randint(4, 10))
            P = _invariant_system(rng, blocks)
            c = _invariant_objective(rng, blocks)
            full = solve_lp(P, c)
            red = solve_lp_reduced(LinearProgram(P, c), block_group(blocks))
            assert red.status == full.status
            if full.status == "optimal":
                assert red.value == full.value  # identical exact optima


def _compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def test_5_core_points_and_feasibility():
    with gate(5, "core points and symmetric feasibility"):
        # exhaustive single block: all n <= 6, |s| <= 20
        for nb in range(1, 7):
            for s in range(-20, 21):
                assert is_core_point((nb,), canonical_core_point((nb,), (s,)).z)
        # all block shapes with total <= 6, all residue classes of the sums;
        # shifting s_j by a multiple of n_j translates the canonical point by
        # a constant on that block (checked below), and translation preserves
        # core-ness, so the residue sweep covers every |s_j| <= 20
        rng = random.Random(5)
        for total in range(2, 7):
            for blocks in _compositions(total):
                for res in product(*(range(nb) for nb in blocks)):
                    assert is_core_point(
                        blocks, canonical_core_point(blocks, res).z)
                for _ in range(20):
                    s = tuple(rng.randint(-20, 20) for _ in blocks)
                    res = tuple(sj % nb for sj, nb in zip(s, blocks))
                    shift = [(sj - rj) // nb
                             for sj, rj, nb in zip(s, res, blocks)]
                    base = canonical_core_point(blocks, res).z
                    lifted = []
                    off = 0
                    for j, nb in enumerate(blocks):
                        lifted.extend(x + shift[j] for x in base[off:off + nb])
                        off += nb
                    assert canonical_core_point(blocks, s).z == tuple(lifted)
        # feasibility agrees with brute-force enumeration, dim <= 8
        rng = random.Random(55)
        hits = 0
        for _ in range(50):
            n = rng.randint(3, 8)
            blocks = _random_blocks(rng, n)
            P = _invariant_system(rng, blocks, box=2 if n <= 6 else 1, blo=-5)
            got = symmetric_ilp_feasible(P, blocks)
            oracle = enum_integral(P)
            assert (got is not None) == bool(oracle)
            if got is not None:
                hits += 1
                assert P.contains(got)
                assert all(x.denominator == 1 for x in got)
        assert 0 < hits < 50  # both outcomes genuinely exercised


def _random_rational_polytope(rng, n):
    """Bounded random H-polytope: a rational box plus a few cuts.  Dimension
    4 uses half-integer data so the quasi-polynomial period stays small
    enough for the full dilate sweep to be checked exactly."""
    denom = 2 if n == 4 else 3
    A, b = [], []
    for i in range(n):
        for sgn in (1, -1):
            row = [F(0)] * n
            row[i] = F(sgn)
            A.append(tuple(row))
            b.append(F(rng.randint(1, 2 if n == 4 else 2 * denom), denom))
    for _ in range(rng.randint(0, 1) if n == 4 else rng.randint(1, 2)):
        row = tuple(F(rng.randint(-2, 2)) for _ in range(n))
        A.append(row)
        b.append(F(rng.randint(1, 3), denom))
    return HPolyhedron.from_rows(A, b)


def test_6_ehrhart():
    with gate(6, "Ehrhart quasi-polynomials"):
        # the +/-1 cubes count (2L+1)^n exactly
        assert ehrhart(cube_h(2)).components == ((F(1), F(4), F(4)),)
        assert ehrhart(cube_h(3)).components == ((F(1), F(6), F(12), F(8)),)
        rng = random.Random(6006)
        schedule = (1, 2, 2, 3, 3, 3, 4, 4, 2, 1)
        quasi = 0
        for n in schedule:
            for _ in range(300):  # redraw lower-dimensional or long-period hits
                P = _random_rational_polytope(rng, n)
                try:
                    q = ehrhart(P)
                except Exception:
                    continue
                if q.period <= (2 if n == 4 else (4 if n == 3 else 6)):
                    break
            else:
                raise AssertionError(f"no tractable draw in dimension {n}")
            k, d = q.period, q.degree
            quasi += k > 1
            for lam in range(1, 2 * k * (d + 1) + 1):
                assert q.evaluate(lam) == count_lattice_points(P.dilate(lam))
            assert q.leading_coefficient == volume(P)
        assert quasi >= 3  # genuine quasi-polynomials were exercised


def _embed_full_dim(P: HPolyhedron) -> HPolyhedron:
    """Rewrite a lower-dimensional polytope in lattice coordinates of its
    affine hull, preserving lattice point counts of all dilates."""
    pts = sorted(convert_dd(P).vertices)
    hull = affine_hull(pts)
    normals = [primitive(v) for v in nullspace(hull.directions, P.n)]
    frame = AffineHull(pts[0], matrix(integer_kernel_basis(normals, P.n)))
    return convert_dd(VPolyhedron.from_points(
        [frame.coordinates(p) for p in pts]))


def test_7_symmetric_counting():
    with gate(7, "symmetric counting and Birkhoff volume"):
        rng = random.Random(77)
        for _ in range(30):
            blocks = _random_blocks(rng, rng.randint(2, 6))
            P = _invariant_system(rng, blocks, box=2)
            assert count_with_symmetry(P, blocks) == count_lattice_points(P)
        # doubly stochastic 3x3 matrices: two independent volume routes
        B = birkhoff(3)
        tri = volume(B)
        assert reference_volume(B) == tri
        q = ehrhart(_embed_full_dim(B))
        assert q.leading_coefficient == tri == F(1, 8)
        for lam, magic in enumerate((1, 6, 21, 55, 120)):
            assert q.evaluate(lam) == magic


def test_8_jobs_determinism(tmp_path, capsys):
    PIPELINES = [
        ("cube3.ext", "automorphisms"),
        ("cube3.ext", "convert", "--adjacencies", "--dot", "DOT"),
        ("cube3.ext", "count"),
        ("cube3.ext", "volume"),
        ("cube3.ine", "automorphisms"),
        ("cube3.ine", "convert"),
        ("cube3.ine", "count"),
        ("cube3.ine", "ehrhart"),
        ("cube3.ine", "volume"),
        ("cube3-blocks.ine", "count", "--symmetric"),
        ("cube3-blocks.ine", "ilp"),
        ("cube3-obj.ine", "ilp"),
        ("quad-asym.ext", "automorphisms"),
        ("quad-asym.ext", "convert"),
        ("quad-asym.ext", "volume"),
        ("segment-half.ine", "count"),
        ("segment-half.ine", "ehrhart"),
        ("segment-half.ine", "volume"),
        ("ilp-infeas.ine", "ilp"),
        ("ilp-huge.ine", "ilp"),
        ("santos.ext", "automorphisms"),
        ("santos.ext", "convert", "--adjacencies", "--dot", "DOT"),
        ("santos.ext", "volume"),
    ]
    with gate(8, "worker-count determinism"):
        for num, (fixture, cmd, *extra) in enumerate(PIPELINES):
            seen = []
            for jobs in ("1", "8"):
                dot = tmp_path / f"{num}-{jobs}.dot"
                args = [cmd, str(FIX / fixture)]
                args += [str(dot) if a == "DOT" else a for a in extra]
                code = main(args + ["--jobs", jobs])
                cap = capsys.readouterr()
                dot_bytes = dot.read_bytes() if dot.exists() else b""
                seen.append((code, cap.out, cap.err, dot_bytes))
            assert seen[0] == seen[1], (fixture, cmd)
