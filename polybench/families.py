"""Seeded polytope families and their closed-form answers.

Every family is built here from its definition; polyorbit only ever sees the
text files written by ``write_h`` and ``write_v``.  Points are integer or
``Fraction`` tuples, and an H-description is a list of rows ``(a, b)`` for
``a.x <= b``.

Seeded variety comes from unimodular images: an integral affine map
x -> Ux + t with det U = +-1 maps Z^n onto itself, so lattice counts, Ehrhart
polynomials, volumes, symmetry group orders and orbit sizes of the image
equal those of the original, while coordinates, row order and the cost of
the computation change with the seed.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import ceil, comb, factorial, floor

# ---------------------------------------------------------------------------
# Families


def cube_v(n: int) -> list:
    return list(product((-1, 1), repeat=n))


def cube_h(n: int, lam: int = 1) -> list:
    rows = []
    for i in range(n):
        for s in (1, -1):
            a = [0] * n
            a[i] = s
            rows.append((tuple(a), lam))
    return rows


def cross_v(n: int) -> list:
    pts = []
    for i in range(n):
        for s in (1, -1):
            p = [0] * n
            p[i] = s
            pts.append(tuple(p))
    return pts


def cross_h(n: int, lam: int = 1) -> list:
    return [(signs, lam) for signs in product((1, -1), repeat=n)]


def cut_v(n: int) -> list:
    """Cut polytope CUT_n: the 2^(n-1) cut vectors delta(S), n in S, in
    R^(n choose 2)."""
    pairs = list(combinations(range(n), 2))
    pts = []
    for bits in product((0, 1), repeat=n - 1):
        side = bits + (1,)
        pts.append(tuple(int(side[i] != side[j]) for i, j in pairs))
    return pts


def hypersimplex_v(k: int, n: int) -> list:
    """Hypersimplex Delta(k, n): 0/1 vectors with k ones, an (n-1)-polytope
    in the hyperplane sum x = k of R^n."""
    return [tuple(int(i in S) for i in range(n)) for S in combinations(range(n), k)]


def prismatoid_v() -> list:
    """Santos' 48-vertex 5-prismatoid: two 24-vertex bases at x5 = +1 and
    x5 = -1, each the set of sign patterns of eight base points."""
    top = [(18, 0, 0, 0), (0, 18, 0, 0), (0, 0, 45, 0), (0, 0, 0, 45),
           (15, 15, 0, 0), (0, 0, 30, 30), (0, 10, 40, 0), (10, 0, 0, 40)]
    bottom = [(45, 0, 0, 0), (0, 45, 0, 0), (0, 0, 18, 0), (0, 0, 0, 18),
              (30, 30, 0, 0), (0, 0, 15, 15), (40, 0, 10, 0), (0, 40, 0, 10)]
    pts = set()
    for bases, h in ((top, 1), (bottom, -1)):
        for base in bases:
            for signs in product((1, -1), repeat=4):
                pts.add(tuple(s * x for s, x in zip(signs, base)) + (h,))
    return sorted(pts)


def birkhoff3_h() -> list:
    """Birkhoff polytope B_3 in the lattice coordinates (x11, x12, x21, x22)
    of its affine hull; the other five entries are affine in these, with
    integral coefficients, so the projection is lattice-preserving."""
    rows = []
    for i in range(4):
        a = [0] * 4
        a[i] = -1
        rows.append((tuple(a), 0))                 # x_ij >= 0
    rows.append(((1, 1, 0, 0), 1))                 # x13 >= 0
    rows.append(((0, 0, 1, 1), 1))                 # x23 >= 0
    rows.append(((1, 0, 1, 0), 1))                 # x31 >= 0
    rows.append(((0, 1, 0, 1), 1))                 # x32 >= 0
    rows.append(((-1, -1, -1, -1), -1))            # x33 >= 0
    return rows


# ---------------------------------------------------------------------------
# Closed forms


def hyperoctahedral_order(n: int) -> int:
    return 2 ** n * factorial(n)


def cut_order(n: int) -> int:
    """Order of the symmetry group of CUT_n (n >= 5): switchings times
    permutations, 2^(n-1) n!."""
    return 2 ** (n - 1) * factorial(n)


def cube_count(n: int, lam: int) -> int:
    return (2 * lam + 1) ** n


def cross_count(n: int, lam: int) -> int:
    """Lattice points of lam times the n-cross-polytope (|x|_1 <= lam)."""
    return sum(2 ** k * comb(n, k) * comb(lam, k) for k in range(n + 1))


def cube_ehrhart(n: int) -> list:
    """Coefficients (constant first) of (2t + 1)^n."""
    return [Fraction(comb(n, j) * 2 ** j) for j in range(n + 1)]


def cross_ehrhart(n: int) -> list:
    """Coefficients of sum_k 2^k C(n, k) C(t, k)."""
    out = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        # C(t, k) = t (t - 1) ... (t - k + 1) / k!
        poly = [Fraction(1)]
        for r in range(k):
            poly = [(poly[j - 1] if j else 0) - r * (poly[j] if j < len(poly) else 0)
                    for j in range(len(poly) + 1)]
        scale = Fraction(2 ** k * comb(n, k), factorial(k))
        for j, c in enumerate(poly):
            out[j] += scale * c
    return out


# Ehrhart polynomial of B_3 (magic squares of size 3 with line sum t)
BIRKHOFF3_EHRHART = [Fraction(1), Fraction(9, 4), Fraction(15, 8),
                     Fraction(3, 4), Fraction(1, 8)]


def cube_volume(n: int, lam: int) -> Fraction:
    return Fraction((2 * lam) ** n)


def cross_volume(n: int, lam: int) -> Fraction:
    return Fraction((2 * lam) ** n, factorial(n))


# ---------------------------------------------------------------------------
# Unimodular images


class Unimodular:
    """x -> U x + t with U integral and det U = +-1.

    U is a seeded signed permutation followed by ``moves`` elementary row
    additions with a seeded sign, on the fixed coordinate pairs (0, 1),
    (1, 2), ...  On a family that signed permutations preserve (cubes,
    cross-polytopes) the image then differs across seeds only by the signs
    and the translation, so its cost does too.
    """

    def __init__(self, rng: random.Random, n: int, moves: int, shift: int):
        perm = list(range(n))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        U = [[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]
        Uinv = [[U[j][i] for j in range(n)] for i in range(n)]   # orthogonal
        for m in range(moves if n > 1 else 0):
            i, j = m % n, (m + 1) % n
            s = rng.choice((1, -1))
            # row_i += s row_j on U; the inverse gets col_j -= s col_i
            U[i] = [u + s * v for u, v in zip(U[i], U[j])]
            for r in range(n):
                Uinv[r][j] -= s * Uinv[r][i]
        self.U, self.Uinv = U, Uinv
        self.t = [rng.randint(-shift, shift) for _ in range(n)]

    def point(self, x) -> tuple:
        return tuple(sum(u * v for u, v in zip(row, x)) + ti
                     for row, ti in zip(self.U, self.t))

    def row(self, a, b) -> tuple:
        """Image of the halfspace a.x <= b: a' = a U^-1, b' = b + a'.t."""
        n = len(a)
        a2 = tuple(sum(a[k] * self.Uinv[k][j] for k in range(n)) for j in range(n))
        return a2, b + sum(x * y for x, y in zip(a2, self.t))


def image_v(rng: random.Random, pts: list, moves: int, shift: int) -> list:
    f = Unimodular(rng, len(pts[0]), moves, shift)
    out = [f.point(p) for p in pts]
    rng.shuffle(out)
    return out


def image_h(rng: random.Random, rows: list, moves: int, shift: int) -> list:
    f = Unimodular(rng, len(rows[0][0]), moves, shift)
    out = [f.row(a, b) for a, b in rows]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# Random rational polytopes and block-invariant systems


def jittered_v(rng: random.Random, base: list, q: int) -> list:
    """Points of (1/q) Z^d: every coordinate of the integral base points
    moved by -1, 0 or 1, then divided by q.  The polytope's Ehrhart period
    divides q, and its size, and so its cost, stays close to the base's."""
    while True:
        pts = sorted({tuple(Fraction(x + rng.randint(-1, 1), q) for x in p) for p in base})
        if affine_rank(pts) == len(base[0]):
            return pts


def affine_rank(pts: list) -> int:
    rows = [[Fraction(x - y) for x, y in zip(p, pts[0])] for p in pts[1:]]
    r = 0
    for c in range(len(pts[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def block_rows(blocks: tuple, lo: list, hi: list, spread: list, couplings: list) -> list:
    """Rows of a system invariant under the product of symmetric groups on
    consecutive coordinate blocks.

    Block j has bounds lo[j] <= x_i <= hi[j] and, when spread[j] is not None,
    x_i - x_k <= spread[j] for all i != k in the block.  Each coupling
    (c, beta) is sum_j c_j s_j <= beta over the block sums s_j.
    """
    n = sum(blocks)
    offs = [sum(blocks[:j]) for j in range(len(blocks))]
    rows = []
    for j, nb in enumerate(blocks):
        for i in range(offs[j], offs[j] + nb):
            e = [0] * n
            e[i] = 1
            rows.append((tuple(e), hi[j]))
            rows.append((tuple(-x for x in e), -lo[j]))
        if spread[j] is not None:
            for i in range(offs[j], offs[j] + nb):
                for k in range(offs[j], offs[j] + nb):
                    if i != k:
                        a = [0] * n
                        a[i], a[k] = 1, -1
                        rows.append((tuple(a), spread[j]))
    for c, beta in couplings:
        a = []
        for cj, nb in zip(c, blocks):
            a.extend([cj] * nb)
        rows.append((tuple(a), beta))
    return rows


# ---------------------------------------------------------------------------
# Polyhedron files


def _fmt(x) -> str:
    return str(Fraction(x))


def write_h(path, rows: list, blocks=None, objective=None) -> None:
    """H file: each row a.x <= b becomes (b, -a); ``objective`` is
    (sense, c) with a zero constant term."""
    n = len(rows[0][0])
    out = ["H-representation", "begin", f"{len(rows)} {n + 1} rational"]
    for a, b in rows:
        out.append(" ".join([_fmt(b)] + [_fmt(-x) for x in a]))
    out.append("end")
    if objective is not None:
        sense, c = objective
        out.append(sense + " 0 " + " ".join(_fmt(x) for x in c))
    if blocks is not None:
        out.append("blocks " + " ".join(str(x) for x in blocks))
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def write_v(path, pts: list) -> None:
    out = ["V-representation", "begin", f"{len(pts)} {len(pts[0]) + 1} rational"]
    for p in pts:
        out.append(" ".join(["1"] + [_fmt(x) for x in p]))
    out.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def box_count(rows: list, pts: list) -> int:
    """Integral points satisfying all rows, scanned over the bounding box of
    pts, which must contain them."""
    lo = [ceil(min(p[i] for p in pts)) for i in range(len(pts[0]))]
    hi = [floor(max(p[i] for p in pts)) for i in range(len(pts[0]))]
    return sum(1 for x in product(*(range(a, b + 1) for a, b in zip(lo, hi)))
               if all(sum(ai * xi for ai, xi in zip(a, x)) <= b for a, b in rows))


def block_optimum(blocks: tuple, lo: list, hi: list, couplings: list, cb: list):
    """max sum_j cb_j s_j over the integral points of a ``block_rows`` system
    whose spreads are all None or at least 1, or None when it has none.

    Such a system restricts a point only through its bounds and its block
    sums: every integer s_j in [n_j lo_j, n_j hi_j] is the sum of a point of
    block j with spread at most 1.  So the answer is a scan over the box of
    block sums, independent of how polyorbit sweeps its fibers.
    """
    best = None
    for s in product(*(range(nb * l, nb * h + 1) for nb, l, h in zip(blocks, lo, hi))):
        if all(sum(cj * sj for cj, sj in zip(c, s)) <= beta for c, beta in couplings):
            val = sum(cj * sj for cj, sj in zip(cb, s))
            best = val if best is None else max(best, val)
    return best
