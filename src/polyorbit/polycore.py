"""Exact rational polyhedra: core types, linear algebra, linear programming
and double description.

Everything in this package computes over the rationals; floating point is never
used, not even as a pre-filter.  Vectors are tuples of Fraction, matrices are
tuples of row tuples.  Inequality systems are written A x <= b throughout.

Every exact elimination runs on one kernel, gauss_jordan: fraction-free
Gauss-Jordan elimination of an integer matrix, which returns D times the
reduced row echelon form.  Rational rows are scaled to integers first, which
leaves the reduced form unchanged, so rank, det, nullspace,
integer_nullspace, row_space_basis, solve_linear, invert_matrix,
hull_coordinates and affinely_independent_subset read their results off it;
symmetry detection uses it directly for its integer frames.
The simplex pivots of solve_lp and the unimodular column reduction of
integer_kernel_basis are separate algorithms.

Representation conversion is one integer double description, dd_cone, of
a homogenization cone; convert_dd_incidence also returns, for each output
element, the input elements it is tight on.  remove_redundancy (through
irredundant_rows), affine_hull of an H-description, the facet incidence
sets of repconv and latcount, and the faces that latcount.volume triangulates
read those masks, so canonical forms need no LP and no face is converted
again.  solve_lp is left to optimization: symilp.solve_lp_reduced and the
relaxation point that orders symilp.symmetric_ilp's feasibility sweep.
Lattice counting, and the ILP without blocks that runs on its walk, solve
none.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import and_, mul, sub
from typing import Iterable, Optional, Sequence, Union

Rational = Fraction
Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]
# A face is referred to by the 1-based indices of the generators (or rows)
# incident to it.
FaceIndexSet = frozenset


class PolyhedronError(Exception):
    """Structural problem with a polyhedron or an operation's preconditions."""


class EmptyPolyhedronError(PolyhedronError):
    """Raised where an operation requires a nonempty polyhedron."""


class VerificationError(PolyhedronError):
    """An internal cross-check failed; the computed result cannot be trusted."""


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vector(entries: Iterable) -> Vector:
    return tuple(frac(e) for e in entries)


def matrix(rows: Iterable[Iterable]) -> Matrix:
    return tuple(vector(r) for r in rows)


def dot(u: Sequence, v: Sequence) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vec_add(u: Sequence, v: Sequence) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence, v: Sequence) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u: Sequence) -> Vector:
    c = frac(c)
    return tuple(c * a for a in u)


def mat_vec(A: Sequence[Sequence], x: Sequence) -> Vector:
    return tuple(dot(row, x) for row in A)


def mat_mul(A: Sequence[Sequence], B: Sequence[Sequence]) -> Matrix:
    Bt = list(zip(*B))
    return tuple(tuple(dot(row, col) for col in Bt) for row in A)


def transpose(A: Sequence[Sequence]) -> Matrix:
    return tuple(zip(*A))


def identity_matrix(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def integerize(row: Sequence) -> tuple[int, ...]:
    """Scale a rational row by the positive lcm of denominators."""
    row = tuple(row)
    if all(type(x) is int for x in row):
        return row
    fr = [frac(x) for x in row]
    mult = lcm(*(x.denominator for x in fr)) if fr else 1
    return tuple(x.numerator * (mult // x.denominator) for x in fr)


def primitive(row: Sequence) -> tuple[int, ...]:
    """Integerize and divide by the gcd; sign of the row is preserved."""
    ints = integerize(row)
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g <= 1:
        return ints
    return tuple(x // g for x in ints)


# ---------------------------------------------------------------------------
# Exact linear algebra


def gauss_jordan(rows: Iterable[Sequence[int]], stop: Optional[int] = None
                 ) -> tuple[int, list[int], list[list[int]], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns (D, pivots, M, sign).  M is D times the reduced row echelon form
    (RREF) of the rows: row r < len(pivots) holds D in column pivots[r] and 0
    in every other pivot column, and the rows after the pivot rows are zero
    in every column before stop.  Pivots are taken only in columns before
    stop (all columns by default), so [N | I] with stop = len(N) ends as
    [D I | D N^-1] for a nonsingular N.  Each pivot is the first nonzero
    entry at or below the current row; sign is (-1)^(row swaps), and D is
    the minor on the pivot rows and columns, so a nonsingular square N has
    det N = sign * D.

    One step with pivot row t and pivot p replaces every other row x by
    (p x - x_c t) / D_prev.  The division is exact because every entry is a
    minor of the input (Bareiss, "Sylvester's identity and multistep
    integer-preserving Gaussian elimination", 1968); rows with x_c = 0 are
    rescaled by p / D_prev all the same, which keeps them on the common
    scale D.
    """
    m = [list(r) for r in rows]
    if stop is None:
        stop = len(m[0]) if m else 0
    D, sign, pivots = 1, 1, []
    for c in range(stop):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        for i, x in enumerate(m):
            if i == r:
                continue
            f = x[c]
            if f:
                m[i] = [(p * a - f * b) // D for a, b in zip(x, top)]
            elif p != D:
                m[i] = [p * a // D for a in x]
        D = p
        pivots.append(c)
    return D, pivots, m, sign


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank: the pivot count of the integerized rows."""
    return len(gauss_jordan(integerize(r) for r in rows)[1])


def row_space_basis(rows: Sequence[Sequence]) -> Matrix:
    """The nonzero rows of the reduced row echelon form."""
    D, pivots, m, _ = gauss_jordan(integerize(r) for r in rows)
    return tuple(tuple(Fraction(x, D) for x in m[r]) for r in range(len(pivots)))


def _kernel(rows: Iterable[Sequence[int]], n: int) -> tuple[int, list[list[int]]]:
    """(D, vectors): D times the null space basis of an integer matrix read
    off its reduced row echelon form, one vector per free column j, which
    holds D in column j and 0 in the other free columns."""
    D, pivots, m, _ = gauss_jordan(rows)
    basis = []
    for j in range(n):
        if j in pivots:
            continue
        v = [0] * n
        v[j] = D
        for row, pc in zip(m, pivots):
            v[pc] = -row[j]
        basis.append(v)
    return D, basis


def nullspace(rows: Sequence[Sequence], n: Optional[int] = None) -> Matrix:
    """Basis of {x : A x = 0}, one vector per free column, read off the
    reduced row echelon form."""
    if n is None:
        n = len(rows[0]) if rows else 0
    D, basis = _kernel((integerize(r) for r in rows), n)
    return tuple(tuple(Fraction(x, D) for x in v) for v in basis)


def integer_nullspace(rows: Iterable[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    """nullspace of an integer matrix with each basis vector scaled by a
    positive factor to a primitive integer vector."""
    D, basis = _kernel(rows, n)
    return [primitive(v if D > 0 else [-x for x in v]) for v in basis]


def solve_linear(A: Sequence[Sequence], b: Sequence) -> Optional[Vector]:
    """One exact solution of A x = b (free variables 0), or None if
    inconsistent, which a nonzero right-hand side left on a zero row shows."""
    n = len(A[0]) if A else 0
    D, pivots, m, _ = gauss_jordan(
        (integerize(tuple(r) + (bb,)) for r, bb in zip(A, b)), stop=n)
    if any(row[n] for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, pc in zip(m, pivots):
        x[pc] = Fraction(row[n], D)
    return tuple(x)


def invert_matrix(A: Sequence[Sequence]) -> Matrix:
    """Exact inverse, the right block of the elimination of [A | I]."""
    n = len(A)
    D, pivots, m, _ = gauss_jordan(
        (integerize(tuple(row) + tuple(int(i == j) for j in range(n)))
         for i, row in enumerate(A)), stop=n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return tuple(tuple(Fraction(x, D) for x in row[n:]) for row in m)


def det(A: Sequence[Sequence]) -> Fraction:
    """Exact determinant: sign * D of the integerized rows, over the product
    of their scale factors."""
    n = len(A)
    D, pivots, _, sign = gauss_jordan(integerize(r) for r in A)
    if len(pivots) < n:
        return Fraction(0)
    denom = 1
    for row in A:
        denom *= lcm(*(frac(x).denominator for x in row))
    return Fraction(sign * D, denom)


def integer_kernel_basis(rows: Sequence[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    """Basis of the lattice {z in Z^n : A z = 0} for an integer matrix A.

    Column reduction by unimodular operations; the columns of the tracked
    unimodular matrix that end up annihilated form a lattice basis of the
    kernel (saturated, not merely a finite-index sublattice).
    """
    A = [list(r) for r in rows]
    U = [[int(i == j) for j in range(n)] for i in range(n)]  # column ops tracker

    def col(mat, j):
        return [mat[i][j] for i in range(len(mat))]

    def addcol(mat, dst, src, q):
        for i in range(len(mat)):
            mat[i][dst] += q * mat[i][src]

    def swapcol(mat, a, b):
        for i in range(len(mat)):
            mat[i][a], mat[i][b] = mat[i][b], mat[i][a]

    r = 0
    for i in range(len(A)):
        # find a column with the smallest nonzero |entry| in row i, cols >= r
        while True:
            nz = [j for j in range(r, n) if A[i][j] != 0]
            if not nz:
                break
            jmin = min(nz, key=lambda j: abs(A[i][j]))
            if jmin != r:
                swapcol(A, r, jmin)
                swapcol(U, r, jmin)
            done = True
            for j in range(r + 1, n):
                if A[i][j] != 0:
                    q = A[i][j] // A[i][r]
                    addcol(A, j, r, -q)
                    addcol(U, j, r, -q)
                    if A[i][j] != 0:
                        done = False
            if done:
                break
        if r < n and A[i][r] != 0:
            r += 1
        if r == n:
            break
    kernel = []
    for j in range(r, n):
        if all(A[i][j] == 0 for i in range(len(A))):
            kernel.append(tuple(col(U, j)))
    return kernel


# ---------------------------------------------------------------------------
# Polyhedron representations


@dataclass(frozen=True)
class HPolyhedron:
    """Inequality description {x : A x <= b} with exact rational data."""
    A: Matrix
    b: Vector
    # 1-based indices of rows known to hold with equality on the whole set
    # (populated by remove_redundancy).
    equality_rows: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.A) != len(self.b):
            raise PolyhedronError("row count mismatch between A and b")
        widths = {len(r) for r in self.A}
        if len(widths) > 1:
            raise PolyhedronError("ragged inequality matrix")

    @classmethod
    def from_rows(cls, A: Iterable[Iterable], b: Iterable, equality_rows=()) -> "HPolyhedron":
        return cls(matrix(A), vector(b), tuple(equality_rows))

    @property
    def m(self) -> int:
        return len(self.A)

    @property
    def n(self) -> int:
        return len(self.A[0]) if self.A else 0

    def contains(self, x: Sequence) -> bool:
        x = vector(x)
        eq = set(self.equality_rows)
        for i, (row, bb) in enumerate(zip(self.A, self.b), start=1):
            v = dot(row, x)
            if (v != bb) if i in eq else (v > bb):
                return False
        return True

    def dilate(self, factor) -> "HPolyhedron":
        """The dilate factor*P (factor > 0)."""
        f = frac(factor)
        if f <= 0:
            raise ValueError("dilation factor must be positive")
        return HPolyhedron(self.A, tuple(f * bb for bb in self.b), self.equality_rows)

    def row(self, i: int) -> tuple[Vector, Fraction]:
        """1-based row access: (a_i, b_i)."""
        return self.A[i - 1], self.b[i - 1]


@dataclass(frozen=True)
class VPolyhedron:
    """Generator description conv(vertices) + cone(rays)."""
    vertices: Matrix
    rays: Matrix = ()

    @classmethod
    def from_points(cls, points: Iterable[Iterable], rays: Iterable[Iterable] = ()) -> "VPolyhedron":
        return cls(matrix(points), matrix(rays))

    @property
    def k(self) -> int:
        return len(self.vertices)

    @property
    def n(self) -> int:
        if self.vertices:
            return len(self.vertices[0])
        if self.rays:
            return len(self.rays[0])
        return 0

    def vertex(self, j: int) -> Vector:
        """1-based vertex access."""
        return self.vertices[j - 1]


@dataclass(frozen=True)
class AffineMap:
    """x |-> A x + t with invertible linear part."""
    A: Matrix
    t: Vector

    def apply(self, x: Sequence) -> Vector:
        return vec_add(mat_vec(self.A, x), self.t)

    def inverse(self) -> "AffineMap":
        Ainv = invert_matrix(self.A)
        return AffineMap(Ainv, vec_scale(-1, mat_vec(Ainv, self.t)))


# ---------------------------------------------------------------------------
# Exact linear programming (two-phase simplex with Bland's rule)


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[Fraction] = None
    point: Optional[Vector] = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def solve_lp(P: HPolyhedron, c: Sequence, maximize: bool = True) -> LPResult:
    """Maximize (default) or minimize c.x over {A x <= b}.

    Rows listed in P.equality_rows are held at equality (no slack).

    Deterministic: Bland's smallest-index pivoting rule throughout, so reruns
    and alternative-optima situations always yield the same argmax.
    Infeasible and unbounded are ordinary result statuses, not exceptions.
    """
    c = vector(c)
    if not maximize:
        res = solve_lp(P, vec_scale(-1, c), maximize=True)
        if res.status == "optimal":
            return LPResult("optimal", -res.value, res.point)
        return res
    m, n = P.m, P.n
    if n != len(c):
        raise ValueError("objective length does not match dimension")
    # variables: u (n), w (n) with x = u - w, slacks s (m); then artificials.
    total = 2 * n + m

    # rows normalized so the right-hand side is nonnegative
    eq = set(P.equality_rows)
    rows = []
    rhs = []
    for i in range(m):
        a = list(P.A[i])
        bb = P.b[i]
        # equality rows get no slack; phase 1 then starts them on an artificial
        slack = [Fraction(int(j == i and (i + 1) not in eq)) for j in range(m)]
        row = [frac(v) for v in a] + [-frac(v) for v in a] + slack
        if bb < 0:
            row = [-v for v in row]
            bb = -bb
        rows.append(row)
        rhs.append(frac(bb))

    basis = []
    art_cols = []
    for i in range(m):
        # slack column is usable as the initial basis only if its sign survived
        scol = 2 * n + i
        if rows[i][scol] == 1:
            basis.append(scol)
        else:
            col = total + len(art_cols)
            art_cols.append(col)
            basis.append(col)
    ncols = total + len(art_cols)
    # extend rows with artificial columns
    for i in range(m):
        ext = [Fraction(0)] * len(art_cols)
        if basis[i] >= total:
            ext[basis[i] - total] = Fraction(1)
        rows[i] = rows[i] + ext

    def pivot(tab, rhs_, basis_, obj, objval, r, col):
        pv = tab[r][col]
        tab[r] = [v / pv for v in tab[r]]
        rhs_[r] /= pv
        for i in range(len(tab)):
            if i != r and tab[i][col] != 0:
                f = tab[i][col]
                tab[i] = [a - f * bv for a, bv in zip(tab[i], tab[r])]
                rhs_[i] -= f * rhs_[r]
        if obj is not None and obj[col] != 0:
            f = obj[col]
            for j in range(len(obj)):
                obj[j] -= f * tab[r][j]
            objval[0] -= f * rhs_[r]
        basis_[r] = col

    def run_simplex(tab, rhs_, basis_, obj, objval, allowed):
        # minimize obj.z; Bland's rule
        while True:
            enter = next((j for j in allowed if obj[j] < 0), None)
            if enter is None:
                return "optimal"
            ratios = [(rhs_[i] / tab[i][enter], basis_[i], i)
                      for i in range(len(tab)) if tab[i][enter] > 0]
            if not ratios:
                return "unbounded"
            _, _, r = min(ratios, key=lambda t: (t[0], t[1]))
            pivot(tab, rhs_, basis_, obj, objval, r, enter)

    # phase 1: minimize sum of artificials
    if art_cols:
        obj = [Fraction(0)] * ncols
        for col in art_cols:
            obj[col] = Fraction(1)
        objval = [Fraction(0)]
        # price out the basic artificials
        for i, bcol in enumerate(basis):
            if bcol >= total:
                for j in range(ncols):
                    obj[j] -= rows[i][j]
                objval[0] -= rhs[i]
        run_simplex(rows, rhs, basis, obj, objval, range(ncols))
        if objval[0] != 0:
            return LPResult("infeasible")
        # drive leftover artificials out of the basis
        for i in range(m):
            if basis[i] >= total:
                col = next((j for j in range(total) if rows[i][j] != 0), None)
                if col is not None:
                    pivot(rows, rhs, basis, None, None, i, col)
        # Rows still basic in an artificial are identically zero; harmless.

    # phase 2: minimize -c.x = -c.u + c.w
    obj = [Fraction(0)] * ncols
    for j in range(n):
        obj[j] = -c[j]
        obj[n + j] = c[j]
    for col in art_cols:
        obj[col] = Fraction(0)
    objval = [Fraction(0)]
    for i, bcol in enumerate(basis):
        if obj[bcol] != 0:
            f = obj[bcol]
            for j in range(ncols):
                obj[j] -= f * rows[i][j]
            objval[0] -= f * rhs[i]
    allowed = [j for j in range(total)]  # artificials never re-enter
    status = run_simplex(rows, rhs, basis, obj, objval, allowed)
    if status == "unbounded":
        return LPResult("unbounded")
    x = [Fraction(0)] * n
    for i, bcol in enumerate(basis):
        if bcol < n:
            x[bcol] += rhs[i]
        elif bcol < 2 * n:
            x[bcol - n] -= rhs[i]
    point = tuple(x)
    return LPResult("optimal", dot(c, point), point)


def feasible_point(P: HPolyhedron) -> Optional[Vector]:
    res = solve_lp(P, zero_vector(P.n))
    return res.point if res.is_optimal else None


# ---------------------------------------------------------------------------
# Double description


def dd_cone(rows: Sequence[Sequence], n: int
            ) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], list[int]]:
    """Double description of the cone {x in R^n : r.x <= 0 for every row r}.

    Returns (lineality, rays, masks): lineality and rays are primitive integer
    tuples with cone = span(lineality) + cone(rays), and masks[j] has bit t
    set exactly when rays[j] is tight on rows[t] (every lineality direction
    is tight on every row).  Rows are inserted in the given order and rays
    are created in a fixed order, so the output is deterministic.  Each row
    is scaled once to a primitive integer row (the cone does not change),
    after which the method runs in integer arithmetic: every update combines
    two generators with positive integer multipliers, a positive multiple of
    the rational combination, so the primitive results are the same.
    """
    lin: list[tuple[int, ...]] = [tuple(1 if j == i else 0 for j in range(n))
                                  for i in range(n)]
    rays: list[tuple[int, ...]] = []
    masks: list[int] = []
    for t, a in enumerate(primitive(raw) for raw in rows):
        lin_vals = [sum(map(mul, a, l)) for l in lin]
        if any(lin_vals):
            # the row cuts the lineality space: one direction becomes a ray,
            # the rest of the basis and all rays are projected onto {a.x = 0}
            i0 = next(i for i, v in enumerate(lin_vals) if v != 0)
            l0, v0 = lin[i0], lin_vals[i0]
            s0 = 1 if v0 > 0 else -1
            lin = [l if v == 0 else _combine(abs(v0), l, -s0 * v, l0)
                   for i, (l, v) in enumerate(zip(lin, lin_vals)) if i != i0]
            r0 = l0 if v0 < 0 else tuple(-x for x in l0)
            new_rays, new_masks, seen = [], [], set()
            for r, m in zip(rays, masks):
                vr = sum(map(mul, a, r))
                rp = r if vr == 0 else _combine(abs(v0), r, vr, r0)
                if not any(rp) or rp in seen:
                    continue
                seen.add(rp)
                new_rays.append(rp)
                new_masks.append(m | (1 << t))
            new_rays.append(r0)
            new_masks.append((1 << t) - 1)
            rays, masks = new_rays, new_masks
        else:
            vals = [sum(map(mul, a, r)) for r in rays]
            if any(v > 0 for v in vals):
                plus = [i for i, v in enumerate(vals) if v > 0]
                minus = [i for i, v in enumerate(vals) if v < 0]
                created, created_masks, seen = [], [], set()
                # the common tight rows of an adjacent pair have rank
                # n - 2 - dim(lineality), so a pair tight on fewer rows is
                # not adjacent (Fukuda-Prodon, "Double description method
                # revisited", 1996)
                need = n - 2 - len(lin)
                for ip in minus:
                    for iq in plus:
                        z = masks[ip] & masks[iq]
                        if z.bit_count() < need:
                            continue
                        # combinatorial adjacency: no third ray tight on the
                        # common tight set of the pair
                        if any(masks[ir] & z == z
                               for ir in range(len(rays)) if ir != ip and ir != iq):
                            continue
                        w = _combine(vals[iq], rays[ip], -vals[ip], rays[iq])
                        if w in seen:
                            continue
                        seen.add(w)
                        created.append(w)
                        # a positive combination of two rays is tight exactly
                        # where both are, and on the new row
                        created_masks.append(z | (1 << t))
                kept_rays, kept_masks = [], []
                for i, (r, m) in enumerate(zip(rays, masks)):
                    if vals[i] > 0:
                        continue
                    kept_rays.append(r)
                    kept_masks.append(m | (1 << t) if vals[i] == 0 else m)
                rays = kept_rays + created
                masks = kept_masks + created_masks
            else:
                masks = [m | (1 << t) if vals[i] == 0 else m
                         for i, m in enumerate(masks)]
    return lin, rays, masks


def _combine(p: int, u: tuple[int, ...], q: int, w: tuple[int, ...]) -> tuple[int, ...]:
    """The primitive form of p*u + q*w, for integer vectors and multipliers."""
    v = tuple(p * x + q * y for x, y in zip(u, w))
    g = gcd(*v)
    return v if g <= 1 else tuple(x // g for x in v)


def _h_to_v(P: HPolyhedron) -> tuple[VPolyhedron, list[int]]:
    n = P.n
    cone_rows: list[tuple] = [(Fraction(-1),) + tuple(zero_vector(n))]  # x0 >= 0
    pos = []                   # the cone row of each input row
    eq = set(P.equality_rows)
    for i in range(P.m):
        row = (-P.b[i],) + tuple(P.A[i])
        pos.append(len(cone_rows))
        cone_rows.append(row)
        if (i + 1) in eq:
            cone_rows.append(tuple(-x for x in row))
    lin, rays, masks = dd_cone(cone_rows, n + 1)
    masks = [sum(1 << i for i, t in enumerate(pos) if m >> t & 1) for m in masks]
    verts, recs, vmasks, rmasks = [], [], [], []
    for r, m in zip(rays, masks):
        if r[0] > 0:
            verts.append(tuple(Fraction(x, r[0]) for x in r[1:]))
            vmasks.append(m)
        else:
            recs.append(tuple(Fraction(x) for x in r[1:]))
            rmasks.append(m)
    for l in lin:
        tail = tuple(Fraction(x) for x in l[1:])
        recs.append(tail)
        recs.append(tuple(-x for x in tail))
        rmasks += [(1 << P.m) - 1] * 2
    if not verts:
        raise EmptyPolyhedronError("polyhedron has no points")
    return VPolyhedron.from_points(verts, recs), vmasks + rmasks


def _v_to_h(V: VPolyhedron) -> tuple[HPolyhedron, list[int]]:
    if not V.vertices:
        raise EmptyPolyhedronError("no points given")
    n = V.n
    cone_rows = [tuple(v) + (Fraction(-1),) for v in V.vertices]
    cone_rows += [tuple(r) + (Fraction(0),) for r in V.rays]
    lin, rays, masks = dd_cone(cone_rows, n + 1)
    A: list[tuple] = []
    b: list[Fraction] = []
    eq_rows: list[int] = []
    tight: list[int] = []
    for l in lin:
        if not any(l[:n]):
            continue
        A.append(tuple(Fraction(x) for x in l[:n]))
        b.append(Fraction(l[n]))
        eq_rows.append(len(A))
        tight.append((1 << len(cone_rows)) - 1)
    for r, m in zip(rays, masks):
        if not any(r[:n]):
            continue                       # the trivial row 0.x <= 1
        A.append(tuple(Fraction(x) for x in r[:n]))
        b.append(Fraction(r[n]))
        tight.append(m)
    return HPolyhedron.from_rows(A, b, tuple(eq_rows)), tight


def convert_dd_incidence(P: Union[HPolyhedron, VPolyhedron]
                         ) -> tuple[Union[VPolyhedron, HPolyhedron], list[int]]:
    """convert_dd(P) together with the incidence the conversion found.

    One mask per output element, with bit i set when the element is tight on
    input element i + 1.  For H input: one mask per vertex, then per ray of
    the result (a line comes as two opposite rays), over the rows of P.  For
    V input: one mask per row of the result, over the vertices and then the
    rays of P.  A vertex v is tight on row i
    when a_i.v = b_i, a ray r when a_i.r = 0, as in incidence().
    """
    if isinstance(P, HPolyhedron):
        return _h_to_v(P)
    if isinstance(P, VPolyhedron):
        return _v_to_h(P)
    raise TypeError("expected an HPolyhedron or VPolyhedron")


def convert_dd(P: Union[HPolyhedron, VPolyhedron]) -> Union[VPolyhedron, HPolyhedron]:
    """Exact representation conversion; direction chosen by input type.

    Output is irredundant for each representation's notion of redundancy
    (extreme generators / facet rows modulo the lineality or hull equalities).
    """
    return convert_dd_incidence(P)[0]


def index_set(mask: int) -> FaceIndexSet:
    """The 1-based indices of the set bits of a mask."""
    return frozenset(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


# ---------------------------------------------------------------------------
# Incidence, affine hulls, redundancy


@dataclass(frozen=True)
class IncidenceData:
    """Which generators satisfy which rows with equality (exact zero test).

    Stored as per-row bitmasks over generator indices; all exposed index sets
    are 1-based, matching the rest of the toolkit.
    """
    m: int
    k: int
    row_masks: tuple[int, ...]

    def row_set(self, i: int) -> FaceIndexSet:
        return index_set(self.row_masks[i - 1])

    def column_set(self, j: int) -> FaceIndexSet:
        return frozenset(i + 1 for i in range(self.m)
                         if self.row_masks[i] >> (j - 1) & 1)

    def column_sets(self) -> tuple[FaceIndexSet, ...]:
        return tuple(self.column_set(j) for j in range(1, self.k + 1))


def incidence(P: HPolyhedron, V: VPolyhedron) -> IncidenceData:
    """Exact row/generator incidence: vertex v is on row i iff a_i.v = b_i;
    ray r is on row i iff a_i.r = 0.  Computed by Fraction dot products, so
    it checks the masks of convert_dd_incidence independently."""
    gens = list(V.vertices) + list(V.rays)
    nverts = len(V.vertices)
    masks = []
    for a, bb in zip(P.A, P.b):
        mask = 0
        for j, g in enumerate(gens):
            val = dot(a, g)
            tight = (val == bb) if j < nverts else (val == 0)
            if tight:
                mask |= 1 << j
        masks.append(mask)
    return IncidenceData(P.m, len(gens), tuple(masks))


@dataclass(frozen=True)
class AffineHull:
    """aff = point + span(directions); dim = len(directions)."""
    point: Vector
    directions: Matrix

    @property
    def dim(self) -> int:
        return len(self.directions)

    def coordinates(self, x: Sequence) -> Vector:
        """Coordinates y with x = point + directions^T y (exact; raises if x
        is outside the hull)."""
        diff = vec_sub(x, self.point)
        cols = transpose(self.directions)  # n x d
        y = solve_linear(cols, diff)
        if y is None:
            raise ValueError("point not in affine hull")
        return y

    def embed(self, y: Sequence) -> Vector:
        return vec_add(self.point, mat_vec(transpose(self.directions), y))


def affine_hull(obj: Union[VPolyhedron, HPolyhedron, Sequence]) -> AffineHull:
    """Affine hull with an exact rational direction basis.

    Accepts a VPolyhedron, a plain point sequence, or an HPolyhedron.  For
    the latter, one double description of P gives the implicit equalities,
    the rows tight on every generator; their null space is the direction
    space, and the first vertex the base point.
    """
    if isinstance(obj, HPolyhedron):
        try:
            V, masks = _h_to_v(obj)
        except EmptyPolyhedronError:
            raise EmptyPolyhedronError("empty polyhedron has no affine hull")
        on_all = reduce(and_, masks)
        eq_rows = [obj.A[i] for i in range(obj.m) if on_all >> i & 1]
        dirs = nullspace(eq_rows, obj.n) if eq_rows else identity_matrix(obj.n)
        return AffineHull(V.vertices[0], dirs)
    if isinstance(obj, VPolyhedron):
        pts = list(obj.vertices)
        rays = list(obj.rays)
    else:
        pts = [vector(p) for p in obj]
        rays = []
    if not pts:
        raise EmptyPolyhedronError("no points given")
    base = pts[0]
    diffs = [vec_sub(p, base) for p in pts[1:]] + rays
    return AffineHull(base, row_space_basis(diffs) if diffs else ())


def hull_coordinates(points: Sequence[Sequence]) -> list[tuple]:
    """Coordinates of every point in the affine hull of the list, as
    affine_hull(points).coordinates(p) gives them.

    affine_hull stores its directions as the rows of the reduced row echelon
    form of the differences p - points[0], so the coordinates of p are the
    entries of p - points[0] at the pivot columns: one elimination for the
    whole list, and integer coordinates for integer points.
    """
    if not points:
        raise EmptyPolyhedronError("no points given")
    base = points[0]
    diffs = [tuple(map(sub, p, base)) for p in points]
    pivots = gauss_jordan(integerize(r) for r in diffs[1:])[1]
    return [tuple(r[c] for c in pivots) for r in diffs]


def affinely_independent_subset(points: Sequence[Sequence]) -> list[int]:
    """0-based indices of a maximal affinely independent subset, greedy in
    input order (deterministic): point 0 and every point whose difference
    from it is a pivot column of the differences taken as columns."""
    pts = [vector(p) for p in points]
    if not pts:
        return []
    diffs = [vec_sub(p, pts[0]) for p in pts[1:]]
    pivots = gauss_jordan(integerize(r) for r in zip(*diffs))[1]
    return [0] + [j + 1 for j in pivots]


def remove_redundancy(P: HPolyhedron) -> HPolyhedron:
    """Irredundant subsystem defining the same set, read off one double
    description of P.

    Exact duplicates (and positive multiples) are dropped first, keeping the
    first copy; an equality mark on any copy survives on the kept one.  The
    implicit equalities are the rows tight on every generator, and are
    reported via equality_rows on the result.  Another row is kept when it
    is tight on some vertex and its set of tight generators is not strictly
    inside that of another such row, so that it cuts out a facet; of the
    rows that cut out the same facet, the last is kept.  Raises
    EmptyPolyhedronError for an empty input.
    """
    in_eq = set(P.equality_rows)
    seen = {}
    keep = []
    marked = []
    for i in range(P.m):
        key = primitive(tuple(P.A[i]) + (P.b[i],))
        if key not in seen:
            seen[key] = len(keep)
            keep.append(i)
            marked.append((i + 1) in in_eq)
        elif (i + 1) in in_eq:
            marked[seen[key]] = True
    A = tuple(P.A[i] for i in keep)
    b = tuple(P.b[i] for i in keep)
    try:
        V, masks = _h_to_v(HPolyhedron(A, b, tuple(j + 1 for j, f in enumerate(marked) if f)))
    except EmptyPolyhedronError:
        raise EmptyPolyhedronError("system is infeasible")
    equalities, active = irredundant_rows(masks, len(A), len(V.vertices))
    eqs = tuple(pos + 1 for pos, j in enumerate(active) if j in equalities)
    return HPolyhedron(tuple(A[j] for j in active), tuple(b[j] for j in active), eqs)


def irredundant_rows(masks: Sequence[int], m: int, vertices: int
                     ) -> tuple[frozenset, list[int]]:
    """The roles of the m rows of a nonempty system, read off the masks of
    its double description (convert_dd_incidence of an H input: one mask per
    generator, the given number of vertices first).

    Returns (equalities, kept) as 0-based row indices.  The implicit
    equalities are the rows tight on every generator.  kept lists them with
    every other row that is tight on some vertex and whose set of tight
    generators is not strictly inside that of another such row, so that it
    cuts out a facet; of the rows that cut out the same facet, the last is
    kept.
    """
    # tight[i]: the generators tight on row i, vertices in the low bits
    tight = [sum(1 << j for j, mask in enumerate(masks) if mask >> i & 1) for i in range(m)]
    every = (1 << len(masks)) - 1
    on_vertex = (1 << vertices) - 1
    equalities = frozenset(i for i, t in enumerate(tight) if t == every)
    rows = [t for i, t in enumerate(tight) if i not in equalities]
    kept = [i for i, t in enumerate(tight) if i in equalities or (
        t & on_vertex
        and not any(t | u == u and t != u for u in rows)
        and t not in (tight[j] for j in range(i + 1, m) if j not in equalities))]
    return equalities, kept
