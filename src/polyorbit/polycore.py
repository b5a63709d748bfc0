"""Exact rational polyhedra: core types, linear algebra, linear programming
and double description.

Everything in this package computes over the rationals; floating point is never
used, not even as a pre-filter.  Vectors are tuples of Fraction, matrices are
tuples of row tuples.  Inequality systems are written A x <= b throughout.
Beyond dot and vec_sub the module keeps no Fraction vector or matrix
helper, and AffineHull and IncidenceData are plain records, from which only
AffineHull.dim derives anything.

Every exact elimination runs on one kernel, gauss_jordan: fraction-free
Gauss-Jordan elimination of an integer matrix, which returns D times the
reduced row echelon form.  Rational rows are scaled to integers first, which
leaves the reduced form unchanged, so rank, det, nullspace,
integer_nullspace, row_space_basis, solve_linear, invert_matrix,
hull_coordinates (coordinates, pivots and null space at once) and
affinely_independent_subset read their results off it, and so do the integer
affine frames on which symmetry detection checks relabelings.  The simplex
of solve_lp pivots one integer tableau of P.int_rows with the same row step,
_bareiss_step, so its point depends on the polyhedron alone.  A point list
is scaled to integers as a whole by clear_denominators.  A polyhedron's
integer form is set by each of its constructors: HPolyhedron.int_rows, its
rows as primitive integer vectors, and VPolyhedron.int_points, its points
and rays over one scale; of_rows and of_points take it as a file or a
conversion gives it and make A and b, or the vertices, on first read.
Cached properties derive the rest once per object: frame, the integer affine
frame, which records every relabeling it has realized, and HPolyhedron.dd,
the one double description of an H-description.  The unimodular column
reduction of integer_kernel_basis is a separate algorithm.

Representation conversion is one integer double description, dd_cone, of a
homogenization cone that only integer_h_to_v (integer rows to points and
rays) and integer_v_to_h (points and rays to primitive rows) build; both
return the input elements each output element is tight on, and
convert_dd_incidence wraps them in Fraction.  remove_redundancy (through
irredundant_rows and P.dd), affine_hull of an H-description, the facet
incidence sets of repconv and latcount, and the faces that latcount.volume
triangulates read those masks, so canonical forms need no LP and no face is
converted again.  dd_cone pairs generators by adjacent_pairs (Chernikov's
rule on the masks) and combines each pair by combine, and so do the
Fourier-Motzkin steps of latcount; repconv's facet walk rotates its
supporting hyperplane by combine.  solve_lp is left to optimization:
symilp.solve_lp_reduced and the relaxation point that orders
symilp.symmetric_ilp's feasibility sweep.  Lattice counting, and the ILP
without blocks that runs on its walk, solve none.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import islice
from math import gcd, lcm
from operator import and_, mul, sub
from typing import Iterable, Iterator, Optional, Sequence, Union

Rational = Fraction
Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


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


def vec_sub(u: Sequence, v: Sequence) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def clear_denominators(points: Iterable[Sequence]) -> tuple[int, list[tuple[int, ...]]]:
    """(s, [s p for each point]) for s the lcm of every denominator in the
    list: one positive scale, so incidences, orders and ties are kept."""
    points = [tuple(p) for p in points]
    s = lcm(*(x.denominator for p in points for x in p))
    return s, [tuple(x.numerator * (s // x.denominator) for x in p) for p in points]


def integerize(row: Sequence) -> tuple[int, ...]:
    """Scale a rational row by the positive lcm of denominators."""
    row = tuple(row)
    if set(map(type, row)) <= {int}:
        return row
    return clear_denominators([row])[1][0]


def primitive(row: Sequence) -> tuple[int, ...]:
    """Integerize and divide by the gcd; sign of the row is preserved."""
    ints = integerize(row)
    g = gcd(*ints)
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

    Each step is one _bareiss_step.
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
        D = _bareiss_step(m, r, c, D)
        pivots.append(c)
    return D, pivots, m, sign


def _bareiss_step(m: list[list[int]], r: int, c: int, D: int) -> int:
    """Pivot the integer matrix m on entry (r, c) in place; returns the
    pivot p = m[r][c], the divisor of the next step.

    Row r is kept, and every other row x becomes (p x - x_c m[r]) / D, D the
    previous pivot.  The division is exact because every entry is a minor
    of the input (Bareiss, "Sylvester's identity and multistep
    integer-preserving Gaussian elimination", 1968); rows with x_c = 0 are
    rescaled by p / D all the same, which keeps them on a common scale.
    """
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
    return p


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank: the pivot count of the integerized rows."""
    return len(gauss_jordan(integerize(r) for r in rows)[1])


def row_space_basis(rows: Sequence[Sequence]) -> Matrix:
    """The nonzero rows of the reduced row echelon form."""
    D, pivots, m, _ = gauss_jordan(integerize(r) for r in rows)
    return tuple(tuple(Fraction(x, D) for x in m[r]) for r in range(len(pivots)))


def _kernel(rows: Iterable[Sequence[int]], n: int) -> tuple[list[int], list[tuple[int, ...]]]:
    """(pivots, basis): the pivot columns of one elimination of an integer
    matrix, and its null space basis read off the reduced row echelon form,
    one primitive vector per free column j, positive in column j and 0 in
    the other free columns."""
    D, pivots, m, _ = gauss_jordan(rows)
    basis = []
    for j in range(n):
        if j in pivots:
            continue
        v = [0] * n
        v[j] = D
        for row, pc in zip(m, pivots):
            v[pc] = -row[j]
        basis.append(primitive(v if D > 0 else [-x for x in v]))
    return pivots, basis


def nullspace(rows: Sequence[Sequence], n: Optional[int] = None) -> Matrix:
    """Basis of {x : A x = 0}, one vector per free column, read off the
    reduced row echelon form."""
    if n is None:
        n = len(rows[0]) if rows else 0
    pivots, basis = _kernel((integerize(r) for r in rows), n)
    free = [j for j in range(n) if j not in pivots]
    return tuple(tuple(Fraction(x, v[j]) for x in v) for v, j in zip(basis, free))


def integer_nullspace(rows: Iterable[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    """nullspace of an integer matrix with each basis vector scaled by a
    positive factor to a primitive integer vector."""
    return _kernel(rows, n)[1]


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
    rows = list(rows)
    # A and U as lists of columns, so that a column operation is a list one
    A = [[row[j] for row in rows] for j in range(n)]
    U = [[int(i == j) for i in range(n)] for j in range(n)]  # column ops tracker
    r = 0
    for i in range(len(rows)):
        # find a column with the smallest nonzero |entry| in row i, cols >= r
        while True:
            nz = [j for j in range(r, n) if A[j][i] != 0]
            if not nz:
                break
            jmin = min(nz, key=lambda j: abs(A[j][i]))
            if jmin != r:
                A[r], A[jmin] = A[jmin], A[r]
                U[r], U[jmin] = U[jmin], U[r]
            done = True
            for j in range(r + 1, n):
                if A[j][i] != 0:
                    q = A[j][i] // A[r][i]
                    A[j] = [x - q * y for x, y in zip(A[j], A[r])]
                    U[j] = [x - q * y for x, y in zip(U[j], U[r])]
                    if A[j][i] != 0:
                        done = False
            if done:
                break
        if r < n and A[r][i] != 0:
            r += 1
        if r == n:
            break
    return [tuple(U[j]) for j in range(r, n) if not any(A[j])]


# ---------------------------------------------------------------------------
# Integer affine frame


def adjugate(M: Sequence[Sequence[int]]) -> tuple[int, list]:
    """(D, R) with M R = D I for a nonsingular square integer matrix M: the
    right block of the fraction-free elimination of [M | I]."""
    r = len(M)
    D, pivots, a, _ = gauss_jordan(
        (list(row) + [int(i == j) for j in range(r)] for i, row in enumerate(M)), stop=r)
    if len(pivots) < r:
        raise VerificationError("frame matrix is singular")
    return D, [row[r:] for row in a]


class _IntegerFrame:
    """Integer rows with exact integer coordinates over a greedy row basis.

    One fraction-free elimination of [X^t | I] makes the frame.  Its pivot
    columns are basis, the indices of the greedy maximal independent subset
    of the rows X (others holds the rest), and its left block gives coeffs,
    the integers with D * rows[j] == sum_b coeffs[j][b] * rows[basis[b]],
    checked for every j.  pivots are the pivot columns of the reduced
    echelon form of X_B.  The square matrix N = [rows[basis]; e_j for each
    non-pivot column j] is invertible, and R = D N^{-1} an integer matrix:
    when the rows span, N = X_B and R is the right block transposed, at the
    same D; otherwise R is made by adjugate on first read, and coeffs and D
    are rescaled to it.  images maps each relabeling checked on the frame to
    its verdict.

    packed[i] is row i as one int, entry c at bit c * w, so an identity
    between rows is one comparison of ints.  w is the bit length of
    2 max|x| (|D| + S), S the largest sum of |coefficient| over coeffs and
    the last row of R, so each digit of a difference between D x and such a
    combination of rows has size below 2^(w-1): the lowest nonzero digit of
    a nonzero difference is not a multiple of 2^w, and the packed difference
    is 0 exactly when every entry is.  Reading R repacks at the new D.
    """

    def __init__(self, rows: Sequence[Sequence[int]], ncols: int):
        self.rows = rows = [tuple(x) for x in rows]
        k = len(rows)
        self.D, basis, M, _ = gauss_jordan(
            ([r[i] for r in rows] + [int(i == j) for j in range(ncols)] for i in range(ncols)),
            stop=k)
        self.basis, r = tuple(basis), len(basis)
        self.others = tuple(sorted(set(range(k)) - set(basis)))
        self.coeffs = [tuple(row[j] for row in M[:r]) for j in range(k)]
        if r == ncols:
            self.pivots, self.units = tuple(range(r)), []
            self.R = list(zip(*(row[k:] for row in M)))
            self._pack(self.R[-1])
        else:
            self.pivots = tuple(gauss_jordan(rows[b] for b in basis)[1])
            self.units = [tuple(int(a == j) for a in range(ncols))
                          for j in range(ncols) if j not in self.pivots]
            self._pack(())
        if not self.keeps(range(k), range(k)):
            raise VerificationError("row outside the span of its frame basis")
        self.images: dict = {}

    def _pack(self, last: Sequence[int]) -> None:
        top = max((abs(x) for row in self.rows for x in row), default=0)
        s = max(sum(map(abs, lam)) for lam in (*self.coeffs, last))
        self.w = w = (2 * top * (abs(self.D) + s)).bit_length()
        self.packed = [sum(x << c * w for c, x in enumerate(row)) for row in self.rows]

    def keeps(self, img: Sequence[int], rows: Iterable[int]) -> bool:
        """Whether D X_img[j] == sum_b coeffs[j][b] X_img[basis[b]] for each
        j in rows: one sum of packed rows per row."""
        K, D, coeffs = self.packed, self.D, self.coeffs
        Kb = [K[img[b]] for b in self.basis]
        return all(D * K[img[j]] == sum(map(mul, coeffs[j], Kb)) for j in rows)

    @cached_property
    def R(self) -> list:
        D, R = adjugate([self.rows[b] for b in self.basis] + self.units)
        self.coeffs = [tuple(x * D // self.D for x in lam) for lam in self.coeffs]
        self.D = D
        self._pack(R[-1])
        return R


# ---------------------------------------------------------------------------
# Polyhedron representations


@dataclass(frozen=True)
class HPolyhedron:
    """Inequality description {x : A x <= b} with exact rational data.

    m and n, the row count and the dimension (0 with no rows), and int_rows,
    each row as the primitive integer (a_i | b_i), are set when P is built.
    of_rows makes P from its rows, as an H file's rows arrive, and A and b
    from them on first read, so a caller of int_rows alone builds neither.
    """
    A: Matrix
    b: Vector
    # 1-based indices of rows known to hold with equality on the whole set
    # (a file's linearity or _v_to_h's equalities, both through of_rows, or
    # those remove_redundancy finds).
    equality_rows: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.A) != len(self.b):
            raise PolyhedronError("row count mismatch between A and b")
        widths = {len(r) for r in self.A}
        if len(widths) > 1:
            raise PolyhedronError("ragged inequality matrix")
        self.__dict__.update(m=len(self.A), n=max(widths, default=0),
                             int_rows=tuple(primitive((*a, bb)) for a, bb in zip(self.A, self.b)))

    @classmethod
    def from_rows(cls, A: Iterable[Iterable], b: Iterable, equality_rows=()) -> "HPolyhedron":
        return cls(matrix(A), vector(b), tuple(equality_rows))

    @classmethod
    def of_rows(cls, rows: Sequence[Sequence], equality_rows=()) -> "HPolyhedron":
        """P from its rows (a_i | b_i), all of one width and each entry an
        int or a Fraction; equal to from_rows of the same A and b.  rows is
        kept as given, and A and b are made from it on first read."""
        P = cls.__new__(cls)
        P.__dict__.update(_rows=rows, equality_rows=tuple(equality_rows), m=len(rows),
                          n=len(rows[0]) - 1 if rows else 0, int_rows=tuple(map(primitive, rows)))
        return P

    def __getattr__(self, name):
        # reached only for what the instance lacks: A and b of a P made by
        # of_rows before their first read
        if name not in ("A", "b"):
            raise AttributeError(name)
        rows = self._rows
        self.__dict__.update(A=tuple(vector(r[:-1]) for r in rows), b=vector(r[-1] for r in rows))
        return self.__dict__[name]

    @cached_property
    def dd(self) -> tuple[VPolyhedron, tuple[int, ...]]:
        """convert_dd_incidence of P, its one double description; made once."""
        return _h_to_v(self)

    @cached_property
    def frame(self) -> _IntegerFrame:
        """The integer affine frame of int_rows, made once."""
        return _IntegerFrame(self.int_rows, self.n + 1)

    def contains(self, x: Sequence) -> bool:
        """Whether x satisfies every row, in integers: x = X / s and each row
        the primitive (a | b) of int_rows, a.X is compared with s b."""
        x = vector(x)
        if len(x) != self.n:
            raise PolyhedronError(
                f"point has {len(x)} coordinates, the polyhedron has dimension {self.n}")
        s, (xs,) = clear_denominators([x])
        eq = set(self.equality_rows)
        for i, (*a, b) in enumerate(self.int_rows, start=1):
            v = sum(map(mul, a, xs))
            if (v != s * b) if i in eq else (v > s * b):
                return False
        return True

    def dilate(self, factor) -> "HPolyhedron":
        """The dilate factor*P (factor > 0)."""
        f = frac(factor)
        if f <= 0:
            raise ValueError("dilation factor must be positive")
        return HPolyhedron(self.A, tuple(f * bb for bb in self.b), self.equality_rows)


@dataclass(frozen=True)
class VPolyhedron:
    """Generator description conv(vertices) + cone(rays)."""
    # k, n and int_points (s, s vertices, s rays), s the lcm of every
    # denominator, are set when V is built; of_points takes that integer form
    # from a conversion and makes the Fraction vertices on first read.
    vertices: Matrix
    rays: Matrix = ()

    def __post_init__(self):
        k = len(self.vertices)
        s, gens = clear_denominators((*self.vertices, *self.rays))
        self.__dict__.update(k=k, n=len((self.vertices or self.rays or [()])[0]),
                             int_points=(s, tuple(gens[:k]), tuple(gens[k:])))

    @classmethod
    def from_points(cls, points: Iterable[Iterable], rays: Iterable[Iterable] = ()) -> "VPolyhedron":
        return cls(matrix(points), matrix(rays))

    @classmethod
    def of_points(cls, s: int, points: Sequence[Sequence[int]],
                  rays: Sequence[Sequence[int]] = ()) -> "VPolyhedron":
        """V with vertices p / s and the given rays, for integer points p
        whose denominators have lcm s, and rays whose denominators divide s,
        as integer_h_to_v and a V file give them; equal to from_points of the
        same Fractions."""
        V = cls.__new__(cls)
        V.__dict__.update(rays=matrix(rays), k=len(points), n=len((points or rays or [()])[0]),
                          int_points=(s, tuple(points),
                                      tuple(tuple((s * x).numerator for x in r) for r in rays)))
        return V

    def __getattr__(self, name):
        # reached only for what the instance lacks: the vertices of a V made
        # by of_points before their first read
        if name != "vertices":
            raise AttributeError(name)
        s, pts, _ = self.int_points
        self.__dict__[name] = tuple(tuple(Fraction(x, s) for x in p) for p in pts)
        return self.__dict__[name]

    @cached_property
    def frame(self) -> _IntegerFrame:
        """The integer affine frame of the vertices (1, v), as (s, s v); made once."""
        s, pts, _ = self.int_points
        return _IntegerFrame([(s,) + p for p in pts], self.n + 1)


@dataclass(frozen=True)
class AffineMap:
    """x |-> A x + t with invertible linear part."""
    A: Matrix
    t: Vector


# ---------------------------------------------------------------------------
# Exact linear programming (two-phase simplex with Bland's rule, pivoted on
# one fraction-free integer tableau)


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

    The variables are x = u - w with u, w >= 0, a slack per inequality row
    and an artificial per row whose slack cannot start the basis (an
    equality row, or a row with b < 0, which is negated).  The tableau is
    built from P.int_rows, each row the primitive integer (a | b), so the
    argmax depends only on the polyhedron and not on how its rows are
    scaled; a polyhedron with no rows is the whole space of c's dimension.
    It is pivoted in integers by _bareiss_step, as lrs pivots (Avis, "lrs:
    a revised implementation of the reverse search vertex enumeration
    algorithm", 2000).  A row that has been a pivot row holds D times its
    rational row, and any other row a fixed positive multiple of D times
    it, so signs and ratios read the integers directly and every entry is,
    up to sign, a minor of the first tableau.  The objective rows of both
    phases are rows of the same matrix that never pivot, so phase 2 starts
    priced out; only the returned point is rational.
    """
    c = vector(c)
    if not maximize:
        res = solve_lp(P, tuple(-x for x in c), maximize=True)
        if res.status == "optimal":
            return LPResult("optimal", -res.value, res.point)
        return res
    m, n = P.m, (P.n if P.m else len(c))    # no rows: the whole space of c
    if n != len(c):
        raise PolyhedronError("objective length does not match dimension")
    total = 2 * n + m                 # u, w and the slacks; then artificials
    eq = set(P.equality_rows)
    art = [i + 1 in eq or row[-1] < 0 for i, row in enumerate(P.int_rows)]
    k = sum(art)
    arts = iter(range(total, total + k))
    M: list[list[int]] = []
    basis: list[int] = []
    for i, (*a, bb) in enumerate(P.int_rows):
        g = -1 if bb < 0 else 1       # rows are negated to a nonnegative rhs
        row = [g * x for x in a] + [-g * x for x in a] + [0] * (m + k) + [g * bb]
        if i + 1 not in eq:
            row[2 * n + i] = g
        basis.append(next(arts) if art[i] else 2 * n + i)
        row[basis[-1]] = 1
        M.append(row)
    # row m: -c.x, minimized in phase 2; row m + 1: the sum of the
    # artificials, minimized in phase 1, with the basic ones priced out
    cs = list(integerize(c))
    M.append([-x for x in cs] + cs + [0] * (m + k + 1))
    D = 1
    if k:
        M.append([-sum(col) for col in zip(*(r for r, a in zip(M, art) if a))])
        M[-1][total:total + k] = [0] * k
        D, _ = _simplex(M, basis, D, m + 1, range(total + k))
        if M.pop()[-1]:
            return LPResult("infeasible")
        # drive leftover artificials out of the basis; such a row has rhs 0,
        # and is negated for a negative pivot so that D stays positive
        for i in range(m):
            if basis[i] >= total:
                col = next((j for j in range(total) if M[i][j]), None)
                if col is not None:
                    if M[i][col] < 0:
                        M[i] = [-x for x in M[i]]
                    D = _bareiss_step(M, i, col, D)
                    basis[i] = col
        # Rows still basic in an artificial are identically zero; harmless.
    D, bounded = _simplex(M, basis, D, m, range(total))  # artificials never re-enter
    if not bounded:
        return LPResult("unbounded")
    x = [0] * n
    for row, bcol in zip(M, basis):
        if bcol < n:
            x[bcol] += row[-1]
        elif bcol < 2 * n:
            x[bcol - n] -= row[-1]
    point = tuple(Fraction(v, D) for v in x)
    return LPResult("optimal", dot(c, point), point)


def _simplex(M: list[list[int]], basis: list[int], D: int, z: int, cols: range
             ) -> tuple[int, bool]:
    """Bland's rule on the integer tableau of solve_lp: minimize row z over
    the columns cols, pivoting only the rows of basis.  Returns (D, bounded).

    The entering column is the first with a negative entry in row z; the
    leaving row has the least ratio rhs_i / M[i][e] over M[i][e] > 0,
    compared crosswise in integers, ties to the smaller basis index.
    """
    while True:
        obj = M[z]
        e = next((j for j in cols if obj[j] < 0), None)
        if e is None:
            return D, True
        r = None
        for i in range(len(basis)):
            y = M[i][e]
            if y > 0:
                if r is None:
                    r = i
                    continue
                lhs, rhs = M[i][-1] * M[r][e], M[r][-1] * y
                if lhs < rhs or lhs == rhs and basis[i] < basis[r]:
                    r = i
        if r is None:
            return D, False
        D = _bareiss_step(M, r, e, D)
        basis[r] = e


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
    the rational combination, so the primitive results are the same.  The
    rays a row adds are the combine of each pair that adjacent_pairs yields.
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
            lin = [l if v == 0 else combine(abs(v0), l, -s0 * v, l0)
                   for i, (l, v) in enumerate(zip(lin, lin_vals)) if i != i0]
            r0 = l0 if v0 < 0 else tuple(-x for x in l0)
            # each projected ray once, first copy first, with its mask
            new = {}
            for r, m in zip(rays, masks):
                vr = sum(map(mul, a, r))
                rp = r if vr == 0 else combine(abs(v0), r, vr, r0)
                if any(rp):
                    new.setdefault(rp, m | 1 << t)
            rays, masks = [*new, r0], [*new.values(), (1 << t) - 1]
        else:
            vals = [sum(map(mul, a, r)) for r in rays]
            created = {}               # each new ray once, with its mask
            # a positive combination of two rays is tight exactly where both
            # are, and on the new row
            for p, q, z in adjacent_pairs(vals, masks, n - 2 - len(lin)):
                created.setdefault(combine(vals[q], rays[p], -vals[p], rays[q]), z | 1 << t)
            rays = [r for r, v in zip(rays, vals) if v <= 0] + [*created]
            masks = [m | (not v) << t for m, v in zip(masks, vals) if v <= 0] + [*created.values()]
    return lin, rays, masks


def adjacent_pairs(vals: Sequence[int], masks: Sequence[int], need: int
                   ) -> Iterator[tuple[int, int, int]]:
    """The pairs (p, q, z) with vals[p] < 0 < vals[q] that meet in a ridge,
    p-major in index order, z = masks[p] & masks[q]: z has at least need
    bits (the common tight rows of an adjacent pair in a cone in R^n have
    rank n - 2 - dim(lineality)) and no third mask holds it (Chernikov's
    rule; Fukuda-Prodon, "Double description method revisited", 1996)."""
    plus = [q for q, v in enumerate(vals) if v > 0]
    for p, v in enumerate(vals):
        if v < 0:
            for q in plus:
                z = masks[p] & masks[q]
                # masks p and q hold z, so no third does when fewer than three do
                if z.bit_count() >= need and next(
                        islice((m for m in masks if m & z == z), 2, None), None) is None:
                    yield p, q, z


def combine(p: int, u: tuple[int, ...], q: int, w: tuple[int, ...]) -> tuple[int, ...]:
    """The primitive form of p*u + q*w, for integer vectors and multipliers."""
    v = tuple(p * x + q * y for x, y in zip(u, w))
    g = gcd(*v)
    return v if g <= 1 else tuple(x // g for x in v)


def integer_h_to_v(rows: Sequence[Sequence[int]], n: int, equalities: Iterable[int] = ()
                   ) -> tuple[int, list[tuple[int, ...]], list[tuple[int, ...]], list[int]]:
    """Double description of {x in R^n : a.x <= b for each integer row
    (a | b)}, with a.x = b for the rows whose 1-based indices are listed in
    equalities, as HPolyhedron.equality_rows lists them.

    Returns (s, points, rays, masks), shaped like VPolyhedron.int_points:
    the vertices are the points over s, the lcm of their denominators, and
    the rays are primitive, a line coming as two opposite rays.  One mask
    per point and then per ray has bit i set when it is tight on rows[i]; a
    line is tight on every row.  An empty set has no points, and its rays
    then generate its recession cone {a.x <= 0}.  The cone is homogenized
    with x0 first: x0 >= 0, then each row as (-b | a), so that input row i
    is cone row i + 1, and last the negation of each equality row.
    """
    eq = set(equalities)
    cone_rows = [(-1,) + (0,) * n] + [(-bb, *a) for *a, bb in rows]   # x0 >= 0 first
    cone_rows += [(bb, *(-x for x in a)) for i, (*a, bb) in enumerate(rows, start=1) if i in eq]
    lin, gens, cmasks = dd_cone(cone_rows, n + 1)
    every = (1 << len(rows)) - 1
    masks = [m >> 1 & every for m in cmasks]
    verts = [j for j, g in enumerate(gens) if g[0]]
    recs = [j for j, g in enumerate(gens) if not g[0]]
    s = lcm(*(gens[j][0] for j in verts))
    points = [tuple(x * (s // gens[j][0]) for x in gens[j][1:]) for j in verts]
    rays = [gens[j][1:] for j in recs] + [d for l in lin for d in (l[1:], tuple(-x for x in l[1:]))]
    return s, points, rays, [masks[j] for j in verts + recs] + [every] * (2 * len(lin))


def integer_v_to_h(s: int, points: Sequence[Sequence[int]], rays: Sequence[Sequence[int]] = ()
                   ) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], list[int]]:
    """Facet rows of conv(points / s) + cone(rays), for integer points and
    rays as VPolyhedron.int_points gives them.

    Returns (equalities, inequalities, masks): primitive integer rows (a | b)
    of the hull equalities a.x = b and the facets a.x <= b.  masks[j] has
    bit t set when inequalities[j] is tight on element t of the points
    followed by the rays; an equality is tight on all of them.  The cone is
    homogenized with x0 last: s p + (-s) for a point, r + (0) for a ray.
    Every face of the set holds one of the points, so a ray of the cone
    tight on no point is dropped: it is the trivial row 0.x <= 1, which
    modulo the equalities may carry a nonzero a.  Raises
    EmptyPolyhedronError without a point.
    """
    if not points:
        raise EmptyPolyhedronError("no points given")
    on_point = (1 << len(points)) - 1
    lin, gens, masks = dd_cone([(*p, -s) for p in points] + [(*r, 0) for r in rays],
                               len(points[0]) + 1)
    facets = [j for j, m in enumerate(masks) if m & on_point]
    return lin, [gens[j] for j in facets], [masks[j] for j in facets]


def _h_to_v(P: HPolyhedron) -> tuple[VPolyhedron, tuple[int, ...]]:
    s, points, rays, masks = integer_h_to_v(P.int_rows, P.n, P.equality_rows)
    if not points:
        raise EmptyPolyhedronError("polyhedron has no points")
    return VPolyhedron.of_points(s, points, rays), tuple(masks)


def _v_to_h(V: VPolyhedron) -> tuple[HPolyhedron, tuple[int, ...]]:
    eqs, les, masks = integer_v_to_h(*V.int_points)
    H = HPolyhedron.of_rows(eqs + les, range(1, len(eqs) + 1))
    return H, ((1 << (V.k + len(V.rays))) - 1,) * len(eqs) + tuple(masks)


def convert_dd_incidence(P: Union[HPolyhedron, VPolyhedron]
                         ) -> tuple[Union[VPolyhedron, HPolyhedron], tuple[int, ...]]:
    """convert_dd(P) together with the incidence the conversion found.

    One mask per output element, with bit i set when the element is tight on
    input element i + 1.  For H input: one mask per vertex, then per ray of
    the result (a line comes as two opposite rays), over the rows of P; the
    pair is P.dd, made once per object.  For V input: one mask per row of
    the result, over the vertices and then the rays of P.  A vertex v is
    tight on row i when a_i.v = b_i, a ray r when a_i.r = 0, as in
    incidence().
    """
    if isinstance(P, HPolyhedron):
        return P.dd
    if isinstance(P, VPolyhedron):
        return _v_to_h(P)
    raise TypeError("expected an HPolyhedron or VPolyhedron")


def convert_dd(P: Union[HPolyhedron, VPolyhedron]) -> Union[VPolyhedron, HPolyhedron]:
    """Exact representation conversion; direction chosen by input type.

    Output is irredundant for each representation's notion of redundancy
    (extreme generators / facet rows modulo the lineality or hull equalities).
    """
    return convert_dd_incidence(P)[0]


def index_set(mask: int) -> tuple:
    """The 1-based indices of the set bits of a mask, in ascending order."""
    return tuple(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


# ---------------------------------------------------------------------------
# Incidence, affine hulls, redundancy


@dataclass(frozen=True)
class IncidenceData:
    """Which generators satisfy which rows with equality (exact zero test).

    Stored as per-row bitmasks over generator indices: bit j of
    row_masks[i - 1] is set when generator j + 1 is on row i, so
    index_set(row_masks[i - 1]) lists the 1-based generators of row i.
    """
    m: int
    k: int
    row_masks: tuple[int, ...]


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
    """aff = point + span(directions); dim = len(directions).  The
    coordinates of points in these directions come from hull_coordinates."""
    point: Vector
    directions: Matrix

    @property
    def dim(self) -> int:
        return len(self.directions)


def affine_hull(obj: Union[VPolyhedron, HPolyhedron, Sequence]) -> AffineHull:
    """Affine hull with an exact rational direction basis.

    Accepts a VPolyhedron, a plain point sequence, or an HPolyhedron.  For
    the latter, one double description of P gives the implicit equalities,
    the rows tight on every generator; their null space is the direction
    space (the unit rows when there is none), and the first vertex the base
    point.
    """
    if isinstance(obj, HPolyhedron):
        try:
            V, masks = obj.dd
        except EmptyPolyhedronError:
            raise EmptyPolyhedronError("empty polyhedron has no affine hull")
        on_all = reduce(and_, masks)
        eq_rows = [obj.A[i] for i in range(obj.m) if on_all >> i & 1]
        return AffineHull(V.vertices[0], nullspace(eq_rows, obj.n))
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


def hull_coordinates(points: Sequence[Sequence]) -> tuple[list, list[tuple], list[int]]:
    """(normals, coordinates, pivots) from one elimination of the
    differences p - points[0]: their integer_nullspace, the coordinates of
    every point p in the affine hull of the list, p = points[0] + y D for D
    the directions of affine_hull(points), and the pivot columns.
    affine_hull's directions are the rows of the reduced row echelon form of
    the differences, so the coordinates of p are the entries of p - points[0]
    at the pivots, ascending, integers for integer points; a row a.y <= b on
    them is g.x <= g.points[0] + b, g[pivots[i]] = a[i] and 0 elsewhere.
    """
    if not points:
        raise EmptyPolyhedronError("no points given")
    base = points[0]
    diffs = [tuple(map(sub, p, base)) for p in points]
    pivots, normals = _kernel((integerize(r) for r in diffs[1:]), len(base))
    return normals, [tuple(r[c] for c in pivots) for r in diffs], pivots


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
    first = {}                 # each row's first copy
    for i, key in enumerate(P.int_rows):
        first.setdefault(key, i)
    keep = [*first.values()]
    marked = {first[P.int_rows[i - 1]] for i in P.equality_rows}
    Q = P if len(keep) == P.m else HPolyhedron(   # no copy dropped: P and its int_rows
        tuple(P.A[i] for i in keep), tuple(P.b[i] for i in keep),
        tuple(j + 1 for j, i in enumerate(keep) if i in marked))
    try:
        V, masks = Q.dd
    except EmptyPolyhedronError:
        raise EmptyPolyhedronError("system is infeasible")
    equalities, active, _ = irredundant_rows(masks, Q.m, V.k)
    eqs = tuple(pos + 1 for pos, j in enumerate(active) if j in equalities)
    return HPolyhedron(tuple(Q.A[j] for j in active), tuple(Q.b[j] for j in active), eqs)


def irredundant_rows(masks: Sequence[int], m: int, vertices: int
                     ) -> tuple[frozenset, list, list]:
    """The roles of the m rows of a nonempty system, read off the masks of
    its double description (convert_dd_incidence of an H input: one mask per
    generator, the given number of vertices first).

    Returns (equalities, kept, tight): 0-based row indices, and per row the
    mask of the generators tight on it.  The implicit equalities are the
    rows tight on every generator.  kept lists them with every other row
    that is tight on some vertex and whose set of tight generators is not
    strictly inside that of another such row, so that it cuts out a facet;
    of the rows that cut out the same facet, the last is kept.
    """
    # tight[i]: the generators tight on row i, vertices in the low bits
    tight = [sum(1 << j for j, mask in enumerate(masks) if mask >> i & 1) for i in range(m)]
    every = (1 << len(masks)) - 1
    on_vertex = (1 << vertices) - 1
    equalities = frozenset(i for i, t in enumerate(tight) if t == every)
    rows = [t for t in tight if t != every]
    last = {t: i for i, t in enumerate(tight)}
    kept = [i for i, t in enumerate(tight) if i in equalities or (
        t & on_vertex and last[t] == i
        and not any(t | u == u and t != u for u in rows))]
    return equalities, kept, tight
