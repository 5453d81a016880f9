"""Exact chain-complex linear algebra.

Boundary matrices, sparse integer Smith normal form with transformation
certificates, ranks over ℤ, ℚ and prime fields, kernels, exact solves and
simplicial homology with torsion.  All arithmetic is exact (Python integers).

One elimination kernel, `_eliminate`, serves every ring: it walks the
columns, eliminates unit pivots (±1 over ℤ, any nonzero entry mod p) and,
over ℤ, hands the non-unit residual to a small Smith form that records pivot
positions instead of swapping (the reduce-then-Smith scheme of Dumas,
Heckenbach, Saunders and Welker).  Ranks over ℚ are ranks over ℤ.  With
tracking on, it also keeps the certificates U (by rows) and V (by columns)
used by `smith_normal_form`, which checks U·M·V = diag(d), `kernel_basis`
and `solve_exact`.

With rows F pivoted first, `_eliminate` gives the rank of F and the
invariant factors of the other rows on ker F.  Homology of the chains on a
set of cells with boundary on the cells (`homology_of_allowable_chains`,
plain homology with every face a cell, IH with the allowable simplices)
runs one loop, `_reduce`, from the top degree down, and clears (Chen–Kerber,
*Persistent homology computation with a twist*).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from .complexes import Simplex, SimplicialComplex
from .errors import DimensionOutOfRange, UnsupportedCoefficients


@dataclass(frozen=True)
class Ring:
    kind: str  # "Z", "Q" or "Fp"
    p: Optional[int] = None

    def __str__(self):
        if self.kind == "Fp":
            return f"F{self.p}"
        return self.kind


ZZ = Ring("Z")
QQ = Ring("Q")


# Moduli must lie below this bound; Miller–Rabin with the prime bases up to
# 37 decides primality exactly there.
MODULUS_BOUND = 2**64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller–Rabin, exact for p < 2⁶⁴."""
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def GF(p: int) -> Ring:
    if p >= MODULUS_BOUND:
        raise UnsupportedCoefficients(f"modulus {p} is not below 2^64")
    if not _is_prime(p):
        raise UnsupportedCoefficients(f"{p} is not prime")
    return Ring("Fp", p)


def parse_ring(text: str) -> Ring:
    t = text.strip().upper()
    if t in ("Z", "ZZ"):
        return ZZ
    if t in ("Q", "QQ"):
        return QQ
    digits = t[1:]
    if t[:1] in ("F", "Z") and digits.isdecimal():
        # Read no more digits than a modulus below 2^64 can have.
        if len(digits.lstrip("0")) > len(str(MODULUS_BOUND)):
            raise UnsupportedCoefficients(f"a modulus of {len(digits)} digits is not below 2^64")
        return GF(int(digits))
    raise UnsupportedCoefficients(f"unknown ring {text!r}")


@dataclass(frozen=True)
class SparseMatrix:
    nrows: int
    ncols: int
    entries: Dict[Tuple[int, int], int] = field(hash=False)

    def __post_init__(self):
        for (r, c), v in self.entries.items():
            if v == 0:
                raise ValueError("explicit zero entry")
            if not (0 <= r < self.nrows and 0 <= c < self.ncols):
                raise ValueError("entry out of range")

    def times(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        rows: Dict[int, Dict[int, int]] = {}
        other_rows: Dict[int, Dict[int, int]] = {}
        for (r, c), v in other.entries.items():
            other_rows.setdefault(r, {})[c] = v
        for (r, k), v in self.entries.items():
            if k in other_rows:
                row = rows.setdefault(r, {})
                for c, w in other_rows[k].items():
                    row[c] = row.get(c, 0) + v * w
        entries = {
            (r, c): v for r, row in rows.items() for c, v in row.items() if v != 0
        }
        return SparseMatrix(self.nrows, other.ncols, entries)


def identity_matrix(n: int) -> SparseMatrix:
    return SparseMatrix(n, n, {(i, i): 1 for i in range(n)})


def _axpy(dst: Dict[int, int], src: Dict[int, int], q: int) -> None:
    """dst −= q·src for sparse vectors kept as dicts."""
    for k, w in src.items():
        nv = dst.get(k, 0) - q * w
        if nv:
            dst[k] = nv
        else:
            del dst[k]


def _row_sub(rows, cols, r: int, src: Dict[int, int], q: int, p: Optional[int] = None):
    """rows[r] −= q·src (mod p), keeping the column index cols in step."""
    row = rows[r]
    for c, w in src.items():
        nv = row.get(c, 0) - q * w
        if p:
            nv %= p
        if nv:
            if c not in row:
                cols[c].add(r)
            row[c] = nv
        else:
            del row[c]
            cols[c].discard(r)
    if not row:
        del rows[r]


class _Reduction(NamedTuple):
    """What `_eliminate` reports."""

    diag: List[int]  # invariant factors, 1s of the unit pivots first (see `_eliminate`)
    unit_rows: List[int]  # rows of the unit pivots, in the order taken
    first_rank: int  # rank of the rows pivoted first
    U: Optional[SparseMatrix]
    V: Optional[SparseMatrix]


def _eliminate(
    M: SparseMatrix, p: Optional[int] = None, track: bool = False, first: frozenset = frozenset()
) -> _Reduction:
    """The elimination kernel over ℤ (p None) or 𝔽ₚ.

    Walking the columns in order, a unit entry of the column (±1 over ℤ, any
    nonzero entry mod p) in the shortest row becomes a pivot: row operations
    clear the rest of its column, and its row and column are dropped.  Each
    such step is unimodular and contributes a factor 1.  Over ℤ the non-unit
    residual goes to `_smith_residual`; mod p nothing is left, and only
    len(diag), the rank, is meaningful.

    The rows F in `first` are pivoted first: a column with an entry in a
    remaining row of F takes its pivot only among those rows, and over ℤ
    leaves it to the residual when none of those entries is a unit.  Then
    diag is the invariant factors of the other rows G on ker F, that is of
    G·kernel_basis(F), and first_rank = rank F, so len(diag) + first_rank =
    rank M.  Why: a pivot in F adds rows of F to others, which keeps G on
    ker F, and a pivot in G has no entry of F in its column.  So a unit
    pivot in F removes a column through the kernel constraint and adds no
    factor, one in G adds a factor 1, and the residual, zero on the pivot
    columns, takes kernel_basis of its F rows, then the Smith form of its G
    rows on that kernel.  Track is for F empty only.

    With track, U is kept by rows and V by columns.  A pivot's column holds
    only the pivot once it is cleared, so the column operations that clear
    its row change V alone, one V column each.  Pivots are recorded, not
    swapped: U and V list the pivot rows and columns first, so that
    U·M·V = diag(d).
    """
    rows: Dict[int, Dict[int, int]] = {}
    cols: Dict[int, set] = {}
    for (r, c), v in M.entries.items():
        if p:
            v %= p
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)
    U = {r: {r: 1} for r in range(M.nrows)} if track else None
    V = {c: {c: 1} for c in range(M.ncols)} if track else None
    pivots: List[Tuple[int, int, int]] = []
    for c in range(M.ncols):
        col = cols.get(c)
        if not col:
            continue
        units = [r for r in col & first or col if p or rows[r][c] in (1, -1)]
        if not units:
            continue
        pivot = min(units, key=lambda r: (len(rows[r]), r))
        prow = rows.pop(pivot)
        v = prow.pop(c)
        inv = pow(v, -1, p) if p else v
        for r in col:
            if r != pivot:
                q = rows[r].pop(c) * inv
                _row_sub(rows, cols, r, prow, q, p)
                if track:
                    _axpy(U[r], U[pivot], q)
        if track:
            for cc, w in prow.items():
                _axpy(V[cc], V[c], w * inv)
        for cc in prow:
            cols[cc].discard(pivot)
        del cols[c]
        pivots.append((pivot, c, v))
    unit_rows = [r for r, _c, _v in pivots]
    first_rank = sum(r in first for r in unit_rows)
    if rows.keys() & first:
        blocks: Tuple[dict, dict] = ({}, {})
        for r, row in rows.items():
            blocks[r in first].update(((r, c), v) for c, v in row.items())
        G, F = (SparseMatrix(M.nrows, M.ncols, b) for b in blocks)
        B = kernel_basis(F)
        diag = [1] * (len(unit_rows) - first_rank) + invariant_factors(G.times(B))
        return _Reduction(diag, unit_rows, first_rank + M.ncols - B.ncols, None, None)
    if rows:
        pivots += _smith_residual(rows, cols, U, V)
    diag = [abs(v) for r, _c, v in pivots if r not in first]
    if not track:
        return _Reduction(diag, unit_rows, first_rank, None, None)
    sign = {r: 1 if v > 0 else -1 for r, _c, v in pivots}
    order_r = [r for r, _c, _v in pivots]
    order_r += sorted(set(range(M.nrows)) - set(order_r))
    order_c = [c for _r, c, _v in pivots]
    order_c += sorted(set(range(M.ncols)) - set(order_c))
    Um = SparseMatrix(
        M.nrows,
        M.nrows,
        {(i, j): sign.get(r, 1) * w for i, r in enumerate(order_r) for j, w in U[r].items()},
    )
    Vm = SparseMatrix(
        M.ncols,
        M.ncols,
        {(j, i): w for i, c in enumerate(order_c) for j, w in V[c].items()},
    )
    return _Reduction(diag, unit_rows, first_rank, Um, Vm)


def _smith_residual(rows, cols, U=None, V=None) -> List[Tuple[int, int, int]]:
    """Smith form, in place, of the non-unit block left by `_eliminate`.

    Returns the pivots (row, column, value).  The pivot starts at an entry
    of least absolute value and moves to any smaller remainder left while
    its column (by row operations) or its row (by column operations) is
    cleared.  An entry of the block it does not divide is then added into
    its row.  So each pivot divides what is left and the values form a
    divisibility chain.
    """
    out = []
    while rows:
        r, c = min(
            ((r, c) for r, row in rows.items() for c in row),
            key=lambda rc: (abs(rows[rc[0]][rc[1]]), rc),
        )
        while True:
            v = rows[r][c]
            # Clear column c by row operations, then row r by column
            # operations; a remainder smaller than v becomes the pivot.
            for r2 in sorted(cols[c] - {r}):
                q = rows[r2][c] // v
                if q:
                    _row_sub(rows, cols, r2, rows[r], q)
                    if U is not None:
                        _axpy(U[r2], U[r], q)
                if c in rows.get(r2, ()):
                    r = r2
                    break
            else:
                for c2 in sorted(set(rows[r]) - {c}):
                    q = rows[r][c2] // v
                    if q:
                        # Column c holds only the pivot, so col c2 −= q·col c
                        # changes row r alone.
                        _row_sub(rows, cols, r, {c2: v}, q)
                        if V is not None:
                            _axpy(V[c2], V[c], q)
                    if c2 in rows[r]:
                        c = c2
                        break
                else:
                    bad = next(
                        (r2 for r2, row in rows.items() if any(w % v for w in row.values())),
                        None,
                    )
                    if bad is None:
                        break
                    _row_sub(rows, cols, r, rows[bad], -1)
                    if U is not None:
                        _axpy(U[r], U[bad], -1)
        out.append((r, c, v))
        del rows[r]
        del cols[c]
    return out


def smith_normal_form(M: SparseMatrix):
    """Invariant factors d₁|d₂|… plus certificates (U, V) with U·M·V = diag(d)."""
    diag, _units, _first, U, V = _eliminate(M, track=True)
    D = U.times(M).times(V)
    expect = {(i, i): d for i, d in enumerate(diag)}
    if D.entries != expect:
        raise AssertionError("Smith normal form certificate failed to verify")
    return diag, U, V


def invariant_factors(M: SparseMatrix) -> List[int]:
    """Nonzero invariant factors d₁|d₂|… of M, without certificates."""
    return _eliminate(M).diag


def rank_over(M: SparseMatrix, ring: Ring) -> int:
    return len(_eliminate(M, ring.p).diag)


def kernel_basis(M: SparseMatrix) -> SparseMatrix:
    """Basis (as columns) of the integer kernel of M; saturated by construction."""
    diag, _units, _first, _U, V = _eliminate(M, track=True)
    r = len(diag)
    entries = {(row, col - r): v for (row, col), v in V.entries.items() if col >= r}
    return SparseMatrix(M.ncols, M.ncols - r, entries)


def solve_exact(K: SparseMatrix, B: SparseMatrix) -> SparseMatrix:
    """Solve K·X = B over ℤ where K has full column rank; raises if unsolvable."""
    diag, _units, _first, U, V = _eliminate(K, track=True)
    r = len(diag)
    if r != K.ncols:
        raise ValueError("matrix does not have full column rank")
    UB = U.times(B)
    y_entries = {}
    for (row, col), v in UB.entries.items():
        if row >= r:
            raise ValueError("system is unsolvable over the integers")
        d = diag[row]
        if v % d != 0:
            raise ValueError("system is unsolvable over the integers")
        y_entries[(row, col)] = v // d
    Y = SparseMatrix(K.ncols, B.ncols, y_entries)
    return V.times(Y)


@dataclass(frozen=True)
class HomologyGroup:
    rank: int
    torsion: Tuple[int, ...] = ()

    def __str__(self):
        parts = []
        if self.rank:
            parts.append("Z" if self.rank == 1 else f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def boundary_matrix(
    K: SimplicialComplex,
    i: int,
    cols: Optional[List[Simplex]] = None,
    rows: Optional[List[Simplex]] = None,
) -> SparseMatrix:
    """Boundary ∂_i with signs from sorted vertex order; i = 0 maps to no rows.

    The columns are the i-simplices `cols` and the rows the (i−1)-simplices
    `rows`, all of them when None.
    """
    if i < 0 or i > K.dim:
        raise DimensionOutOfRange(f"no {i}-chains in a {K.dim}-complex")
    if rows is None:
        rows = K.faces_of_dim(i - 1) if i > 0 else []
    if cols is None:
        cols = K.faces_of_dim(i)
    row_index = {s: j for j, s in enumerate(rows)}
    entries = {}
    for c, s in enumerate(cols):
        for j in range(len(s)):
            r = row_index.get(s[:j] + s[j + 1 :])
            if r is not None:
                entries[(r, c)] = (-1) ** j
    return SparseMatrix(len(rows), len(cols), entries)


def _reduce(dims: List[int], boundary, ring: Ring) -> List[HomologyGroup]:
    """Homology of a free chain complex with dims[i] generators in degree i.

    boundary(i, drop) builds ∂_i without the columns in `drop` and returns
    it with its rows F to pivot first; its other rows G index the columns of
    ∂_{i−1}.  The chains are those with ∂ off F: H_i has rank dims[i] −
    rank ∂_i − rank(G_{i+1} on ker F_{i+1}), over ℤ with the torsion of the
    latter.  Clearing: ∂_{i−1} drops the rows R of the unit pivots of ∂_i in
    G.  The pivot block is unimodular and the other rows vanish on its
    columns, so each r ∈ R has an integral z with F z = 0 and G z = e_r + y,
    y off R up to r; by ∂∂z = 0 and induction from the last pivot, ∂e_r is
    in the span of the columns off R.  So ∂_{i−1} keeps its image lattice:
    its rank, the rank of F_{i−1} and the lattice of G_{i−1} on ker F_{i−1}.
    """
    top = len(dims) - 1
    reds = [_Reduction([], [], 0, None, None)] * (top + 2)
    drop: set = set()
    for i in range(top, 0, -1):
        M, first = boundary(i, drop)
        reds[i] = _eliminate(M, ring.p, first=first)
        drop = {r for r in reds[i].unit_rows if r not in first}
    out = []
    for i in range(top + 1):
        image = reds[i + 1].diag  # of G_{i+1} on ker F_{i+1}
        rank = dims[i] - len(reds[i].diag) - reds[i].first_rank - len(image)
        out.append(HomologyGroup(rank, tuple(d for d in image if d > 1) if ring == ZZ else ()))
    return out


def homology_of_chain_complex(
    dims: List[int], boundaries: List[Optional[SparseMatrix]], ring: Ring
) -> List[HomologyGroup]:
    """Homology of a free chain complex; boundaries[i] maps degree i to i−1,
    None for a zero map.  ∂∂ = 0 must hold: `_reduce` clears."""

    def boundary(i, drop):
        M = boundaries[i] or SparseMatrix(0, 0, {})
        kept = {rc: v for rc, v in M.entries.items() if rc[1] not in drop}
        return SparseMatrix(M.nrows, M.ncols, kept), frozenset()

    return _reduce(dims, boundary, ring)


def homology_of_allowable_chains(
    K: SimplicialComplex, cells: List[List[Simplex]], ring: Ring
) -> List[HomologyGroup]:
    """Homology of the chains ξ on the i-simplices cells[i] with ∂ξ on
    cells[i−1]; ∂_i maps into cells[i−1] and then, pivoted first, the other
    (i−1)-faces of K.  With every face a cell this is the homology of K."""

    def boundary(i, drop):
        good = set(cells[i - 1])
        rows = cells[i - 1] + [s for s in K.faces_of_dim(i - 1) if s not in good]
        cols = [s for j, s in enumerate(cells[i]) if j not in drop]
        return boundary_matrix(K, i, cols, rows), frozenset(range(len(good), len(rows)))

    return _reduce([len(c) for c in cells], boundary, ring)


def homology(K: SimplicialComplex, ring: Ring = ZZ, reduced: bool = False) -> List[HomologyGroup]:
    """Simplicial homology in all degrees 0..dim K."""
    if K.is_empty():
        return []
    cells = [K.faces_of_dim(i) for i in range(K.dim + 1)]
    groups = homology_of_allowable_chains(K, cells, ring)
    if reduced and groups:
        g0 = groups[0]
        groups[0] = HomologyGroup(max(g0.rank - 1, 0), g0.torsion)
    return groups


def euler_characteristic(K: SimplicialComplex, mod2: bool = False) -> int:
    chi = K.euler_characteristic()
    return chi % 2 if mod2 else chi
