"""Exact sparse Gaussian elimination over the integers.

Rows are dicts {column: int}.  Elimination is fraction free: a target row is
replaced by an integer combination of itself and the pivot row, then divided
by the gcd of its entries, so coefficients stay small on incidence-type
matrices.  Pivots are chosen Markowitz-style: the pivot column has the fewest
active rows, found through a bucket queue of columns keyed by that count, and
the pivot row is its active row with the fewest entries, lowest index first.
Columns of equal count come in set iteration order, which for int keys
follows from the insertions and deletions alone, not from PYTHONHASHSEED, so
the pivots are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class SparseMatrix:
    """Integer sparse matrix held row-wise."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [dict(r) for r in rows] if rows is not None else [
            {} for _ in range(nrows)
        ]

    def column_vector(self, j) -> dict:
        return {i: r[j] for i, r in enumerate(self.rows) if j in r}

    def mul_vector(self, vec: dict) -> dict:
        """Matrix times sparse column vector {col: value}."""
        out = {}
        for i, row in enumerate(self.rows):
            s = sum(v * vec[j] for j, v in row.items() if j in vec)
            if s:
                out[i] = s
        return out

    def to_coordinate_text(self) -> str:
        lines = [f"{self.nrows} {self.ncols}"]
        for i, row in enumerate(self.rows):
            for j in sorted(row):
                lines.append(f"{i} {j} {row[j]}")
        return "\n".join(lines) + "\n"


class Elimination:
    """Result of eliminating a SparseMatrix.

    pivots is the ordered list of (row, column) pivot positions; rows holds
    the final reduced rows.  With full=True the reduction is Gauss-Jordan:
    each pivot column is nonzero only in its own pivot row, so every matrix
    column expands over pivot columns with coefficients read off the rows.
    """

    __slots__ = ("nrows", "ncols", "pivots", "rows", "full")

    def __init__(self, nrows, ncols, pivots, rows, full):
        self.nrows = nrows
        self.ncols = ncols
        self.pivots = pivots
        self.rows = rows
        self.full = full

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def pivot_columns(self) -> list[int]:
        return [c for _, c in self.pivots]

    def nullspace(self) -> list[dict]:
        """Sparse rational kernel vectors, one per non-pivot column."""
        if not self.full:
            raise ValueError("nullspace needs a full (Gauss-Jordan) run")
        pivot_cols = set(self.pivot_columns())
        vectors = []
        for j in range(self.ncols):
            if j in pivot_cols:
                continue
            vec = {j: Fraction(1)}
            for r, c in self.pivots:
                coeff = self.rows[r].get(j)
                if coeff:
                    vec[c] = -Fraction(coeff, self.rows[r][c])
            vectors.append(vec)
        return vectors


def _normalize(row: dict):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for j in row:
            row[j] //= g


def eliminate(matrix: SparseMatrix, full: bool = False) -> Elimination:
    """Row-eliminate a copy of matrix; full=True also clears above pivots."""
    rows = [dict(r) for r in matrix.rows]
    col_rows: dict[int, set] = {}
    for i, row in enumerate(rows):
        for j in row:
            col_rows.setdefault(j, set()).add(i)
    active = [bool(row) for row in rows]
    # bucket queue: by_count[k] holds the columns with exactly k active rows,
    # and no column with a positive count sits below by_count[low]
    col_count = {j: len(s) for j, s in col_rows.items()}
    by_count = [set() for _ in range(max(col_count.values(), default=0) + 1)]
    for j, cnt in col_count.items():
        by_count[cnt].add(j)
    low = 1
    pivots = []

    def shift(j, step):
        nonlocal low
        cnt = col_count.get(j, 0)
        by_count[cnt].discard(j)
        cnt += step
        if cnt == len(by_count):
            by_count.append(set())
        by_count[cnt].add(j)
        col_count[j] = cnt
        if 0 < cnt < low:
            low = cnt

    def deactivate(i):
        if active[i]:
            active[i] = False
            for j in rows[i]:
                shift(j, -1)

    def add_entry(i, j):
        col_rows.setdefault(j, set()).add(i)
        if active[i]:
            shift(j, 1)

    def drop_entry(i, j):
        col_rows[j].discard(i)
        if active[i]:
            shift(j, -1)

    while True:
        while low < len(by_count) and not by_count[low]:
            low += 1
        if low == len(by_count):
            break
        c = next(iter(by_count[low]))
        r = min(
            (i for i in col_rows[c] if active[i]),
            key=lambda i: (len(rows[i]), i),
        )
        pivots.append((r, c))
        deactivate(r)
        piv_row = rows[r]
        piv_val = piv_row[c]
        targets = [i for i in col_rows[c] if i != r and (full or active[i])]
        for i in targets:
            row = rows[i]
            factor = row[c]
            g = gcd(piv_val, factor)
            a, b = piv_val // g, factor // g
            if a != 1:
                for j in row:
                    if j not in piv_row:
                        row[j] *= a
            for j, v in piv_row.items():
                new = a * row.get(j, 0) - b * v
                if new:
                    if j not in row:
                        add_entry(i, j)
                    row[j] = new
                elif j in row:
                    del row[j]
                    drop_entry(i, j)
            _normalize(row)
            if not row:
                deactivate(i)
    return Elimination(matrix.nrows, matrix.ncols, pivots, rows, full)


class RowReducer:
    """Incremental echelon form over Q for completing spanning sets.

    add() reduces a sparse rational vector against the rows seen so far and
    keeps it when independent; returns True exactly then.
    """

    def __init__(self):
        self.echelon: dict[int, dict] = {}  # pivot column -> reduced row

    def add(self, vec: dict) -> bool:
        vec = {j: Fraction(v) for j, v in vec.items() if v}
        while vec:
            j = min(vec)
            row = self.echelon.get(j)
            if row is None:
                scale = vec[j]
                self.echelon[j] = {k: v / scale for k, v in vec.items()}
                return True
            factor = vec[j]
            for k, v in row.items():
                new = vec.get(k, Fraction(0)) - factor * v
                if new:
                    vec[k] = new
                else:
                    vec.pop(k, None)
        return False

    @property
    def rank(self) -> int:
        return len(self.echelon)
