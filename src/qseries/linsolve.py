"""Fraction-free linear solving over the polynomial ring: the reference oracle.

Bareiss elimination keeps every intermediate entry polynomial (each 2x2
minor divides exactly by the previous pivot), which controls coefficient
blowup compared to naive elimination in the fraction field.  Back
substitution happens in the fraction field and yields RatFunc entries.

No engine path calls it: qseries.bisection solves its triangular
functional-equation system by forward substitution.  It stays in the package
as the independent general solver that the tests check that solve against,
on random systems and on the catalog cases, and because the benchmark tracer
(perfbench/spans.py) names poly_solve_overdetermined as a layer.
"""

from __future__ import annotations

from qseries.polyring import Poly, RatFunc


def poly_solve_overdetermined(A, b):
    """Solve A*x = b for an R x C polynomial system with R >= C.

    Returns (solution, consistent).  When the pivoted subsystem determines a
    unique solution, the remaining equations are checked against it; any
    violation (including rank deficiency that leaves a variable free while
    some equation fails) yields consistent=False and an empty solution.
    """
    rows = len(A)
    if rows == 0:
        raise ValueError("empty system")
    cols = len(A[0])
    if not (rows >= cols >= 1):
        raise ValueError(f"need R >= C >= 1, got {rows}x{cols}")

    m = [[_as_poly(A[i][j]) for j in range(cols)] + [_as_poly(b[i])] for i in range(rows)]

    prev = Poly.const(1)
    piv_rows = []  # row index holding the pivot for each pivot column
    piv_cols = []
    r = 0
    for c in range(cols):
        p = None
        for i in range(r, rows):
            if not m[i][c].is_zero:
                p = i
                break
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
        pivot = m[r][c]
        for i in range(r + 1, rows):
            if all(m[i][j].is_zero for j in range(c, cols + 1)):
                continue
            head = m[i][c]
            for j in range(c, cols + 1):
                num = pivot * m[i][j] - head * m[r][j]
                m[i][j] = num.exact_div(prev) if prev.degree() > 0 or prev.lead() != 1 else num
        prev = pivot
        piv_rows.append(r)
        piv_cols.append(c)
        r += 1

    rank = len(piv_cols)
    free_cols = [c for c in range(cols) if c not in piv_cols]

    # Unpivoted rows must have reduced to 0 = 0.
    for i in range(rank, rows):
        if not m[i][cols].is_zero:
            return [], False

    # Back substitution in the fraction field over the pivoted subsystem.
    x = [RatFunc(0) for _ in range(cols)]
    for k in range(rank - 1, -1, -1):
        i, c = piv_rows[k], piv_cols[k]
        acc = RatFunc(m[i][cols])
        for j in range(c + 1, cols):
            if not m[i][j].is_zero and not x[j].is_zero:
                acc = acc - RatFunc(m[i][j]) * x[j]
        x[c] = acc / RatFunc(m[i][c])

    if free_cols:
        # The solution with free variables set to zero must satisfy the full
        # original system; otherwise the rank-deficient system is rejected.
        for i in range(rows):
            acc = RatFunc(0)
            for j in range(cols):
                aij = _as_poly(A[i][j])
                if not aij.is_zero and not x[j].is_zero:
                    acc = acc + RatFunc(aij) * x[j]
            if acc != RatFunc(_as_poly(b[i])):
                return [], False

    return x, True


def _as_poly(v):
    if isinstance(v, Poly):
        return v
    return Poly.const(v)
