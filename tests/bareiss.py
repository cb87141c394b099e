"""Bareiss elimination over Z[w], the tests' independent reference for
`nearfree.linalg.kernel_basis`.

Both take dense rows of Z[w] integer pairs (a, b) meaning a + b*w, the
rows that `support.sparse_rows` turns into the input of `kernel_basis`,
and leave them unchanged. `rank` runs Bareiss one-step fraction-free
elimination, which avoids gcd churn, and `exact_kernel` back-substitutes
fraction-free to the canonical kernel basis. Neither shares the modular arithmetic of `kernel_basis`.
"""

from math import gcd

from nearfree.errors import ToolkitError
from nearfree.field import pair_mul
from nearfree.linalg import Kernel


def _ediv_exact(x, y):
    xa, xb = x
    ya, yb = y
    if yb == 0:
        qa, ra = divmod(xa, ya)
        qb, rb = divmod(xb, ya)
        if ra or rb:
            raise ToolkitError("internal: fraction-free division left a remainder")
        return (qa, qb)
    # multiply by the conjugate, then divide by the integer norm
    na, nb = pair_mul(x, (ya - yb, -yb))
    n = ya * ya - ya * yb + yb * yb
    qa, ra = divmod(na, n)
    qb, rb = divmod(nb, n)
    if ra or rb:
        raise ToolkitError("internal: fraction-free division left a remainder")
    return (qa, qb)


def _bareiss(data: list, ncols: int):
    """Bareiss elimination of integer-pair rows, in place.

    Returns (pivot column list, echelon rows as integer pairs).
    """
    nrows = len(data)
    pivots = []
    prev = (1, 0)
    pr = 0
    for c in range(ncols):
        if pr >= nrows:
            break
        candidates = [i for i in range(pr, nrows) if data[i][c] != (0, 0)]
        if not candidates:
            continue
        best = min(candidates, key=lambda i: (sum(1 for e in data[i] if e != (0, 0)), i))
        if best != pr:
            data[pr], data[best] = data[best], data[pr]
        piv = data[pr][c]
        for i in range(pr + 1, nrows):
            row_i = data[i]
            row_p = data[pr]
            t = row_i[c]
            if t == (0, 0):
                for j in range(c + 1, ncols):
                    e = row_i[j]
                    if e != (0, 0):
                        row_i[j] = _ediv_exact(pair_mul(piv, e), prev)
            else:
                for j in range(c + 1, ncols):
                    ua, ub = pair_mul(piv, row_i[j])
                    va, vb = pair_mul(t, row_p[j])
                    row_i[j] = _ediv_exact((ua - va, ub - vb), prev)
                row_i[c] = (0, 0)
        pivots.append(c)
        prev = piv
        pr += 1
    return pivots, data[:len(pivots)]


def rank(rows: list) -> int:
    pivots, _ = _bareiss([list(row) for row in rows], len(rows[0]))
    return len(pivots)


def _bareiss_kernel(data: list, ncols: int) -> list:
    """Kernel vectors, one per free column, as Z[w] pairs up to scale.

    Back substitution keeps the vector up to a rational factor: solving
    pivot row i, x_pc = -(row i . x) / piv, multiplies the vector by the
    norm N(piv) and sets x_pc = -(row i . x) * conj(piv), so no division is
    needed; the vector is then divided by the gcd of its parts.
    """
    pivots, rows = _bareiss(data, ncols)
    pivot_set = set(pivots)
    basis = []
    for jf in (j for j in range(ncols) if j not in pivot_set):
        vec = [(0, 0)] * ncols
        vec[jf] = (1, 0)
        for pc, row in zip(reversed(pivots), reversed(rows)):
            if pc > jf:
                continue
            acc_a = acc_b = 0
            for j in range(pc + 1, jf + 1):
                if vec[j] != (0, 0) and row[j] != (0, 0):
                    a, b = pair_mul(row[j], vec[j])
                    acc_a, acc_b = acc_a + a, acc_b + b
            if acc_a or acc_b:
                pa, pb = row[pc]
                norm = pa * pa - pa * pb + pb * pb
                vec = [(a * norm, b * norm) for a, b in vec]
                vec[pc] = pair_mul((-acc_a, -acc_b), (pa - pb, -pb))
                g = gcd(*(n for x in vec for n in x))
                vec = [(a // g, b // g) for a, b in vec]
        basis.append(vec)
    return basis


def exact_kernel(rows: list) -> Kernel:
    """The canonical kernel basis of the rows by Bareiss elimination alone."""
    return Kernel(_bareiss_kernel([list(row) for row in rows], len(rows[0])),
                  "exact elimination")
