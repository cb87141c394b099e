"""The calibration kernel: a fixed piece of exact arithmetic of the same kind
nearfree does (Fraction elimination, dict polynomials), timed in its own
interpreter, which never imports nearfree.

The benchmark's cores are shared with other machines' work, which slows
every piece of Python code alike by up to half for tens of seconds at a
time. `run.py` times this kernel between passes and rescales the program's
times by it, so a slow stretch of the host cancels while a change to the
program does not (this file does not depend on it).

Protocol: for every line read from stdin, run the kernel once and print its
time in seconds. Exits at end of input.
"""

import sys
from fractions import Fraction
from time import perf_counter

SIZE = 16  # the matrix is SIZE x SIZE
FORMS = 16  # linear forms multiplied together


def _numbers(count: int) -> list:
    """A fixed sequence of small integers in [-9, 9] (a linear congruential
    generator, so the kernel is the same on every run and Python version)."""
    state, out = 12345, []
    for _ in range(count):
        state = (1103515245 * state + 12345) % 2 ** 31
        out.append(state % 19 - 9)
    return out


MATRIX = [_numbers(SIZE * SIZE)[i * SIZE:(i + 1) * SIZE] for i in range(SIZE)]
LINEAR = [tuple(c or 1 for c in _numbers(3 * FORMS)[3 * i:3 * i + 3]) for i in range(FORMS)]


def rank(matrix) -> int:
    rows = [[Fraction(c) for c in row] for row in matrix]
    r = 0
    for c in range(SIZE):
        pivot = next((i for i in range(r, SIZE) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, SIZE):
            if rows[i][c]:
                factor = rows[i][c] / rows[r][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def expand(forms) -> dict:
    poly = {(0, 0, 0): 1}
    for form in forms:
        product: dict = {}
        for (i, j, k), c in poly.items():
            for exps, a in (((i + 1, j, k), form[0]), ((i, j + 1, k), form[1]),
                            ((i, j, k + 1), form[2])):
                product[exps] = product.get(exps, 0) + c * a
        poly = product
    return poly


def kernel() -> int:
    return rank(MATRIX) + len(expand(LINEAR))


def main() -> int:
    for _ in sys.stdin:
        t0 = perf_counter()
        kernel()
        print(perf_counter() - t0, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
