"""Spans around the calls into each nearfree layer, recorded from outside.

`Tracer.install` replaces a function at the module attribute through which
the program calls it (for example `nearfree.criteria.kernel_basis`, which is
what `mdr` looks up) and `uninstall` puts the originals back. Spans stay in
memory as [name, start, end, parent, op, attrs] and are written out once,
when the run ends. Counting work after a call (matrix cells, bit sizes) is
itself recorded as a `trace.count` span, so it can be taken out of the
layer and self times.
"""

from __future__ import annotations

import json
import statistics
from math import comb
from time import perf_counter

BOOKKEEPING = "trace.count"


def _pairs(args, result):
    return {"pairs": comb(args[0].d, 2)}


def _f_terms(args, result):
    return {"f_terms": len(args[0].terms)}


def _matrix(args, result):
    nnz, bits = 0, 0
    for s in result.entries:
        if s:
            nnz += 1
            bits = max(bits, abs(s.a.numerator).bit_length(), s.a.denominator.bit_length(),
                       abs(s.b.numerator).bit_length(), s.b.denominator.bit_length())
    return {"cells": result.rows * result.cols, "nnz": nnz, "bits": bits,
            "shape": [result.rows, result.cols]}


def _kernel(args, result):
    return {"dim": len(result)}


# (module, attribute, span name, count hook): the names the program calls.
LAYERS = [
    ("nearfree.arrangement", "singular_points", "arrangement.lattice", _pairs),
    ("nearfree.arrangement", "defining_polynomial", "poly.expand", None),
    ("nearfree.arrangement", "parse_lines", "poly.parse", None),
    ("nearfree.cli", "parse_poly", "poly.parse", None),
    ("nearfree.criteria", "mdr", "criteria.mdr", _f_terms),
    ("nearfree.criteria", "relation_matrix", "criteria.matrix", _matrix),
    ("nearfree.criteria", "kernel_basis", "linalg.kernel", _kernel),
    ("nearfree.classify", "classify_all", "classify.sweep", None),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = None
        self._saved: list = []

    def wrap(self, fn, name, count=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                t0 = perf_counter()
                rec[5] = count(args, result)
                spans.append([BOOKKEEPING, t0, perf_counter(), rec[3], self.op, None])
            return result

        return traced

    def install(self, modules: dict):
        for mod_name, attr, name, count in LAYERS:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, count))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "attrs": attrs}) + "\n")


def layer_metrics(spans: list, op_kinds: dict) -> list:
    """Per-layer metrics of each traced pass, as a list of dicts.

    A span's op is (pass, index); op_kinds maps it to the op's kind, to count
    lattice builds per arrangement analyze and per deform.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    book = [0.0] * n  # bookkeeping time among each span's descendants
    for k, s in enumerate(spans):
        parent = s[3]
        if parent >= 0:
            child[parent] += dur[k]
        if s[0] == BOOKKEEPING:
            while parent >= 0:
                book[parent] += dur[k]
                parent = spans[parent][3]
    by_pass: dict = {}
    for k, s in enumerate(spans):
        by_pass.setdefault(s[4][0], []).append(k)
    return [_pass_metrics(spans, ks, dur, child, book, op_kinds) for _, ks in sorted(by_pass.items())]


def _pass_metrics(spans, ks, dur, child, book, op_kinds) -> dict:
    def of(name):
        return [k for k in ks if spans[k][0] == name]

    def busy(name):
        return sum(dur[k] - book[k] for k in of(name))

    def self_time(name):
        return sum(dur[k] - child[k] for k in of(name))

    def attr_sum(name, key):
        return sum(spans[k][5][key] for k in of(name))

    lattice = of("arrangement.lattice")
    pass_ops = {spans[k][4] for k in ks}

    def lattice_per(kind):
        ops = [op for op in pass_ops if op_kinds[op[1]] == kind]
        calls = sum(1 for k in lattice if op_kinds[spans[k][4][1]] == kind)
        return calls / len(ops) if ops else 0

    matrices = of("criteria.matrix")
    kernels = of("linalg.kernel")
    useful = [k for k in kernels if spans[k][5]["dim"]]
    kernel_s = busy("linalg.kernel")
    at_mdr = sum(dur[k] for k in useful)
    return {
        "arrangement.lattice_s": busy("arrangement.lattice"),
        "arrangement.lattice_calls": len(lattice),
        "arrangement.pairs": attr_sum("arrangement.lattice", "pairs"),
        "arrangement.lattice_calls.per_analyze": lattice_per("analyze"),
        "arrangement.lattice_calls.per_deform": lattice_per("deform"),
        "poly.expand_s": busy("poly.expand"),
        "poly.f_terms": attr_sum("criteria.mdr", "f_terms"),
        "poly.parse_s": busy("poly.parse"),
        "criteria.mdr_s": busy("criteria.mdr"),
        "criteria.mdr_self_s": self_time("criteria.mdr"),
        "criteria.matrix_s": busy("criteria.matrix"),
        "criteria.matrix_calls": len(matrices),
        "criteria.matrix_cells": attr_sum("criteria.matrix", "cells"),
        "criteria.matrix_nnz": attr_sum("criteria.matrix", "nnz"),
        "criteria.matrix_bits_max": max((spans[k][5]["bits"] for k in matrices), default=0),
        "linalg.kernel_s": kernel_s,
        "linalg.kernel_calls": len(kernels),
        "linalg.kernel_s.below_mdr": kernel_s - at_mdr,
        "linalg.kernel_s.at_mdr": at_mdr,
        "linalg.useful_ratio": len(useful) / len(kernels) if kernels else 0,
        "classify.sweep_s": busy("classify.sweep"),
        "cli.self_s": self_time("cli.main"),
    }


UNITS = {
    "arrangement.lattice_s": "s", "arrangement.lattice_calls": "count",
    "arrangement.pairs": "count", "arrangement.lattice_calls.per_analyze": "count",
    "arrangement.lattice_calls.per_deform": "count", "poly.expand_s": "s",
    "poly.f_terms": "count", "poly.parse_s": "s", "criteria.mdr_s": "s",
    "criteria.mdr_self_s": "s", "criteria.matrix_s": "s", "criteria.matrix_calls": "count",
    "criteria.matrix_cells": "count", "criteria.matrix_nnz": "count",
    "criteria.matrix_bits_max": "bits", "linalg.kernel_s": "s", "linalg.kernel_calls": "count",
    "linalg.kernel_s.below_mdr": "s", "linalg.kernel_s.at_mdr": "s",
    "linalg.useful_ratio": "ratio", "linalg.kernel_share": "ratio", "classify.sweep_s": "s",
    "cli.self_s": "s", "trace.overhead_s": "s", "host.calibration_s": "s",
}


def median_metrics(per_pass: list) -> dict:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
