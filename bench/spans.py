"""Traced mode: spans around calls into iwagrowth's public functions.

The tracer wraps each function named in TARGETS at every place its callers
look it up: the global of every iwagrowth module bound to it, or the class
attribute for methods.  Spans stay in memory (name, start, end, parent span,
operation id) and are written out after the timed region; the per-layer
metrics are derived from them.  Nothing in the program is edited.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute path) of every traced function.
TARGETS = (
    ("polyres", "resultant"),
    ("iwapoly", "IwaPoly.__mul__"),
    ("iwapoly", "IwaPoly.__divmod__"),
    ("iwapoly", "ord_eps"),
    ("iwapoly", "phi_poly"),
    ("iwapoly", "omega"),
    ("padic", "is_odd_prime"),
    ("logmat", "h_matrix"),
    ("logmat", "h_entries"),
    ("logmat", "valuation_matrix"),
    ("logmat", "det_structure_check"),
    ("logmat", "m_convergence_gap"),
    ("logmat", "signature"),
    ("lattice", "witness"),
    ("lattice", "h_u_map"),
    ("kobayashi", "nabla_closed_form"),
    ("kobayashi", "nabla_resultant_oracle"),
    ("kobayashi", "nabla_snf_oracle"),
    ("kobayashi", "elementary_divisor_valuations"),
    ("growth", "sha_table"),
    ("cli", "main"),
)

# Per-layer metrics: name -> unit.  Names are "<module>.<function>.<kind>"
# with kind s (inclusive seconds), self_s (span minus child spans) or calls.
METRICS = {
    "polyres.resultant.calls": "count",
    "polyres.resultant.self_s": "s",
    "polyres.resultant.max_in_degree": "degree",
    "iwapoly.IwaPoly.__mul__.calls": "count",
    "iwapoly.IwaPoly.__mul__.self_s": "s",
    "iwapoly.IwaPoly.__divmod__.calls": "count",
    "iwapoly.IwaPoly.__divmod__.self_s": "s",
    "iwapoly.ord_eps.calls": "count",
    "iwapoly.ord_eps.s": "s",
    "iwapoly.phi_poly.s": "s",
    "iwapoly.omega.s": "s",
    "iwapoly.cache_entries": "count",
    "padic.is_odd_prime.calls": "count",
    "padic.is_odd_prime.self_s": "s",
    "logmat.h_matrix.s": "s",
    "logmat.h_entries.s": "s",
    "logmat.valuation_matrix.s": "s",
    "logmat.det_structure_check.s": "s",
    "logmat.m_convergence_gap.s": "s",
    "logmat.h_coeff_bits_max": "bits",
    "logmat.signature.calls": "count",
    "lattice.witness.s": "s",
    "lattice.h_u_map.s": "s",
    "kobayashi.nabla_closed_form.s": "s",
    "kobayashi.nabla_resultant_oracle.s": "s",
    "kobayashi.nabla_snf_oracle.s": "s",
    "kobayashi.elementary_divisor_valuations.calls": "count",
    "kobayashi.elementary_divisor_valuations.self_s": "s",
    "kobayashi.elementary_divisor_valuations.cells": "count",
    "kobayashi.snf_precision_retries": "count",
    "growth.sha_table.s": "s",
    "growth.sha_table.rows": "count",
    "cli.main.calls": "count",
    "cli.main.s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}


def _resolve(mod, path):
    obj = mod
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, path.split(".")[-1], obj


class Tracer:
    """Span recorder.  Single-threaded: spans nest through one stack."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.error: dict[int, str] = {}
        self.op_id = -1
        self.stack: list[int] = []
        # attributes read from arguments and results (see _PRE, _POST)
        self.resultant_degree = 0
        self.edv_cells = 0
        self.h_bits = 0
        self.table_rows = 0
        self.originals: dict[str, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, label: str, fn):
        nid = self.name_id.setdefault(label, len(self.names))
        if nid == len(self.names):
            self.names.append(label)
        pre = _PRE.get(label)
        post = _POST.get(label)
        clock = time.perf_counter
        stack = self.stack
        name, start, end, parent, op = self.name, self.start, self.end, self.parent, self.op

        def traced(*args, **kwargs):
            if pre is not None:
                pre(self, args)
            sid = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[sid] = clock()
                self.error[sid] = type(exc).__name__
                raise
            finally:
                stack.pop()
            end[sid] = clock()
            if post is not None:
                post(self, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        return traced

    def install(self):
        """Wrap every target in the module globals, module-level dicts (such
        as the CLI's method table) and class attributes that hold it."""
        for mod_name, _ in TARGETS:
            importlib.import_module(f"iwagrowth.{mod_name}")
        modules = [m for k, m in list(sys.modules.items())
                   if k == "iwagrowth" or k.startswith("iwagrowth.")]
        for mod_name, path in TARGETS:
            owner, attr, fn = _resolve(sys.modules[f"iwagrowth.{mod_name}"], path)
            label = f"{mod_name}.{path}"
            self.originals[label] = fn
            wrapper = self._wrap(label, fn)
            if isinstance(owner, type):
                self._patch(owner.__dict__, attr, wrapper, lambda k, v, o=owner: setattr(o, k, v))
                continue
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._patch(vars(m), key, wrapper, lambda k, v, m=m: setattr(m, k, v))
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is fn:
                                self._patch(val, k, wrapper, val.__setitem__)

    def _patch(self, space, key, wrapper, setter):
        self._restore.append((setter, key, space[key]))
        setter(key, wrapper)

    def uninstall(self):
        for setter, key, fn in reversed(self._restore):
            setter(key, fn)
        self._restore.clear()

    # -- derived metrics -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for sid in range(n):
            par = self.parent[sid]
            if par >= 0:
                child[par] += self.end[sid] - self.start[sid]
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        retries = 0
        snf = self.name_id.get("kobayashi.nabla_snf_oracle")
        for sid in range(n):
            label = self.names[self.name[sid]]
            dur = self.end[sid] - self.start[sid]
            calls[label] += 1
            self_s[label] += dur - child[sid]
            # inclusive time counts only the outermost span of a name
            par = self.parent[sid]
            while par >= 0 and self.name[par] != self.name[sid]:
                par = self.parent[par]
            if par < 0:
                incl[label] += dur
            if label == "kobayashi.elementary_divisor_valuations" \
                    and self.error.get(sid) == "PrecisionExhausted":
                par = self.parent[sid]
                while par >= 0 and self.name[par] != snf:
                    par = self.parent[par]
                retries += par >= 0
        cache_entries = 0
        for label in ("iwapoly.omega", "iwapoly.phi_poly"):
            info = getattr(self.originals.get(label), "cache_info", None)
            cache_entries += info().currsize if info else 0
        out: dict[str, float] = {}
        for metric in METRICS:
            label, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[label]
            elif kind == "s":
                out[metric] = incl[label]
            elif kind == "self_s":
                out[metric] = self_s[label]
        out["polyres.resultant.max_in_degree"] = self.resultant_degree
        out["iwapoly.cache_entries"] = cache_entries
        out["logmat.h_coeff_bits_max"] = self.h_bits
        out["kobayashi.elementary_divisor_valuations.cells"] = self.edv_cells
        out["kobayashi.snf_precision_retries"] = retries
        out["growth.sha_table.rows"] = self.table_rows
        return out

    def write(self, fh):
        """One line per span: id, parent, operation, name, start, end, error."""
        fh.write("id\tparent\top\tname\tstart\tend\terror\n")
        for sid in range(len(self.start)):
            fh.write(f"{sid}\t{self.parent[sid]}\t{self.op[sid]}\t"
                     f"{self.names[self.name[sid]]}\t{self.start[sid]:.9f}\t"
                     f"{self.end[sid]:.9f}\t{self.error.get(sid, '')}\n")


def _resultant_degree(tr, args):
    tr.resultant_degree = max(tr.resultant_degree, *(len(a) - 1 for a in args[:2]))


def _edv_cells(tr, args):
    rows = args[0]
    tr.edv_cells += len(rows) * (len(rows[0]) if rows else 0)


def _h_bits(tr, result):
    bits = max((abs(c).bit_length() for row in result.entries for e in row
                for c in e.coeffs), default=0)
    tr.h_bits = max(tr.h_bits, bits)


def _table_rows(tr, result):
    tr.table_rows += len(result)


# Attributes read from a call's arguments before the span starts, and from
# its result after the span ends, so that neither is counted in the span.
_PRE = {
    "polyres.resultant": _resultant_degree,
    "kobayashi.elementary_divisor_valuations": _edv_cells,
}
_POST = {
    "logmat.h_matrix": _h_bits,
    "growth.sha_table": _table_rows,
}
