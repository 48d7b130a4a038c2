"""Per-layer tracing installed from outside the program.

The tracer replaces selected public functions and methods of
``twistedops`` with wrappers that record one span per call: a name id,
start, end and the index of the enclosing span.  Spans are kept in
compact arrays in memory and written out once, when the run ends.

Per name it also keeps calls, self time (the span minus the part its
child spans cover) and total time (counted only at the outermost active
call of that name, so recursion is not double counted).

``Scalar`` and ``LambdaPoly`` methods are deliberately not wrapped: they
run millions of times per workload, a wrapper would cost more than the
work it measures, and their cost already shows as the self time of the
``ZPoly`` operations that call them.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# (span name, module, owner class or None, attribute, reported fields)
TRACED = (
    ("ring.ZPoly.exact_div", "ring", "ZPoly", "exact_div", ("calls", "self_s")),
    ("ring.ZPoly.mul", "ring", "ZPoly", "__mul__", ("calls", "self_s")),
    ("ring.LocFn.init", "ring", "LocFn", "__init__", ("calls", "self_s")),
    ("ring.LocFn.add", "ring", "LocFn", "__add__", ("calls", "self_s")),
    ("ring.SuperFn.mul", "ring", "SuperFn", "__mul__", ("calls", "self_s")),
    ("ring.SuperFn.derivative", "ring", "SuperFn", "derivative", ("calls", "self_s")),
    ("weyl.DiffOp.compose", "weyl", "DiffOp", "compose", ("calls", "self_s", "total_s")),
    ("weyl.DiffOp.apply", "weyl", "DiffOp", "apply", ("calls", "self_s", "total_s")),
    ("weyl.fourier", "weyl", None, "fourier", ("calls", "total_s")),
    ("rep.pi_minus", "rep", None, "pi_minus", ("calls", "self_s")),
    ("rep.k_span", "rep", None, "k_span", ("total_s",)),
    ("rep.act_on_H", "rep", None, "act_on_H", ("calls", "total_s")),
    ("rep.SpanBasis.add", "rep", "SpanBasis", "add", ("calls", "self_s")),
    ("rep.SpanBasis.contains", "rep", "SpanBasis", "contains", ("calls", "self_s")),
    ("jordan.validate_structure", "jordan", None, "validate_structure", ("total_s",)),
    ("jordan.point_identities", "jordan", None, "point_identities", ("total_s",)),
    ("jordan.derivative_identities", "jordan", None, "derivative_identities", ("total_s",)),
    ("jordan.JordanAlgebra.product", "jordan", "JordanAlgebra", "product", ("calls", "self_s")),
    ("jordan.JordanAlgebra.triple", "jordan", "JordanAlgebra", "triple", ("calls", "self_s")),
    ("verify.run_suite", "verify", None, "run_suite", ()),
    ("moyal.pairing_table", "moyal", None, "pairing_table", ()),
    ("moyal.component_table", "moyal", None, "component_table", ()),
    ("moyal.circle", "moyal", None, "circle", ("calls", "total_s")),
    ("moyal.c_component", "moyal", None, "c_component", ("calls",)),
    ("moyal.symmetrize", "moyal", None, "symmetrize", ("calls", "self_s")),
    ("moyal.dequantize", "moyal", None, "dequantize", ("calls", "self_s")),
    ("moyal.WOp.mul", "moyal", "WOp", "__mul__", ("calls", "self_s")),
)

# names whose result or arguments feed a ratio metric
SUCCESS_SHARE = "ring.ZPoly.exact_div"   # share of calls returning a quotient
DISTINCT_SHARE = "moyal.circle"          # share of calls with a new argument pair


class Tracer:
    """Records spans for the wrapped callables until :meth:`uninstall`."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.successes = 0
        self.distinct: set = set()
        self._open: list[list] = []        # [span index, child seconds]
        self._active: list[int] = []       # per name: calls currently open
        self._restore: list[tuple] = []

    def install(self, package) -> None:
        import importlib

        for name, module, owner, attr, _ in TRACED:
            mod = importlib.import_module(f"{package.__name__}.{module}")
            target = getattr(mod, owner) if owner else mod
            original = getattr(target, attr)
            self._restore.append((target, attr, original))
            setattr(target, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        self._active.append(0)
        clock = time.perf_counter
        open_ = self._open
        active = self._active
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        span_name, span_start = self.span_name, self.span_start
        span_end, span_parent = self.span_end, self.span_parent
        tracer = self
        wants_success = name == SUCCESS_SHARE
        distinct = self.distinct if name == DISTINCT_SHARE else None

        def wrapper(*args, **kwargs):
            if distinct is not None:
                distinct.add(args)
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(open_[-1][0] if open_ else -1)
            span_end.append(0.0)
            frame = [idx, 0.0]
            open_.append(frame)
            active[nid] += 1
            start = clock()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span_end[idx] = end
                open_.pop()
                dur = end - start
                if open_:
                    open_[-1][1] += dur
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                active[nid] -= 1
                if not active[nid]:
                    total_s[nid] += dur
            if wants_success and result is not None:
                tracer.successes += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def layer_stats(self) -> dict:
        """Aggregates per traced name: calls, self_s, total_s."""
        return {
            name: {"calls": self.calls[i], "self_s": self.self_s[i], "total_s": self.total_s[i]}
            for i, name in enumerate(self.names)
        }

    def ratios(self) -> dict:
        div_calls = self.calls[self.names.index(SUCCESS_SHARE)]
        circle_calls = self.calls[self.names.index(DISTINCT_SHARE)]
        return {
            SUCCESS_SHARE + ".success_share": self.successes / div_calls if div_calls else 0.0,
            DISTINCT_SHARE + ".distinct_share": len(self.distinct) / circle_calls if circle_calls else 0.0,
        }

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def columns(self) -> dict:
        return {"name": self.span_name, "parent": self.span_parent,
                "start": self.span_start, "end": self.span_end}

    def write_spans(self, path) -> None:
        """Write every span: a JSON header line, then the raw columns, gzipped."""
        cols = self.columns()
        header = {
            "names": self.names,
            "count": self.span_count,
            "byteorder": sys.byteorder,
            "columns": [[key, col.typecode] for key, col in cols.items()],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in cols.values():
                fh.write(col.tobytes())


def read_spans(path) -> tuple[list[str], dict]:
    """Inverse of :meth:`Tracer.write_spans`: (names, {column: array})."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for key, code in header["columns"]:
            col = array(code)
            col.frombytes(fh.read(col.itemsize * header["count"]))
            if header["byteorder"] != sys.byteorder:
                col.byteswap()
            cols[key] = col
    return header["names"], cols
