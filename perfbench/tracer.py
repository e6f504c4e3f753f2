"""In-process spans around zetalab's public functions.

`Tracer.install` wraps every public module-level function of the package at
every binding of it: the module that defines it and each module that
imported it by name (``moments.eval_grid`` and ``critline.eval_grid`` get
the same wrapper).  Spans live in flat arrays until the end of the run; self
time is a span's duration minus that of its direct children.  Work counts
are computed from the call arguments (or, for ``cli.main``, from the files it
wrote), not read from inside the program.

The spans form one stack, so the traced calls must all run on one thread:
the benchmark passes ``--workers 1`` to everything it calls.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import sys
import time
import types
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "zetalab"
TWO_PI = 2.0 * math.pi

# Height bands for the grid throughput figures: a call counts toward a band
# when its median height lies within half a decade of the band's centre.
BANDS = {"1e4": 1.0e4, "1e6": 1.0e6}

# Grid points per eval_grid call kept for the error-estimate check.
COVER_SAMPLES = 6


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_eval_grid(tr, args, kwargs, result, dur):
    t = np.asarray(_arg(args, kwargs, 0, "t"), dtype=float)
    key = hashlib.blake2b(t.tobytes(), digest_size=16).digest()
    tr.add("critline.eval_grid", "points", t.size)
    tr.add("critline.eval_grid", "main_terms", float(np.floor(np.sqrt(t / TWO_PI)).sum()))
    if key in tr.seen_grids:
        tr.add("critline.eval_grid", "repeat_points", t.size)
    else:
        tr.seen_grids.add(key)
        if t.size:
            idx = np.unique(np.linspace(0, t.size - 1, COVER_SAMPLES).astype(int))
            tr.cover[tr.pass_index].append((result.t[idx].copy(), result.Z[idx].copy(), result.est_abs_error))
    if t.size:
        mid = float(np.median(t))
        for band, centre in BANDS.items():
            if abs(math.log10(mid / centre)) < 0.5:
                tr.add("critline.eval_grid", f"band_points.{band}", t.size)
                tr.add("critline.eval_grid", f"band_s.{band}", dur)


def _count_size(qualname, counter, pos, name):
    def count(tr, args, kwargs, result, dur):
        tr.add(qualname, counter, np.size(_arg(args, kwargs, pos, name)))
    return count


def _count_moment_points(tr, args, kwargs, result, dur):
    grid = _arg(args, kwargs, 1, "grid")
    half = _arg(args, kwargs, 2, "grid_half")
    tr.add("moments.joint_moment_on_grids", "points", grid.t.size + half.t.size)


def _count_nodes(qualname, counter, power):
    def count(tr, args, kwargs, result, dur):
        cfg = _arg(args, kwargs, 2, "cfg")
        n = cfg.nodes_per_circle if cfg is not None else 0
        tr.add(qualname, counter, n**power)
    return count


def _count_term_points(tr, args, kwargs, result, dur):
    poly = _arg(args, kwargs, 0, "poly")
    tr.add("dirpoly.poly_eval_grid", "term_points", len(poly.coeffs) * np.size(_arg(args, kwargs, 1, "t")))


def _count_prime_points(tr, args, kwargs, result, dur):
    scheme = _arg(args, kwargs, 0, "scheme")
    j = _arg(args, kwargs, 1, "j")
    t = _arg(args, kwargs, 3, "t")
    tr.add("dirpoly.increment_series_eval", "prime_points", scheme.prime_range(j).size * np.size(t))


def _count_grid_bytes(tr, args, kwargs, result, dur):
    grid = _arg(args, kwargs, 0, "grid")
    tr.add("gridcache.write_grid", "bytes", 4 + 1 + 8 + 8 + 40 * grid.t.size)


def _count_cli_bytes(tr, args, kwargs, result, dur):
    argv = list(_arg(args, kwargs, 0, "argv") or [])
    total = 0
    for flag in ("--out", "--cache"):
        if flag in argv:
            path = Path(argv[argv.index(flag) + 1])
            if path.exists():
                total += path.stat().st_size
    tr.add("cli.main", "bytes_out", total)


# Work counters by span name; each runs after the call returns.
COUNTERS = {
    "critline.eval_grid": _count_eval_grid,
    "critline.zeta_em_vec": _count_size("critline.zeta_em_vec", "args", 0, "s"),
    "critline.zeta_em_line": _count_size("critline.zeta_em_line", "points", 0, "t"),
    "moments.joint_moment_on_grids": _count_moment_points,
    "twisted.contour_fourth_moment": _count_nodes("twisted.contour_fourth_moment", "nodes4", 4),
    "twisted.contour_second_moment": _count_nodes("twisted.contour_second_moment", "nodes2", 2),
    "dirpoly.poly_eval_grid": _count_term_points,
    "dirpoly.increment_series_eval": _count_prime_points,
    "inequality.check_interpolation": _count_size("inequality.check_interpolation", "heights", 0, "grid"),
    "gridcache.write_grid": _count_grid_bytes,
    "cli.main": _count_cli_bytes,
}


class Tracer:
    """Span recorder; one instance per run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_pass = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.pass_index = -1  # -1 is set-up
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.seen_grids: set[bytes] = set()
        # Per pass: (heights, Z, reported est_abs_error) of each new grid.
        self.cover: dict[int, list[tuple[np.ndarray, np.ndarray, float]]] = defaultdict(list)
        self._undo: list[tuple[types.ModuleType, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, qualname: str, counter: str, value: float) -> None:
        self.counts[self.pass_index][f"{qualname}.{counter}"] += value

    def begin_pass(self, index: int) -> None:
        self.pass_index = index
        self.seen_grids = set()

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_pass.append(self.pass_index)
        self.span_parent.append(self._stack[-1])
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        end = time.perf_counter()
        self._stack.pop()
        self.span_end[idx] = end
        return end - self.span_start[idx]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one operation."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, qualname: str):
        nid = self._name_id(qualname)
        count = COUNTERS.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._close(idx)
            tracer.add(qualname, "calls", 1)
            if count is not None:
                count(tracer, args, kwargs, result, dur)
            return result

        return wrapper

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType) or attr.startswith("_"):
                    continue
                owner = obj.__module__ or ""
                if not owner.startswith(PACKAGE + ".") or obj.__name__.startswith("_"):
                    continue
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    qualname = f"{owner.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrapper = wrappers[id(obj)] = self._wrap(obj, qualname)
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    # -- aggregation -----------------------------------------------------

    def self_times(self) -> dict[int, dict[str, float]]:
        """Self seconds by pass and span name."""
        start = np.frombuffer(self.span_start, dtype=float)
        end = np.frombuffer(self.span_end, dtype=float)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        names = np.frombuffer(self.span_name, dtype=np.int32)
        passes = np.frombuffer(self.span_pass, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for p, n, s in zip(passes.tolist(), names.tolist(), self_s.tolist()):
            out[p][self.names[n]] += s
        return out
