"""In-memory span tracer for one ``bertini`` CLI call.

``Tracer.install()`` wraps the public functions listed in ``TARGETS`` at
every place they are bound: the defining module, every other
``bertinilab`` module that imported the function by name, and the class
for methods.  ``ffield``'s own internal calls resolve through its module
namespace, so they are wrapped too.  Each wrapped call records a span
(name id, parent span, start, end) in flat arrays; nothing is written
until the call is over.  Functions marked ``COUNT`` are too hot for a
span (its cost would land in the parent's self time), so only their calls
are counted.

``aggregate()`` turns the span arrays into per-name calls, self time and
total time.  Self time is a span's duration minus the time covered by its
child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

SPAN = "span"
COUNT = "count"

# (module, attribute path, kind); the metric prefix is "<module>.<path>".
TARGETS = (
    ("cli", "run", SPAN),
    ("cli", "render_report", SPAN),
    ("zetas", "local_zeta_inverse", SPAN),
    ("zetas", "closed_point_counts", SPAN),
    ("sampling", "uniform_box", SPAN),
    ("sampling", "uniform_residues", SPAN),
    ("sampling", "uniform_height_ball", SPAN),
    ("p1sections", "binary_section_report", SPAN),
    ("p1sections", "radical_fp", SPAN),
    ("p1sections", "distinct_degree_split", SPAN),
    ("ffield", "poly_divmod", SPAN),
    ("ffield", "poly_gcd", SPAN),
    ("ffield", "GF.__init__", SPAN),
    ("ffield", "GF.mul", COUNT),
    ("ffield", "GaloisRing.mul", SPAN),
    ("projgeom", "SchemeFiber.rational_points", SPAN),
    ("projgeom", "SchemeFiber.closed_points_up_to", SPAN),
    ("projgeom", "HomogeneousForm.eval_gf", SPAN),
    ("fiberlab", "FiberClassifier.__init__", SPAN),
    ("fiberlab", "lifted_point", SPAN),
    ("fiberlab", "FiberClassifier.census", SPAN),
    ("arithlab", "multi_fiber_experiment", SPAN),
    ("arithlab", "bsw_experiment", SPAN),
    ("arithlab", "discriminant", SPAN),
    ("arithlab", "maximality_scan", SPAN),
    ("arithlab", "dedekind_p_maximal", SPAN),
)


# Counters read off arguments and return values.  They run after the span
# has ended, so their cost is never inside a measured interval.

def _observe_section_report(counts, result, args):
    counts["p1sections.rescued_points"] += result.rescued


def _observe_census(counts, result, args):
    any_arith, _, rescued = result
    counts["fiberlab.census.rows"] += int(args[1].shape[0])
    counts["fiberlab.census.singular_rows"] += int(any_arith.sum())
    counts["fiberlab.census.rescued_points"] += int(rescued)


def _observe_closed_points(counts, result, args):
    for x in result:
        counts[f"projgeom.closed_points.deg{x.degree}"] += 1


def _observe_dedekind(counts, result, args):
    f, p = args[0], args[1]
    disc = args[2] if len(args) > 2 else None
    if disc is None:
        from bertinilab import arithlab
        disc = getattr(arithlab.discriminant, "__wrapped__", arithlab.discriminant)(f)
    if disc % (p * p) != 0:
        counts["arithlab.dedekind.shortcuts"] += 1


OBSERVERS = {
    "p1sections.binary_section_report": _observe_section_report,
    "fiberlab.FiberClassifier.census": _observe_census,
    "projgeom.SchemeFiber.closed_points_up_to": _observe_closed_points,
    "arithlab.dedekind_p_maximal": _observe_dedekind,
}


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = Counter()
        self._stack = [-1]
        self._restore = []

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def span_wrapper(self, name, fn):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        counts = self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(counts, result, args)
            return result

        return wrapper

    def count_wrapper(self, name, fn):
        key = name + ".calls"
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every target at every binding site in the loaded package."""
        import bertinilab
        import bertinilab.cli  # noqa: F401  (loads every submodule)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "bertinilab" or n.startswith("bertinilab."))]
        for mod_name, path, kind in TARGETS:
            name = f"{mod_name}.{path}"
            owner = getattr(bertinilab, mod_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = (self.span_wrapper if kind == SPAN else self.count_wrapper)(
                name, original)
            sites = [owner]
            if not cls_path:
                sites = [m for m in modules if m.__dict__.get(attr) is original]
            for site in sites:
                self._restore.append((site, attr, original))
                setattr(site, attr, wrapped)
        return self

    def uninstall(self):
        for site, attr, original in reversed(self._restore):
            setattr(site, attr, original)
        self._restore.clear()

    def save(self, path):
        """Write the spans and counters out (an uncompressed ``.npz``)."""
        np.savez(path,
                 names=np.array(self.names, dtype=str),
                 span_name=np.array(self.span_name, dtype=np.int32),
                 span_parent=np.array(self.span_parent, dtype=np.int32),
                 span_start=np.array(self.span_start, dtype=np.float64),
                 span_end=np.array(self.span_end, dtype=np.float64),
                 count_keys=np.array(list(self.counts), dtype=str),
                 count_values=np.array(list(self.counts.values()), dtype=np.int64))


def aggregate(names, span_name, span_parent, span_start, span_end):
    """{name: {"calls", "self_s", "total_s"}} from flat span arrays.

    ``span_parent[i]`` is the index of the span that was open when span
    ``i`` began, or -1.  Children lie inside their parent's interval and do
    not overlap each other, so a span's self time is its duration minus
    the sum of its children's durations.
    """
    span_name = np.asarray(span_name, dtype=np.int64)
    parent = np.asarray(span_parent, dtype=np.int64)
    dur = np.asarray(span_end, dtype=np.float64) - np.asarray(span_start, dtype=np.float64)
    covered = np.zeros(dur.shape[0])
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    own = dur - covered
    k = len(names)
    calls = np.bincount(span_name, minlength=k)
    self_s = np.bincount(span_name, weights=own, minlength=k)
    total_s = np.bincount(span_name, weights=dur, minlength=k)
    return {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                   "total_s": float(total_s[i])}
            for i, name in enumerate(names)}


def load(path):
    """(per-name span aggregate, counters) from a file written by ``save``."""
    with np.load(path) as z:
        spans = aggregate([str(n) for n in z["names"]], z["span_name"], z["span_parent"],
                          z["span_start"], z["span_end"])
        counts = dict(zip((str(k) for k in z["count_keys"]),
                          (int(v) for v in z["count_values"])))
    return spans, counts
