"""Spans and counters for the traced benchmark run.

A job process installs a :class:`Recorder` around public functions of the
package, runs the command line, and writes everything it recorded to one
file when it exits; the driver reads those files back with :func:`load`
and merges them with :func:`summarize`.

Two kinds of target are wrapped:

* spanned functions record one span per call: name, start, end, parent
  span, plus the time spent in counter-only calls made directly under it;
* counter-only functions (``Poly.__init__`` and friends, called hundreds of
  thousands of times per job) only add to a call count and a self time.

A span's self time is its duration minus the durations of its child spans
and of its direct counter-only calls; a counter's self time is its duration
minus everything wrapped that ran inside it.  Nothing is charged twice, so
the self times of one job add up to the time spent inside wrapped calls.

Targets are named ``module.function`` or ``module.Class.method``.  A module
function is replaced in every module of the package that binds it (the
package imports with ``from .linalg import rref``); a method is replaced
on its class, together with any alias such as ``__rmul__ = __mul__``.
A target that does not exist is reported as absent and left alone.
"""

import array
import functools
import importlib
import json
import sys
import time

#: Spanned functions, by module, bottom layer first.
SPANNED = {
    "poset": ["from_covers", "Poset.is_lower_eulerian"],
    "incidence": ["convolve", "invert", "solve_g", "solve_f", "z_function",
                  "validate_kernel", "is_multiplicative", "h_polynomial"],
    "subdivision": ["local_invariants", "check_theorem_g",
                    "check_corollary_f", "check_corollary_z",
                    "check_product_identities"],
    "linalg": ["rref", "solve_linear", "span_basis", "charpoly"],
    "fans": ["conv_contains", "cone_contains", "induced_charpoly",
             "fan_kernel", "cylinder_kernel"],
    "equivariant": ["PermAction.fixed_poset", "PermAction.conjugacy_classes",
                    "equiv_multiply", "equiv_solve_g", "equiv_solve_f",
                    "equiv_kernel_validate", "equiv_local_invariants",
                    "is_eulerian_action"],
    "ehrhart": ["LatticeSimplexComplex.__init__", "box_points",
                "ComplexCylinder.__init__", "hstar_from_subdivision",
                "ehr_series", "reciprocity_check"],
    "schemas": ["load_document", "build_complex", "build_fan",
                "load_kernel_file"],
    "verify": ["run_suite"],
    "cli": ["main"],
}

#: Counter-only functions: too many calls to keep a span for each.
COUNTED = {
    "polynomial": ["Poly.__init__", "Poly.__add__", "Poly.__mul__"],
    "equivariant": ["ClassPoly.__init__"],
}

#: Every module of the package, in layer order, for the per-module rollup.
MODULES = ["polynomial", "poset", "incidence", "subdivision", "linalg",
           "fans", "equivariant", "ehrhart", "schemas", "verify", "cli"]

REPEAT_TARGET = "incidence.solve_g"
HIT_TARGET = "fans.conv_contains"


def target_names():
    """(spanned, counted) lists of full target names, in layer order."""
    spanned = [f"{m}.{f}" for m in MODULES for f in SPANNED.get(m, [])]
    counted = [f"{m}.{f}" for m in MODULES for f in COUNTED.get(m, [])]
    return spanned, counted


class Recorder:
    """Spans and counts of one job process, held in memory until dump()."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counted = array.array("d")
        self.counts = {}
        # open calls: [span index or -1, name, start, span child time,
        #              counted child time]
        self._stack = []
        # distinct carrier posets of REPEAT_TARGET; True results of HIT_TARGET
        self.carriers = set()
        self.hits = 0

    def enter(self, name, spanned):
        now = self.clock()
        index = -1
        if spanned:
            index = len(self.start)
            self.name.append(name)
            self.parent.append(self._stack[-1][0] if self._stack else -1)
            self.start.append(now)
            self.end.append(now)
            self.counted.append(0.0)
        frame = [index, name, now, 0.0, 0.0]
        self._stack.append(frame)
        return frame

    def leave(self, frame):
        now = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("trace stack out of order")
        index, name, start, span_child, counted_child = frame
        duration = now - start
        if index >= 0:
            self.end[index] = now
            self.counted[index] = counted_child
        else:
            entry = self.counts.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += duration - span_child - counted_child
        if self._stack:
            self._stack[-1][3 if index >= 0 else 4] += duration

    def dump(self, path, job, absent):
        """Write the header line and the span arrays to ``path``."""
        counts = {self.names[k]: v for k, v in self.counts.items()}
        header = {"job": job, "names": self.names, "spans": len(self.start),
                  "counts": counts, "absent": absent,
                  "carriers": len(self.carriers), "hits": self.hits}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end,
                        self.counted):
                arr.tofile(fh)


def load(path):
    """Read one job's trace file.

    Returns (header, name, parent, start, end, counted).
    """
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "d", "d", "d"):
            arr = array.array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header, *arrays)


def _wrap(rec, full, fn, spanned):
    name = len(rec.names)
    rec.names.append(full)

    def wrapper(*args, **kwargs):
        frame = rec.enter(name, spanned)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leave(frame)

    inner = wrapper
    if full == REPEAT_TARGET:
        def wrapper(*args, **kwargs):
            rec.carriers.add(getattr(args[0], "poset", None) if args else None)
            return inner(*args, **kwargs)
    elif full == HIT_TARGET:
        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            rec.hits += result is True
            return result
    return functools.wraps(fn)(wrapper)


def _package_modules(package):
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == package
                                    or key.startswith(package + "."))]


def _install_one(rec, package, full, spanned):
    module_name, _, qualname = full.partition(".")
    try:
        module = importlib.import_module(f"{package}.{module_name}")
    except ImportError:
        return False
    owner_name, _, method = qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        fn = vars(owner).get(method) if isinstance(owner, type) else None
        if not callable(fn):
            return False
        wrapper = _wrap(rec, full, fn, spanned)
        for key, value in list(vars(owner).items()):
            if value is fn:
                setattr(owner, key, wrapper)
        return True
    fn = getattr(module, qualname, None)
    if not callable(fn):
        return False
    wrapper = _wrap(rec, full, fn, spanned)
    for mod in _package_modules(package):
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, wrapper)
    return True


def install(rec, spanned, counted, package="klspoly"):
    """Wrap every target that exists; return the names of those that don't."""
    absent = []
    for names, is_span in ((spanned, True), (counted, False)):
        for full in names:
            if not _install_one(rec, package, full, is_span):
                absent.append(full)
    return absent


def summarize(traces):
    """Merge loaded job traces into per-target calls and self seconds.

    Returns ``(calls, self_s, derived)``: two dicts keyed by target name and
    a dict of tallies summed over jobs (``carriers``, the distinct carrier
    posets of REPEAT_TARGET counted per job; ``hits``, the True results of
    HIT_TARGET) plus ``absent``, the union of the jobs' absent targets.
    """
    calls, self_s = {}, {}
    derived = {"carriers": 0, "hits": 0, "absent": set()}
    for header, name, parent, start, end, counted in traces:
        names = header["names"]
        own = [end[i] - start[i] - counted[i] for i in range(len(start))]
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= end[i] - start[i]
        for i, n in enumerate(name):
            key = names[n]
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + own[i]
        for key, (n_calls, seconds) in header["counts"].items():
            calls[key] = calls.get(key, 0) + n_calls
            self_s[key] = self_s.get(key, 0.0) + seconds
        for key in ("carriers", "hits"):
            derived[key] += header[key]
        derived["absent"].update(header["absent"])
    return calls, self_s, derived
