"""Spans around calls into the program's modules, recorded from outside.

The program's modules import each other with ``from .x import y``, so a
call is wrapped under every name a caller looks it up by: the defining
module and each ``limitroots`` module that holds the same function object.
Methods are wrapped on their class.  Nothing in the program changes, and
``Tracer.restore`` puts every original back.

A span is ``[name, start, end, parent, note]``: ``parent`` is the index of
the enclosing span or -1, and ``note`` holds counts taken from the call's
arguments and result (``{"raised": <exception name>}`` if it raised).
Spans stay in memory until the run ends.
"""

import contextlib
import ctypes
import ctypes.util
import gc
import importlib
import os
import sys
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")
_LIBC = ctypes.CDLL(ctypes.util.find_library("c"))
_LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
_LIBC.malloc_trim.restype = ctypes.c_int


def rss_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


def settled_rss_bytes():
    """Resident size after freeing garbage and returning free heap to the OS,
    so that a call's growth does not depend on what earlier jobs left free."""
    gc.collect()
    _LIBC.malloc_trim(0)
    return rss_bytes()


def _count(args, kwargs, result):
    return {"count": len(result)}


def _kind(args, kwargs, result):
    return {"kind": result.kind.value}


def _dedup(args, kwargs, result):
    self, records = args[0], args[1]
    return {"images": len(records), "points": len(self)}


def _steps(args, kwargs, result):
    return {"steps": len(result)}


def _pairs(args, kwargs, result):
    n = len(args[1])
    spacelike = sum(1 for ci in result if ci.kind.value == "space-like")
    return {"pairs_tested": n * (n - 1) // 2, "spacelike": spacelike}


def _bytes(index):
    def note(args, kwargs, result):
        return {"bytes": os.path.getsize(args[index])}

    return note


# (span name, defining module, attribute, note, measure rss)
HOOKS = [
    ("geometry.make_system", "limitroots.geometry", "make_system", None, False),
    ("elements.enumerate_elements", "limitroots.elements", "enumerate_elements", _count, True),
    ("spectral.classify", "limitroots.spectral", "classify", _kind, False),
    ("limits.sample_limit_roots", "limitroots.limits", "sample_limit_roots", None, False),
    ("limits.dedup", "limitroots.limits", "PointSet.__init__", _dedup, False),
    ("limits.power_dynamics", "limitroots.limits", "power_dynamics", _steps, False),
    ("projective.to_chart", "limitroots.projective", "to_chart", None, False),
    ("arrangement.roots_by_depth", "limitroots.arrangement", "roots_by_depth", _count, False),
    ("arrangement.codim2_spacelike", "limitroots.arrangement", "codim2_spacelike", _pairs, False),
    ("arrangement.intersection_equals_unimodular", "limitroots.arrangement",
     "intersection_equals_unimodular", None, False),
    ("verify.run_suite", "limitroots.verify", "run_suite", None, False),
    ("io.write_pointset_csv", "limitroots.io", "write_pointset_csv", _bytes(1), False),
    ("io.write_pointset_json", "limitroots.io", "write_pointset_json", _bytes(1), False),
    ("io.manifest_add_output", "limitroots.io", "RunManifest.add_output", None, False),
    ("io.manifest_write", "limitroots.io", "RunManifest.write", _bytes(1), False),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []
        self.missing = []

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, None])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, name, fn, note, measure_rss):
        def traced(*args, **kwargs):
            rss0 = settled_rss_bytes() if measure_rss else 0
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                self.spans[idx][4] = {"raised": type(exc).__name__}
                raise
            self._close(idx)
            info = note(args, kwargs, result) if note else {}
            if measure_rss:
                info["rss_delta"] = rss_bytes() - rss0
            self.spans[idx][4] = info
            return result

        return traced

    def install(self, names):
        """Wrap the hooks in ``names``.

        A hook whose target the program no longer has is listed in
        ``missing`` and skipped, so its per-layer metrics read zero.
        """
        for name, modname, attr, note, measure_rss in HOOKS:
            if name not in names:
                continue
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.missing.append(name)
                continue
            owner_name, _, meth = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                fn = getattr(owner, meth, None) if owner is not None else None
                if fn is None:
                    self.missing.append(name)
                    continue
                self._set(owner, meth, self._wrapper(name, fn, note, measure_rss), fn)
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapped = self._wrapper(name, fn, note, measure_rss)
            for modname2, mod in list(sys.modules.items()):
                if modname2.split(".")[0] == "limitroots" and mod.__dict__.get(attr) is fn:
                    self._set(mod, attr, wrapped, fn)

    def _set(self, owner, attr, new, old):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def restore(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def self_times(self, lo=0, hi=None):
        """Self time of each span in ``spans[lo:hi]``: its duration minus the
        durations of its direct children."""
        hi = len(self.spans) if hi is None else hi
        dur = [s[2] - s[1] for s in self.spans[lo:hi]]
        own = list(dur)
        for k, s in enumerate(self.spans[lo:hi]):
            if s[3] >= lo:
                own[s[3] - lo] -= dur[k]
        return own

    def write(self, path):
        """Spans as tab-separated lines: index, name, start, end, parent, note."""
        with open(path, "w") as fh:
            for k, (name, start, end, parent, note) in enumerate(self.spans):
                fh.write(f"{k}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{note or ''}\n")
