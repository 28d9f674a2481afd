"""In-process span tracer for the bisoft layers.

Wraps every public function of the traced modules, plus the ``SoftSet``
constructor, and rebinds each wrapper in every ``bisoft`` namespace that
holds the original object (``search`` imports the checkers by name,
``space`` holds ``generate_topology``, the package root re-exports
everything).  Spans are aggregated in memory by (function, parent
function) into call count, total time and self time; nothing is written
until the caller asks for the table.

Generator functions are not spans: the items they yield are counted, and
the work of producing an item is charged to the function iterating over
it, which is where it sits on the call stack.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

MODULES = (
    "softset",
    "topology",
    "space",
    "bitopology",
    "axioms",
    "rough",
    "search",
    "fixtures",
    "cli",
)

# Public classes whose construction is a layer operation worth counting.
CONSTRUCTORS = {"softset": ("SoftSet",)}
# Functions whose mean result length is recorded.
SIZED = ("topology.generate_topology",)


class Tracer:
    def __init__(self):
        self.edges = {}  # (name, parent) -> [calls, total_s, self_s]
        self.items = {}  # generator name -> items yielded
        self.sizes = {}  # name -> [results measured, total result length]
        self._stack = []  # [name, child_s] per open span
        self._undo = []  # (owner, attribute, original)

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name):
        self._stack.append([name, 0.0])
        return perf_counter()

    def _exit(self, t0):
        dt = perf_counter() - t0
        name, child = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else ""
        rec = self.edges.get((name, parent))
        if rec is None:
            rec = self.edges[(name, parent)] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - child
        if self._stack:
            self._stack[-1][1] += dt

    def _wrap(self, name, fn, measure_len=False):
        enter, exit_ = self._enter, self._exit
        if inspect.isgeneratorfunction(fn):
            items = self.items
            items.setdefault(name, 0)

            def gen_wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    items[name] += 1
                    yield item

            return gen_wrapper

        if measure_len:
            sizes = self.sizes.setdefault(name, [0, 0])

            def sized_wrapper(*args, **kwargs):
                t0 = enter(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    exit_(t0)
                sizes[0] += 1
                sizes[1] += len(out)
                return out

            return sized_wrapper

        def wrapper(*args, **kwargs):
            t0 = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(t0)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap and rebind in every loaded bisoft module."""
        namespaces = [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == "bisoft" or n.startswith("bisoft."))
        ]
        originals = {}  # id(function) -> wrapper
        for short in MODULES:
            mod = sys.modules.get(f"bisoft.{short}")
            if mod is None:
                continue
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                originals[id(obj)] = self._wrap(name, obj, name in SIZED)
            for cls_name in CONSTRUCTORS.get(short, ()):
                cls = getattr(mod, cls_name)
                name = f"{short}.{cls_name}"
                self._undo.append((cls, "__init__", cls.__dict__["__init__"]))
                cls.__init__ = self._wrap(name, cls.__init__)
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def per_function(self):
        """name -> (calls, total_s, self_s); total excludes recursive re-entry."""
        out = {}
        for (name, parent), (calls, total, self_s) in self.edges.items():
            c, t, s = out.get(name, (0, 0.0, 0.0))
            out[name] = (c + calls, t + (total if parent != name else 0.0), s + self_s)
        return out

    def table(self):
        """Aggregated spans as text lines, heaviest self time first."""
        rows = sorted(self.edges.items(), key=lambda kv: -kv[1][2])
        lines = [f"{'function':<36} {'parent':<32} {'calls':>9} {'total_s':>9} {'self_s':>9}"]
        for (name, parent), (calls, total, self_s) in rows:
            lines.append(
                f"{name:<36} {parent or '-':<32} {calls:>9} {total:>9.4f} {self_s:>9.4f}"
            )
        return lines
