"""Outside-in span tracer for the ftcfd package.

The package's modules import each other's functions by name (``mcar`` binds
``select_J`` and ``project``, ``harness`` binds ``draw_sample`` and
``classify_and_test``, ...), so patching one module attribute misses most
calls. ``Tracer.install`` therefore wraps every public function once and
rebinds the wrapper on every ``ftcfd.*`` module attribute that holds the same
function object; ``Tracer.uninstall`` puts every original back.

Spans are kept in memory as ``[name, start, end, parent, info]`` lists (parent
is an index into the span list, -1 for a root) and written out by ``dump``.
Only the calling process is traced: spans made inside pool worker processes
stay there.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict

# Constructors traced as "<module>.<Class>.__init__" in addition to the
# public functions, so validation time per construction shows.
TRACED_CLASSES = (("ftcfd.core", "FunctionalSample"),)

_MARK = "_perfbench_wrapper"


def _array_bytes(obj) -> int:
    """Bytes of the numpy arrays an estimator handed back (.values or tuples)."""
    values = getattr(obj, "values", None)
    if values is not None and hasattr(values, "nbytes"):
        return int(values.nbytes)
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(o) for o in obj)
    return 0


def _info(name, args, result):
    """Small per-call payload some per-layer metrics need."""
    if name == "io.parse_sample_csv" and args and isinstance(args[0], str):
        return len(args[0])  # the CSV text is ASCII, so chars == bytes
    if name == "io.write_matrix_csv" and args:
        try:
            return os.path.getsize(args[0])
        except OSError:
            return 0
    if name.startswith("estimators."):
        return _array_bytes(result)
    if name == "cli.main" and args and args[0]:
        return args[0][0]  # the subcommand
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []  # (owner, attribute, original)
        self.wrapped = {}  # span name -> original object

    # -- installation -------------------------------------------------------

    @staticmethod
    def _modules():
        return {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "ftcfd" or name.startswith("ftcfd."))
        }

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = clock()
                stack.pop()
                span[4] = _info(name, args, result)

        wrapper.__wrapped__ = fn
        setattr(wrapper, _MARK, True)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        """Wrap every public ftcfd function and rebind it everywhere it is held."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        targets = {}  # id(original) -> (span name, original)
        for modname, mod in modules.items():
            short = modname.split(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == modname:
                    targets[id(obj)] = (f"{short}.{attr}", obj)
        wrappers = {key: self._wrap(name, obj) for key, (name, obj) in targets.items()}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, w)
        self.wrapped = {name: obj for name, obj in targets.values()}
        for modname, clsname in TRACED_CLASSES:
            cls = getattr(modules.get(modname), clsname, None)
            if cls is None:
                continue
            name = f"{modname.split('.', 1)[-1]}.{clsname}.__init__"
            original = cls.__dict__["__init__"]
            self._restore.append((cls, "__init__", original))
            setattr(cls, "__init__", self._wrap(name, original))
            self.wrapped[name] = original

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def leftover_wrappers(self):
        """Names of ftcfd attributes still bound to a tracer wrapper."""
        left = []
        for modname, mod in self._modules().items():
            for attr, obj in vars(mod).items():
                if getattr(obj, _MARK, False):
                    left.append(f"{modname}.{attr}")
                elif inspect.isclass(obj) and getattr(
                    obj.__dict__.get("__init__"), _MARK, False
                ):
                    left.append(f"{modname}.{attr}.__init__")
        return left

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the time covered by child spans.

        Children of one span run one after the other in this process, so
        their durations add up without overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[2] - s[1]) - child[i] for i, s in enumerate(self.spans)]

    def by_name(self):
        """name -> {"calls", "self" (list of seconds), "info" (list)}."""
        selfs = self.self_times()
        out = defaultdict(lambda: {"calls": 0, "self": [], "info": []})
        for span, st in zip(self.spans, selfs):
            rec = out[span[0]]
            rec["calls"] += 1
            rec["self"].append(st)
            rec["info"].append(span[4])
        return out

    def children_of(self, parent_prefix, child_prefix):
        """Spans named child_prefix* whose parent span is named parent_prefix*."""
        return [
            s
            for s in self.spans
            if s[3] >= 0
            and self.spans[s[3]][0].startswith(parent_prefix)
            and s[0].startswith(child_prefix)
        ]

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "info"],
                    "spans": self.spans,
                },
                fh,
            )
