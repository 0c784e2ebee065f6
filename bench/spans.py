"""Outside-in span recorder for the corelat benchmark.

A Recorder wraps library functions from outside: for the length of a traced
phase it rebinds every global of every loaded ``corelat`` module that refers
to a wrapped function, so callers that bound the function with
``from .module import name`` are traced too.  Each span is
``[name, start, end, parent index]``; spans are kept in memory, written once
at the end of the run, and self time is derived from them.
"""

import functools
import json
import sys
import time
from collections import Counter


def _corelat_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "corelat" or name.startswith("corelat."))]


class Recorder:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []

    # -- spans opened by the benchmark itself -------------------------------

    def begin(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    # -- wrapping library functions -----------------------------------------

    def traced(self, name, fn, on_result=None):
        """fn wrapped in a span; on_result(result) runs after the span closes."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, counter, gen_fn):
        """A generator function wrapped so that every item it yields is counted."""
        counts = self.counts

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counts[counter] += 1
                yield item

        return wrapper

    def rebind(self, original, replacement):
        """Point every corelat global bound to original at replacement."""
        found = False
        for module in _corelat_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, key, replacement)
                    found = True
        if not found:
            raise LookupError(f"{original!r} is bound in no corelat module")

    def patch(self, target, key, value):
        """Set an attribute of a module, or an item of a dict, until restore()."""
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = value
        else:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def restore(self):
        while self._patches:
            target, key, value = self._patches.pop()
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)

    # -- derived figures ------------------------------------------------------

    def per_name(self):
        """{name: (calls, self seconds)} over all closed spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - child[i])
        return out

    def dump(self):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
                "counts": dict(self.counts)}


def write_spans(path, recorders):
    """Write every recorder's spans to one JSON file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({label: rec.dump() for label, rec in recorders.items()}, fh)
