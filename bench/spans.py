"""Span recorder that wraps ``tring``'s public functions from outside.

Every public function of a measured module is replaced, in every ``tring``
module namespace that refers to it, by a wrapper that records a span:
name, start, end and the span that was open when it was called.  Spans
stay in memory and are written out once, after the measured work.

Three solver helpers run once per inner iteration (a fit of a low-rank
ring makes hundreds of thousands of such calls) and never cross a module
boundary, so storing one span each would cost far more memory than the fit.  They are *inline*:
counted and timed on the span that called them, which keeps the parent's
self time exact without storing a span per call.  ``as_tensor`` is inline
for the same reason: it is a dtype coercion that every other function calls.
"""

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("images", "fileio", "graph", "tensor_ops", "ring", "solver", "metrics")
INLINE = {"solver.prox_step", "solver.search_point", "solver.alpha_next", "tensor_ops.as_tensor"}


class Tracer:
    """Records spans in memory; ``install`` patches ``tring``, ``uninstall`` undoes it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, covered child seconds]
        self.stack = []
        self.inline = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self._patches = []

    # -- recording -------------------------------------------------------
    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, 0.0])
        self.stack.append(len(self.spans) - 1)

    def end(self):
        idx = self.stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    @contextlib.contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def _wrap(self, name, fn):
        if name in INLINE:
            @functools.wraps(fn)
            def inline(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    rec = self.inline[name]
                    rec[0] += 1
                    rec[1] += dt
                    if self.stack:
                        self.spans[self.stack[-1]][4] += dt

            return inline

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return spanned

    # -- patching --------------------------------------------------------
    def install(self):
        """Wrap every public function of each layer module, wherever bound."""
        layer_mods = {layer: importlib.import_module(f"tring.{layer}") for layer in LAYERS}
        tring_mods = [m for n, m in sys.modules.items() if n == "tring" or n.startswith("tring.")]
        for layer, mod in layer_mods.items():
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                if not inspect.isfunction(fn):
                    continue
                wrapped = self._wrap(f"{layer}.{fname}", fn)
                for m in tring_mods:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapped)
                            self._patches.append((m, attr, fn))

    def uninstall(self):
        for m, attr, fn in reversed(self._patches):
            setattr(m, attr, fn)
        self._patches.clear()

    # -- reading ---------------------------------------------------------
    def totals(self, root):
        """Per-name ``[calls, seconds, self seconds]`` over spans below roots named ``root``."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        under = {}
        for i, (name, start, end, parent, covered) in enumerate(self.spans):
            inside = name == root if parent < 0 else under[parent]
            under[i] = inside
            if inside:
                rec = out[name]
                rec[0] += 1
                rec[1] += end - start
                rec[2] += end - start - covered
        return out

    def write(self, path):
        """One JSON line per span: name, start, end, parent index, self seconds."""
        with open(path, "w") as fh:
            for name, start, end, parent, covered in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "self": end - start - covered}) + "\n")
