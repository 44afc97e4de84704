"""Per-layer tracing from outside the library.

`LayerTracer.install()` replaces every public function of the traced
`gaborinv` modules with a timing wrapper, in the defining module and in
every other `gaborinv` module that imported the same object by name, so
calls between modules pass through the wrappers too.  `uninstall()` puts
the originals back; untraced passes run on the unmodified library.

Accounting:

* `<layer>.calls` counts layer-boundary crossings: a call into a layer from
  the benchmark or from another layer.  Calls inside one layer are not
  spans of their own.
* `<layer>.busy_s` is self time: the clock between two trace events goes to
  the innermost open layer, so time spent in child spans of other layers is
  subtracted from the parent.
* `density.boxes_counted` counts outermost `count_in_box` calls on the
  point-set classes (a union counting its members is one box).
* `gabor.factorizations` / `gabor.factor_work` count dense SVDs and
  Hermitian eigendecompositions made while any layer is open, with work
  m*n*min(m, n) per m x n matrix.  The SVD inside scipy's
  `subspace_angles` (its `orth` and `svdvals`) is counted through scipy's
  own `svd`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np
import scipy.linalg._decomp_svd as scipy_svd_module

LAYERS = ("lattice", "density", "gabor", "invariance", "symplectic")


class LayerTracer:
    def __init__(self):
        self._patches = []  # (owner, attribute, original)
        self._stack = []
        self._last = 0.0
        self._box_depth = 0
        self.reset()

    def reset(self):
        self.calls = {layer: 0 for layer in LAYERS}
        self.busy = {layer: 0.0 for layer in LAYERS}
        self.boxes = 0
        self.factorizations = 0
        self.factor_work = 0

    # -- span bookkeeping ---------------------------------------------------
    def _enter(self, layer):
        now = time.perf_counter()
        if self._stack:
            self.busy[self._stack[-1]] += now - self._last
        if not self._stack or self._stack[-1] != layer:
            self.calls[layer] += 1
        self._stack.append(layer)
        self._last = now

    def _exit(self):
        now = time.perf_counter()
        self.busy[self._stack.pop()] += now - self._last
        self._last = now

    def _span(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return wrapper

    def _box(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._box_depth == 0:
                self.boxes += 1
            self._box_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._box_depth -= 1

        return wrapper

    def _factorization(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if self._stack:
                shape = np.shape(a)
                m, n = shape[-2], shape[-1]
                self.factorizations += 1
                self.factor_work += m * n * min(m, n)
            return fn(a, *args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------
    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        import gaborinv

        namespaces = [m for n, m in sys.modules.items() if n == "gaborinv" or n.startswith("gaborinv.")]
        for layer in LAYERS:
            module = getattr(gaborinv, layer)
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrapped = self._span(layer, obj)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, attr, wrapped)
        for cls in vars(gaborinv.density).values():
            if inspect.isclass(cls) and "count_in_box" in vars(cls):
                self._patch(cls, "count_in_box", self._box(vars(cls)["count_in_box"]))
        for name in ("svd", "eigh", "eigvalsh"):
            self._patch(np.linalg, name, self._factorization(getattr(np.linalg, name)))
        self._patch(scipy_svd_module, "svd", self._factorization(scipy_svd_module.svd))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def snapshot(self) -> dict:
        """Counts and self times gathered since the last reset."""
        if self._stack:
            raise RuntimeError("snapshot taken inside an open span")
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.busy_s"] = self.busy[layer]
        out["density.boxes_counted"] = self.boxes
        out["gabor.factorizations"] = self.factorizations
        out["gabor.factor_work"] = self.factor_work
        return out
