"""Per-layer timing from outside the program.

The tracer replaces public functions of the litterscan modules with wrappers
that add up wall time and calls.  A function is replaced under every name
that binds it in a litterscan module, so calls through `from .x import f`
aliases and calls inside the defining module are both seen.  Times are
inclusive: `mlp.loss` contains the `mlp.forward_batch` it calls.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

PACKAGE = "litterscan"
# Layer (module) -> public functions timed in that layer.
LAYERS = {
    "mlp": ("train", "loss", "gradient", "with_weights", "predict_map", "forward_batch"),
    "dataset": ("apply_normalizer", "balance", "split", "extract_samples", "normalize_set"),
    "synthetic": ("make_scene",),
    "resample": ("load_cube", "align_stack", "resample_band", "lanczos3_kernel", "save_cube"),
    "raster_io": ("import_pgm_band", "save_stack", "load_stack", "write_mask",
                  "write_float_raster", "read_mask"),
    "indexes": ("fdi", "ndvi", "combined_index_mask", "threshold_map"),
    "evaluation": ("confusion",),
}


class Tracer:
    """Install with `with Tracer() as t:`; `t.take()` returns and clears the
    span totals {"layer.function": [seconds, calls]} gathered so far."""

    def __init__(self):
        self._totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn):
        totals = self._totals

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec = totals[span]
                rec[0] += time.perf_counter() - t
                rec[1] += 1
        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, alias, original))
                            setattr(module, alias, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, alias, original in reversed(self._patched):
            setattr(module, alias, original)
        self._patched.clear()

    def take(self) -> dict[str, list]:
        out = {span: list(rec) for span, rec in self._totals.items()}
        self._totals.clear()
        return out
