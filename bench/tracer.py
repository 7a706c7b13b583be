"""Outside-in span tracer for medent's layers.

The tracer wraps medent's public functions, the ``__post_init__`` of its
classes and their public methods, plus ``numpy.linalg.eigh``/``eigvalsh`` as
the ``lapack`` layer.  Wrappers are installed only around the operations that
are meant to be traced and removed afterwards, so untraced runs execute the
unmodified code.

Spans are kept in memory as parallel lists (name, start, end, parent) and
written out when the run ends.  A span's self time is its duration minus the
durations of its direct children; summed over every span this equals the
duration of the root spans, which is what lets per-layer self times add up to
the traced wall time.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = (
    "cli",
    "sweeps",
    "control",
    "theorem",
    "dicke",
    "entanglement",
    "tripartite",
    "linalg",
)
# perturbation is a layer of the package too, but no CLI command reaches it.
ALL_LAYERS = LAYERS + ("lapack",)

# Per-element helpers whose cost is below the tracer's own per-call cost; their
# time stays in the caller's self time.
UNTRACED = frozenset(
    {
        "linalg.as_complex_matrix",
        "linalg.frobenius_norm",
        "sweeps.format_value",
        "sweeps.parse_value",
    }
)

# Span name -> function of the call arguments giving the matrix dimension.
SIZED = {
    "linalg.eigh": lambda args: args[0].matrix.shape[0],
    "lapack.eigh": lambda args: np.shape(args[0])[-1],
    "lapack.eigvalsh": lambda args: np.shape(args[0])[-1],
}


class Tracer:
    """Span recorder plus the set of patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.span_name: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.sizes: dict[int, int] = {}
        self.errors: set[int] = set()
        self._stack: list[int] = []
        self._last_exc: BaseException | None = None
        self._patches = self._build_patches()

    def __len__(self) -> int:
        return len(self.span_name)

    def _name_id(self, name: str) -> int:
        if name not in self.name_index:
            self.name_index[name] = len(self.names)
            self.names.append(name)
        return self.name_index[name]

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        size_of = SIZED.get(name)
        span_name, starts, ends, parents = self.span_name, self.starts, self.ends, self.parents
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            if size_of is not None:
                self.sizes[i] = int(size_of(args))
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # count an error once, in the span where it was raised
                if exc is not self._last_exc:
                    self.errors.add(i)
                    self._last_exc = exc
                raise
            finally:
                ends[i] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every traced callable."""
        wrappers: dict[int, object] = {}
        patches = []
        for layer in LAYERS:
            module = importlib.import_module(f"medent.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    if name not in UNTRACED:
                        wrappers[id(obj)] = self.wrap(name, obj)
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if not inspect.isfunction(fn):
                            continue
                        if meth == "__post_init__":
                            name = f"{layer}.{attr}"
                        elif not meth.startswith("_"):
                            name = f"{layer}.{attr}.{meth}"
                        else:
                            continue
                        patches.append((obj, meth, fn, self.wrap(name, fn)))
        # every medent namespace that holds a reference to a wrapped function,
        # including names imported from one module into another
        for mod_name in sorted(n for n in list(sys.modules) if n.split(".")[0] == "medent"):
            module = sys.modules[mod_name]
            for attr, obj in vars(module).items():
                if id(obj) in wrappers:
                    patches.append((module, attr, obj, wrappers[id(obj)]))
        for attr in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, attr)
            patches.append((np.linalg, attr, fn, self.wrap(f"lapack.{attr}", fn)))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write every span as [name, start, end, parent] to gzipped JSON."""
        with gzip.open(path, "wt") as fh:
            json.dump(
                {
                    "names": self.names,
                    "spans": [
                        [self.names[n], s, e, p]
                        for n, s, e, p in zip(self.span_name, self.starts, self.ends, self.parents)
                    ],
                    "errors": sorted(self.errors),
                    "sizes": {str(i): n for i, n in sorted(self.sizes.items())},
                },
                fh,
            )


def self_times(starts, ends, parents) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


def aggregate(names, span_name, starts, ends, parents, errors=()):
    """Self time, call count and error count per span name and per layer.

    Returns ``(by_name, by_layer)``; each maps a name to a dict with keys
    ``self_s``, ``calls`` and ``errors``.  A layer is the span name's first
    dotted component.
    """
    by_name = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "errors": 0})
    by_layer = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "errors": 0})
    errors = set(errors)
    for i, st in enumerate(self_times(starts, ends, parents)):
        name = names[span_name[i]]
        for entry in (by_name[name], by_layer[name.split(".", 1)[0]]):
            entry["self_s"] += st
            entry["calls"] += 1
            entry["errors"] += i in errors
    return dict(by_name), dict(by_layer)
