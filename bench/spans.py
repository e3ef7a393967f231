"""Per-layer tracing from outside the package.

`Tracer.install` swaps each layer's public entry points for wrappers that
open a span (name, start, end, parent, op id) around the call: the
module-level names that `weightmult.multiplicity` and `weightmult.oracle`
call, the package-level names the benchmark calls, and the `RootSystem` and
`MultContext` constructors.  `uninstall` restores the originals, so untraced
calls run the package unchanged.

A span's self time is its duration minus the time covered by its child
spans; self times and call counts are summed per span name and per op.
Clock readings come from `calib.Clock.now`, which hides calibration samples.
"""

from __future__ import annotations

import sys

# (module, attribute, span name).  The package module ``weightmult.multiplicity``
# is shadowed by the function of that name, so modules are looked up in
# sys.modules rather than as attributes of the package.
_FUNCTIONS = (
    ("weightmult", "character", "multiplicity.character"),
    ("weightmult", "multiplicity", "multiplicity.multiplicity"),
    ("weightmult", "verify_module", "oracle.verify_module"),
    ("weightmult.multiplicity", "dominant_conjugate", "rootsys.dominant_conjugate"),
    ("weightmult.multiplicity", "is_under", "rootsys.is_under"),
    ("weightmult.oracle", "character", "multiplicity.character"),
    ("weightmult.oracle", "freudenthal_classical", "multiplicity.freudenthal_classical"),
    ("weightmult.oracle", "enumerate_weyl", "oracle.enumerate_weyl"),
    ("weightmult.oracle", "kostant_multiplicity", "oracle.kostant_multiplicity"),
    ("weightmult.oracle", "kostant_partition", "partition.kostant_partition"),
    ("weightmult.oracle", "orbit_size", "rootsys.orbit_size"),
    ("weightmult.oracle", "weyl_dimension", "rootsys.weyl_dimension"),
)
_CONSTRUCTORS = (
    ("weightmult.rootsys", "RootSystem", "rootsys.build"),
    ("weightmult.multiplicity", "MultContext", "multiplicity.MultContext"),
)
COUNTER_FIELDS = ("classical_terms", "fast_terms", "inner_products", "cache_hits")


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.recording = False
        self.spans = []  # [name, start, end, parent, op] while recording
        self._originals = []
        self._stack = []  # [name, start, child_time, span index]
        self.begin_op(None)

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, span in _FUNCTIONS:
            mod = sys.modules[mod_name]
            fn = getattr(mod, attr)
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, span))
        for mod_name, attr, span in _CONSTRUCTORS:
            cls = getattr(sys.modules[mod_name], attr)
            init = cls.__init__
            self._originals.append((cls, "__init__", init))
            cls.__init__ = self._wrap(init, span)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name):
        enter, leave = self._enter, self._leave
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            enter(name)
            try:
                out = fn(*args, **kwargs)
                if observe is not None:
                    observe(self, args, kwargs, out)
                return out
            finally:
                leave()

        return traced

    # -- spans ----------------------------------------------------------------

    def _enter(self, name) -> None:
        idx = -1
        if self.recording:
            parent = self._stack[-1][3] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self._op])
        self._stack.append([name, self.clock.now(), 0.0, idx])

    def _leave(self) -> None:
        end = self.clock.now()
        name, start, child, idx = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        self._self[name] = self._self.get(name, 0.0) + dur - child
        self._calls[name] = self._calls.get(name, 0) + 1
        if idx >= 0:
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    # -- per-op accounting ----------------------------------------------------

    def begin_op(self, op_id) -> None:
        self._op = op_id
        self._self = {}
        self._calls = {}
        self._counters = {}
        self._memos = {}
        self._weyl_elements = 0
        self._contexts = 0

    def end_op(self, factor) -> dict:
        """Counts and self times (scaled to reference seconds) of the op just run."""
        counts = {f"{name}.calls": n for name, n in self._calls.items()}
        counts["multiplicity.contexts"] = self._contexts
        for field in COUNTER_FIELDS:
            counts[f"multiplicity.{field}"] = sum(
                getattr(c, field) for c in self._counters.values()
            )
        counts["partition.memo_entries"] = sum(len(m) for m in self._memos.values())
        counts["oracle.weyl_elements"] = self._weyl_elements
        self_s = {name: t * factor for name, t in self._self.items()}
        return {"counts": counts, "self_s": self_s}


def _saw_context(tracer, args, kwargs, out) -> None:
    ctx = args[0]
    tracer._contexts += 1
    tracer._counters[id(ctx.counters)] = ctx.counters


def _saw_partition(tracer, args, kwargs, out) -> None:
    memo = args[2] if len(args) > 2 else kwargs.get("memo")
    if memo is not None:
        tracer._memos[id(memo)] = memo


def _saw_weyl(tracer, args, kwargs, out) -> None:
    tracer._weyl_elements += len(out)


_OBSERVERS = {
    "multiplicity.MultContext": _saw_context,
    "partition.kostant_partition": _saw_partition,
    "oracle.enumerate_weyl": _saw_weyl,
}


def layer_metrics(counts: dict, self_s: dict) -> dict:
    """The BENCHMARK.json per-layer metrics from summed counts and self times.

    ``multiplicity.self_s`` and ``oracle.self_s`` cover every span of their
    layer except those reported under their own name.
    """
    own = {
        "rootsys.dominant_conjugate",
        "rootsys.build",
        "rootsys.is_under",
        "partition.kostant_partition",
        "oracle.enumerate_weyl",
    }
    out = {}
    for name in sorted(own):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("rootsys.dominant_conjugate", "rootsys.build", "rootsys.is_under",
                 "partition.kostant_partition"):
        out[f"{name}.calls"] = counts.get(f"{name}.calls", 0)
    for layer in ("multiplicity", "oracle"):
        out[f"{layer}.self_s"] = sum(
            t for name, t in self_s.items() if name.startswith(layer + ".") and name not in own
        )
    for key in ("multiplicity.contexts", *(f"multiplicity.{f}" for f in COUNTER_FIELDS),
                "partition.memo_entries", "oracle.weyl_elements"):
        out[key] = counts.get(key, 0)
    return out
