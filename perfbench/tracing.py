"""Per-layer tracing from outside the program: spans around calls into each layer.

``Tracer.install`` replaces each traced public function with a wrapper in
every ``clusterforge`` module that bound it (``growth.measure``,
``protocol.measure``, the package re-exports, ...) and on ``ClusterGraph``,
so calls are seen whichever name the caller used.  Spans are kept in memory
with their parent span and op index and written out when the run ends.

The layers are single-threaded and have no queues, so no span waits: a
layer's busy time is its self time, its span time minus its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

TRACED = {
    "statevector": (
        "apply_controlled_phase", "apply_gate", "measure", "reset_qubits",
        "extract_qubits", "init_register",
    ),
    "protocol": ("retry_probabilities", "branch_tensor", "enumerate_success_sequences"),
    "growth": (
        "ClusterGraph.longest_segment_length", "fuse", "x_measure_shorten", "z_remove_leaf",
        "grow_1d", "grow_2d", "run_thirteen_qubit_pipeline",
    ),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)
# layer counters and their units
COUNTERS = {
    "statevector.amp_bytes_computed": "bytes",
    "protocol.enumerate_success_sequences.cache_hits": "count",
    "growth.protocol_applications": "count",
    "growth.restarts": "count",
    "growth.retry_limit_errors": "count",
    "growth.useful_protocol_ratio": "ratio",
    "cli.stdout_bytes": "bytes",
}
# a completed thirteen-qubit pipeline needs exactly three successful protocols
USEFUL_PROTOCOLS_PER_PIPELINE = 3


class Tracer:
    def __init__(self):
        self.spans: list = []  # (span id, parent id or None, name, start, end, op index)
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list = [None]
        self._restore: list = []
        self._cache_hits0 = 0
        self._state_type = None  # clusterforge.statevector.PureState, bound by install

    def _wrap(self, name, fn, on_return=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid] = (sid, parent, name, start, time.perf_counter(), self.op)
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def _count_amp_bytes(self, args, result):
        # bytes of the register a call was given (init_register: the one it built);
        # calls nested in another statevector call count too
        state = args[0] if isinstance(args[0], self._state_type) else result
        self.counts["statevector.amp_bytes_computed"] += state.amps.nbytes

    def _count_growth(self, args, result):
        stats = result[1]
        self.counts["growth.protocol_applications"] += stats.protocol_applications
        self.counts["growth.restarts"] += stats.restarts

    def _count_pipeline(self, args, result):
        self._count_growth(args, result)
        self.counts["pipeline.runs"] += 1
        self.counts["pipeline.protocol_applications"] += result[1].protocol_applications

    def _hooks(self):
        hooks = {f"statevector.{fn}": self._count_amp_bytes for fn in TRACED["statevector"]}
        hooks["growth.grow_1d"] = hooks["growth.grow_2d"] = self._count_growth
        hooks["growth.run_thirteen_qubit_pipeline"] = self._count_pipeline
        return hooks

    def install(self):
        import clusterforge.cli  # noqa: F401  (loads every layer module)
        from clusterforge import protocol
        from clusterforge.statevector import PureState

        self._state_type = PureState

        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "clusterforge"]
        hooks = self._hooks()
        for name in SPAN_NAMES:
            layer, _, attr = name.partition(".")
            owner = sys.modules[f"clusterforge.{layer}"]
            if "." in attr:  # a method: patch the class, which every caller goes through
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                targets = [owner]
            else:
                targets = modules
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            for key in ("cache_info", "cache_clear"):  # keep the lru_cache interface
                if hasattr(original, key):
                    setattr(wrapper, key, getattr(original, key))
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)
                        self._restore.append((target, key, original))
        self._cache_hits0 = protocol.enumerate_success_sequences.cache_info().hits

    def uninstall(self):
        from clusterforge import protocol

        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()
        hits = protocol.enumerate_success_sequences.cache_info().hits - self._cache_hits0
        self.counts["protocol.enumerate_success_sequences.cache_hits"] = hits

    def layer_metrics(self) -> dict:
        """Calls and self seconds per traced function, plus the layer counters."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = Counter()
        self_s = Counter()
        for sid, _, name, start, end, _ in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child[sid]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        apps = self.counts["pipeline.protocol_applications"]
        useful = USEFUL_PROTOCOLS_PER_PIPELINE * self.counts["pipeline.runs"]
        self.counts["growth.useful_protocol_ratio"] = useful / apps if apps else 0.0
        out.update((name, self.counts[name]) for name in COUNTERS)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "op"], "spans": self.spans}, fh)
