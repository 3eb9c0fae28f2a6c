"""Span tracer that wraps fdbt's public functions from outside the package.

A wrapped name is replaced at every module namespace that binds it
(``fdbt``, ``fdbt.interval``, ... each hold their own reference after a
``from .x import y``), so calls are caught whichever binding the caller
looked up. Calls a module makes to its own globals, such as
``sweep -> sigma_max_at`` or ``interval_reduce -> interval_eta``, go through
the defining module's namespace and are caught there too.

Spans (name, start, end, parent) live in memory and are written out as JSON
lines by ``write_spans`` when the run ends. Nothing is installed until
``install`` is called, so an untraced process runs the program unchanged.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# Traced functions per module, in report order. Every name listed here
# gets `.calls` and `.s` counters; LAYER_METRICS picks what is reported.
TRACED = {
    "linalg": ("solve_lyapunov", "balance_gramians", "sqrt_principal", "log_principal"),
    "sysmodel": ("sweep", "sigma_max_at", "hinf_estimate", "error_system", "is_hurwitz"),
    "interval": (
        "interval_reduce",
        "build_interval_extended",
        "interval_gramians",
        "interval_eta",
        "interval_ef_bound",
    ),
    "sf": ("sf_reduce", "build_sf_extended", "sf_gramians", "invert_sf_extension", "sf_ef_bound"),
    "baselines": (
        "fibt_reduce",
        "gspa_reduce",
        "fgbt_reduce",
        "standard_gramians",
        "band_gramians",
    ),
    "harness": (
        "verify_bound",
        "run_randomized_experiment",
        "reproduce_example",
        "write_bundle",
        "write_json",
    ),
    "cli": ("main",),
}

# Reported per-layer metrics: "<module>.<function>" -> fields. `calls` and
# `failed` are counts, `s` inclusive seconds, `self_s` inclusive minus
# child spans; the rest are sizes computed from the call's arguments or
# result (see _EXTRA).
LAYER_METRICS = {
    "linalg.solve_lyapunov": ("calls", "s"),
    "linalg.balance_gramians": ("calls", "s"),
    "linalg.sqrt_principal": ("calls", "s", "n3"),
    "linalg.log_principal": ("calls", "s", "n3"),
    "sysmodel.sweep": ("calls", "s", "self_s", "points"),
    "sysmodel.sigma_max_at": ("calls", "s"),
    "sysmodel.hinf_estimate": ("calls", "s"),
    "sysmodel.error_system": ("calls", "states"),
    "sysmodel.is_hurwitz": ("calls", "s"),
    "interval.interval_reduce": ("calls", "s"),
    "interval.build_interval_extended": ("calls", "s"),
    "interval.interval_gramians": ("s",),
    "interval.interval_eta": ("calls", "s", "self_s"),
    "interval.interval_ef_bound": ("calls", "s"),
    "sf.sf_reduce": ("calls", "s"),
    "sf.build_sf_extended": ("s",),
    "sf.sf_gramians": ("s",),
    "sf.invert_sf_extension": ("s",),
    "sf.sf_ef_bound": ("calls", "s"),
    "baselines.fibt_reduce": ("s",),
    "baselines.gspa_reduce": ("s",),
    "baselines.fgbt_reduce": ("calls", "s", "failed"),
    "baselines.standard_gramians": ("s",),
    "baselines.band_gramians": ("s",),
    "harness.verify_bound": ("calls", "s"),
    "harness.run_randomized_experiment": ("s",),
    "harness.reproduce_example": ("s",),
    "harness.write_bundle": ("s", "bytes"),
    "harness.write_json": ("s",),
    "cli.main": ("s",),
}

def _square_n3(args, kwargs, result):
    return int(args[0].shape[0]) ** 3 if args else 0


def _grid_points(args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return len(grid)


def _states(args, kwargs, result):
    return int(result.n)


def _bundle_bytes(args, kwargs, result):
    bundle = args[0] if args else kwargs["bundle"]
    out_dir = args[1] if len(args) > 1 else kwargs["out_dir"]
    prefix = f"{bundle.name}__"
    return sum(
        entry.stat().st_size
        for entry in os.scandir(out_dir)
        if entry.is_file() and entry.name.startswith(prefix)
    )


# Sizes recorded after a successful call: metric field -> function of
# (args, kwargs, result).
_EXTRA = {
    "linalg.sqrt_principal": ("n3", _square_n3),
    "linalg.log_principal": ("n3", _square_n3),
    "sysmodel.sweep": ("points", _grid_points),
    "sysmodel.error_system": ("states", _states),
    "harness.write_bundle": ("bytes", _bundle_bytes),
}


class Tracer:
    """Wraps the TRACED functions of an imported fdbt and records spans.

    Single-threaded by design: the benchmark runs every workload in one
    thread, and the open-span stack assumes it.
    """

    def __init__(self):
        self.names = []  # span name per index into `spans`
        self.spans = []  # [name_index, start_ns, end_ns, parent_span or -1]
        self.totals = {}  # "<mod>.<fn>" -> {"calls", "failed", "ns", "self_ns", extras}
        self.active = False
        self._stack = []  # [span_index, child_ns] of open spans
        self._undo = []  # (namespace, attribute, original)

    # -- installation -------------------------------------------------

    def install(self):
        """Replace every binding of every TRACED function with a wrapper."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fdbt" or name.startswith("fdbt."))
        ]
        for short, functions in TRACED.items():
            home = sys.modules[f"fdbt.{short}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{short}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, original))
        self.active = True

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()
        self.active = False

    def _wrap(self, key, fn):
        totals = self.totals[key] = {"calls": 0, "failed": 0, "ns": 0, "self_ns": 0}
        extra = _EXTRA.get(key)
        if extra:
            totals[extra[0]] = 0
        name_index = len(self.names)
        self.names.append(key)
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            span = [name_index, clock(), 0, parent]
            spans.append(span)
            frame = [index, 0]
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                span[2] = end = clock()
                stack.pop()
                took = end - span[1]
                if stack:
                    stack[-1][1] += took
                totals["calls"] += 1
                totals["ns"] += took
                totals["self_ns"] += took - frame[1]
                if not ok:
                    totals["failed"] += 1
                elif extra:
                    totals[extra[0]] += extra[1](args, kwargs, result)

        return wrapper

    # -- results ------------------------------------------------------

    def layer_metrics(self, passes):
        """Per-pass values of every LAYER_METRICS field, as name -> value."""
        out = {}
        for key, fields in LAYER_METRICS.items():
            entry = self.totals[key]
            for field in fields:
                if field == "s":
                    value = entry["ns"] / 1e9
                elif field == "self_s":
                    value = entry["self_ns"] / 1e9
                else:
                    value = entry[field]
                out[f"{key}.{field}"] = value / passes
        return out

    def write_spans(self, path):
        """One JSON array per line: [id, name, start_ns, end_ns, parent_id]."""
        with open(path, "w") as fh:
            for index, (name_index, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([index, self.names[name_index], start, end, parent]))
                fh.write("\n")
