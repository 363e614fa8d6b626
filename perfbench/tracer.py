"""Per-layer counters for the traced benchmark run, installed from outside.

The tracer wraps calls into randamp's public functions and methods while it
is installed and restores the originals when it is removed, so no file of
the package changes.  For every target it keeps three counters rather than
one span per call (a job makes 10^5 to 10^6 calls per layer): calls, busy
time, and self time, which is busy time minus the time covered by traced
calls made inside it.  Spans (name, start, end, parent, job) are kept only
at the coarse boundaries listed in SPANNED.

A target whose module, function or method no longer exists is reported as
unmeasured (its counters stay 0) instead of failing the run, so the
benchmark keeps working across refactors of the package.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

# Functions: (layer metric prefix, module, name).  Every alias of the
# function object in the loaded randamp modules is replaced, because cli and
# protocol bind some of them under other names (extract_bits,
# extractor_mod.extract).  Two functions may share one prefix.
FUNCTIONS = [
    ("protocol.run_protocol", "randamp.protocol", "run_protocol"),
    ("protocol.write_transcript", "randamp.protocol", "write_transcript"),
    ("protocol.read_transcript", "randamp.protocol", "read_transcript"),
    ("protocol.replay_transcript", "randamp.protocol", "replay_transcript"),
    ("extractor.extract", "randamp.extractor", "extract"),
    ("ns_certify.build_lp", "randamp.ns_certify", "build_lp"),
    ("ns_certify.solve_lp", "randamp.ns_certify", "solve_lp"),
    ("ns_certify.verify_certificate", "randamp.ns_certify", "verify_certificate"),
    ("ks_bell.build_bell_functional", "randamp.ks_bell", "build_bell_functional"),
    ("ks_bell.classical_minimum", "randamp.ks_bell", "classical_minimum"),
    ("ks_bell.ks_coloring_count", "randamp.ks_bell", "ks_coloring_count"),
    ("bounds.azuma_empirical", "randamp.bounds", "azuma_empirical"),
    ("bounds.chernoff_empirical", "randamp.bounds", "chernoff_empirical"),
    ("boxes.make_device", "randamp.boxes", "make_iid_device"),
    ("boxes.make_device", "randamp.boxes", "make_adversarial_device"),
]

# Methods: (prefix, module, method).  The method is wrapped on every class
# of the module that defines it, so merging or renaming the device classes
# keeps boxes.respond measured.
METHODS = [
    ("sv_source.next_block", "randamp.sv_source", "next_block"),
    ("sv_source.next_bits", "randamp.sv_source", "next_bits"),
    ("sv_source.map_block", "randamp.sv_source", "map_block"),
    ("boxes.respond", "randamp.boxes", "respond"),
]

# CLI subcommands the workloads run; their click callbacks are wrapped.
COMMANDS = ["certify", "simulate", "replay", "extract", "verify-bounds"]

SPANNED = {"protocol.run_protocol", "protocol.write_transcript",
           "protocol.read_transcript", "sv_source.next_bits",
           "extractor.extract", "ns_certify.solve_lp"} | \
    {f"cli.{c}" for c in COMMANDS}

TARGETS = list(dict.fromkeys(
    [p for p, _, _ in METHODS] + [p for p, _, _ in FUNCTIONS] +
    [f"cli.{c}" for c in COMMANDS]))


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for t in TARGETS:
        units[f"{t}.calls"] = "count"
        units[f"{t}.busy_s"] = "s"
        units[f"{t}.self_s"] = "s"
    units["sv_source.next_bits.bits"] = "count"
    units["protocol.transcript_bytes"] = "B"
    units["cli.self_s"] = "s"
    units["trace.unmeasured"] = "count"
    return units


def _count_bits(counters, args, kwargs, result):
    counters["bits"] += len(result)


def _count_bytes(counters, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counters["bytes"] += os.path.getsize(path)


COUNTERS = {"sv_source.next_bits": _count_bits,
            "protocol.write_transcript": _count_bytes}


class Tracer:
    """Context manager: installs the wrappers on enter, restores on exit."""

    def __init__(self):
        self.stats: dict[str, list] = {t: [0, 0.0, 0.0] for t in TARGETS}
        self.counters = {"bits": 0, "bytes": 0}
        self.spans: list = []
        self.job = ""
        self.unmeasured: list[str] = []
        self._stack: list[float] = []       # child time of each open call
        self._span_stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        spanned = name in SPANNED
        count = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if spanned:
                sid = len(self.spans)
                parent = self._span_stack[-1] if self._span_stack else None
                self.spans.append(None)
                self._span_stack.append(sid)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                child = stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if stack:
                    stack[-1] += dt
                if spanned:
                    self._span_stack.pop()
                    self.spans[sid] = {"name": name, "start": start,
                                       "end": start + dt, "parent": parent,
                                       "job": self.job}
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _install_functions(self):
        found = set()
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "randamp" or k.startswith("randamp."))]
        for name, modname, attr in FUNCTIONS:
            orig = getattr(sys.modules.get(modname), attr, None)
            if not callable(orig):
                continue
            wrapper = self._wrap(name, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapper)
            found.add(name)
        return found

    def _install_methods(self):
        found = set()
        for name, modname, method in METHODS:
            mod = sys.modules.get(modname)
            classes = [c for c in vars(mod).values()
                       if isinstance(c, type) and c.__module__ == modname
                       and method in vars(c)] if mod else []
            for cls in classes:
                self._patch(cls, method, self._wrap(name, vars(cls)[method]))
                found.add(name)
        return found

    def _install_commands(self):
        found = set()
        cli = sys.modules.get("randamp.cli")
        commands = getattr(getattr(cli, "main", None), "commands", {})
        for c in COMMANDS:
            cmd = commands.get(c)
            if cmd is not None and callable(cmd.callback):
                self._patch(cmd, "callback", self._wrap(f"cli.{c}", cmd.callback))
                found.add(f"cli.{c}")
        return found

    def __enter__(self):
        importlib.import_module("randamp.cli")
        found = (self._install_functions() | self._install_methods()
                 | self._install_commands())
        self.unmeasured = [t for t in TARGETS if t not in found]
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        return False

    def metrics(self) -> dict[str, float]:
        out = {}
        for t, (calls, busy, self_s) in self.stats.items():
            out[f"{t}.calls"] = calls
            out[f"{t}.busy_s"] = busy
            out[f"{t}.self_s"] = self_s
        out["sv_source.next_bits.bits"] = self.counters["bits"]
        out["protocol.transcript_bytes"] = self.counters["bytes"]
        out["cli.self_s"] = sum(self.stats[f"cli.{c}"][2] for c in COMMANDS)
        out["trace.unmeasured"] = len(self.unmeasured)
        return out
