"""Span recording around jumprec's public functions, installed from outside.

The program is not edited: `install` replaces each traced function with a
wrapper under every name a loaded `jumprec` module binds it to (for example
`reconstruct.product_spectrum` and `localize.product_spectrum`), and
`uninstall` puts the originals back.  Spans are kept in memory as
(name, start, end, parent, op, units, raised) and reduced to per-layer
numbers when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter


def _product_macs(a, b, out_M):
    # np.convolve over the two full sequences: one multiply-add per pair
    return a.coeffs.size * b.coeffs.size


def _phase_matrix_mib(spectrum, x):
    # eval_partial_sum builds a dense (points x 2M+1) complex128 matrix
    import numpy as np

    return np.size(x) * spectrum.coeffs.size * 16 / 2**20


def _stride(z, N, xi_prior):
    return N


def _jump_count(spec, config):
    return config.K


# layer name -> (module, function, argument-size counter); a counter is
# (metric field, function of the call's arguments) and is summed per op
LAYERS = {
    "spectrum.product_spectrum": ("jumprec.spectrum", "product_spectrum", ("macs", _product_macs)),
    "spectrum.eval_partial_sum": ("jumprec.spectrum", "eval_partial_sum", ("matrix_mib", _phase_matrix_mib)),
    "spectrum.weight_moments": ("jumprec.spectrum", "weight_moments", None),
    "spectrum.load_spectrum": ("jumprec.spectrum", "load_spectrum", None),
    "model.phi_coeff_array": ("jumprec.model", "phi_coeff_array", None),
    "model.synth_spectrum": ("jumprec.model", "synth_spectrum", None),
    "localize.prony_order0": ("jumprec.localize", "prony_order0", None),
    "localize.make_bump": ("jumprec.localize", "make_bump", None),
    "localize.localize_jump": ("jumprec.localize", "localize_jump", None),
    "solver.half_order_recover": ("jumprec.solver", "half_order_recover", None),
    "solver.recover_single_jump": ("jumprec.solver", "recover_single_jump", None),
    "solver.build_annihilator": ("jumprec.solver", "build_annihilator", None),
    "solver.select_root": ("jumprec.solver", "select_root", None),
    "solver.solve_magnitudes": ("jumprec.solver", "solve_magnitudes", None),
    "solver.disambiguate_nth_root": ("jumprec.solver", "disambiguate_nth_root", ("candidates", _stride)),
    "rootfind.find_roots": ("jumprec.rootfind", "find_roots", None),
    "rootfind.find_roots_mp": ("jumprec.rootfind", "find_roots_mp", None),
    "precision.recover_single_jump_mp": ("jumprec.precision", "recover_single_jump_mp", None),
    # K is kept as the span's units so polish_sweeps can divide by it
    "reconstruct.full_reconstruct": ("jumprec.reconstruct", "full_reconstruct", ("K", _jump_count)),
    "reconstruct.jump_free_error": ("jumprec.reconstruct", "jump_free_error", None),
}

# per-layer metrics reported by a traced run, (name, unit), as BENCHMARK.json lists them
PER_LAYER = tuple(
    (m["name"], m["unit"])
    for m in json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
    )["per_layer"]
)

# argument-size counter metrics, "<layer>.<field>"
_COUNTERS = {f"{layer}.{c[0]}" for layer, (_, _, c) in LAYERS.items() if c}

NAME, START, END, PARENT, OP, UNITS, RAISED = range(7)


class CoverageError(RuntimeError):
    """A layer the workload must exercise recorded no calls."""


class Tracer:
    """In-memory span store; records only while `op` is set."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def enter(self, name, units=0):
        if self.op is None:
            return -1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, units, False])
        self._stack.append(idx)
        return idx

    def exit(self, idx, raised=False):
        if idx < 0:
            return
        span = self.spans[idx]
        span[END] = perf_counter()
        span[RAISED] = raised
        self._stack.pop()

    def wrap(self, name, fn, units=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = -1
            if self.op is not None:
                idx = self.enter(name, units(*args, **kwargs) if units else 0)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.exit(idx, raised=True)
                raise
            self.exit(idx)
            return out

        return traced

    def install(self):
        """Patch every binding of each traced function; returns the undo list."""
        mods = [
            m for n, m in list(sys.modules.items())
            if n == "jumprec" or n.startswith("jumprec.")
        ]
        patches = []
        for name, (modname, attr, counter) in LAYERS.items():
            orig = getattr(importlib.import_module(modname), attr)
            wrapper = self.wrap(name, orig, counter[1] if counter else None)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        return patches

    @staticmethod
    def uninstall(patches):
        for mod, key, orig in reversed(patches):
            setattr(mod, key, orig)

    def self_times(self):
        self_t = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                self_t[s[PARENT]] -= s[END] - s[START]
        return self_t

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op", "units", "raised"],
                 "spans": self.spans},
                fh,
            )
            fh.write("\n")


def polish_sweeps(tracer):
    """recover_single_jump calls / K - 1 for every completed reconstruction.

    Raises CoverageError when a completed reconstruction made fewer than K
    single-jump solves, which means the wrapper no longer sees the calls.
    """
    spans = tracer.spans
    solves = {}
    for i, s in enumerate(spans):
        if s[NAME] != "solver.recover_single_jump":
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != "reconstruct.full_reconstruct":
            p = spans[p][PARENT]
        if p >= 0:
            solves[p] = solves.get(p, 0) + 1
    sweeps = []
    for i, s in enumerate(spans):
        if s[NAME] != "reconstruct.full_reconstruct" or s[RAISED]:
            continue
        K = s[UNITS]
        n = solves.get(i, 0)
        if n < K:
            raise CoverageError(
                f"reconstruction with K={K} recorded {n} recover_single_jump calls"
            )
        sweeps.append(n / K - 1)
    return sweeps


def layer_metrics(tracer, n_ops, expected):
    """Per-op layer numbers from the loop spans; one traced set-up feeds synth.

    `expected` lists layer names that must show calls on this workload;
    a zero there raises CoverageError instead of reporting 0 s.
    """
    self_t = tracer.self_times()
    calls, selfs, units = {}, {}, {}
    setup_synth = 0.0
    for s, st in zip(tracer.spans, self_t):
        name = s[NAME]
        if s[OP] == "setup":
            if name == "model.synth_spectrum":
                setup_synth += st
            continue
        calls[name] = calls.get(name, 0) + 1
        selfs[name] = selfs.get(name, 0.0) + st
        units[name] = units.get(name, 0) + s[UNITS]
    missing = [] if setup_synth else ["model.synth_spectrum (set-up)"]
    missing += [name for name in expected if calls.get(name, 0) == 0]
    if missing:
        raise CoverageError(f"wrapped layers recorded no calls: {', '.join(missing)}")

    sweeps = polish_sweeps(tracer)
    out = {}
    for metric, _unit in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls.get(layer, 0) / n_ops
        elif field == "self_s":
            if layer == "model.synth_spectrum":
                out[metric] = setup_synth
            else:
                out[metric] = selfs.get(layer, 0.0) / n_ops
        elif metric in _COUNTERS:
            out[metric] = units.get(layer, 0) / n_ops
    out["reconstruct.polish_sweeps"] = sum(sweeps) / len(sweeps) if sweeps else 0.0
    return out
