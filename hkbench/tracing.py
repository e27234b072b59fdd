"""Per-layer spans and counters, recorded from outside the hklab package.

Tracing rebinds the names that callers look up: every module attribute
of a loaded ``hklab`` module that is one of the traced functions (for
example ``hklab.engine.noise_block``, ``hklab.noise.uniforms_at`` or
``hklab.engine.NeighborIndex``) is replaced by a wrapper that records a
span around the call.  Nothing under ``src/`` is edited, and the
originals are restored when the ``traced`` block exits.

A span is (layer, name, parent, start, end).  Spans nest in call order
on one thread, so a span's self time is its duration minus the
durations of its direct children.  Spans stay in memory and are
summarized, or written out, once the traced pass ends.

Only calls made in this process are seen: a traced pass must run its
ensembles with workers=1.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from hklab import engine, ensemble, model, neighbors, noise, output, prng, projected, walks


class Tracer:
    """Span log plus counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, name, parent, t0, t1]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}

    def wrap(self, layer: str, name, fn, after=None):
        """fn wrapped in a span; name may be a callable of the call's args.

        after(args, result) updates counters once the call returns.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            sid = len(spans)
            spans.append([layer, label, stack[-1] if stack else -1, perf_counter(), 0.0])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid][4] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def note_max(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, 0.0):
            self.maxima[key] = value

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer and per "layer.name"."""
        child = [0.0] * len(self.spans)
        for layer, name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: Counter = Counter()
        for (layer, name, _, t0, t1), inner in zip(self.spans, child):
            own = (t1 - t0) - inner
            out[layer] += own
            out[f"{layer}.{name}"] += own
        return dict(out)

    def total_time(self, layer: str, name: str) -> float:
        """Summed span durations (children included) of one layer.name."""
        return sum(t1 - t0 for lay, nm, _, t0, t1 in self.spans if lay == layer and nm == name)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "columns": ["layer", "name", "parent", "start_s", "end_s"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "maxima": self.maxima,
                },
                fh,
            )


def _neighbor_index_class(tracer: Tracer, base):
    class TracedNeighborIndex(base):
        __init__ = tracer.wrap("neighbors", "build", base.__init__)

        def neighbor_sums(self, *args, **kwargs):
            tracer.counts["neighbors.agent_queries"] += self.n
            return _sums(self, *args, **kwargs)

    _sums = tracer.wrap("neighbors", "sums", base.neighbor_sums)
    return TracedNeighborIndex


def _wrappers(tracer: Tracer) -> dict[int, tuple]:
    """id(original) -> (original, factory(caller_module_name) -> replacement)."""
    counts = tracer.counts

    def after_uniforms(args, out):
        counts["prng.uniforms"] += out.size
        counts["prng.run_blocks"] += out.shape[0]

    def noise_block_for(caller: str):
        tag = caller.rsplit(".", 1)[-1]

        def after(args, out):
            spec, _, _, n, d = args[:5]
            a, b = out.shape[0], out.shape[1]
            counts["noise.draws"] += a * b * n
            counts[f"{tag}.steps_drawn"] += a * b
            width = noise.uniforms_per_draw(spec.family, d)
            tracer.note_max("noise.max_block_mb", a * b * n * width * 8 / 1e6)

        return tracer.wrap("noise", "noise_block", noise.noise_block, after)

    def rows(count):
        def after(args, out):
            counts["output.rows"] += count(args)

        return after

    def summarize_after(args, out):
        counts["ensemble.samples"] += len(args[0])

    def model_after(args, out):
        counts["model.calls"] += 1

    def plain(layer, fn, after=None):
        wrapped = tracer.wrap(layer, fn.__name__, fn, after)
        return lambda caller: wrapped

    table = {
        prng.uniforms_at: plain("prng", prng.uniforms_at, after_uniforms),
        noise.noise_block: noise_block_for,
        noise._uniforms_to_noise: lambda caller: transform,
        engine.run_batch: plain("engine", engine.run_batch),
        neighbors.NeighborIndex: lambda caller: index_class,
        ensemble.run_ensemble: plain("ensemble", ensemble.run_ensemble),
        ensemble.summarize: plain("ensemble", ensemble.summarize, summarize_after),
        output.write_samples: plain("output", output.write_samples, rows(lambda a: len(a[1]))),
        output.write_survival: plain(
            "output", output.write_survival, rows(lambda a: len(a[1].times))
        ),
        output.write_summary: plain("output", output.write_summary),
        projected.hitting_time_td: plain("projected", projected.hitting_time_td),
    }
    for fn in (
        walks.cluster_gap_walk,
        walks.first_passage_below,
        walks.stretched_first_passage,
        walks.recurrence_profile,
    ):
        table[fn] = plain("walks", fn)
    # The step-level helpers of the model; sq_norm_last and clamp_to_box
    # are elementwise kernels every layer calls and stay untraced.
    for fn in (
        model.hk_step,
        model.pairwise_sq_dists,
        model.neighbor_set,
        model.max_pairwise_distance,
        model.is_quasi_synchronized,
    ):
        table[fn] = plain("model", fn, model_after)
    transform = tracer.wrap(
        "noise", lambda spec, u, d: spec.family, noise._uniforms_to_noise
    )
    index_class = _neighbor_index_class(tracer, neighbors.NeighborIndex)
    return {id(orig): (orig, factory) for orig, factory in table.items()}


@contextmanager
def traced(tracer: Tracer):
    """Rebind every traced hklab name to its wrapper for the block."""
    wrappers = _wrappers(tracer)
    patched = []
    for modname, mod in sorted(sys.modules.items()):
        if mod is None or not (modname == "hklab" or modname.startswith("hklab.")):
            continue
        for attr, value in list(vars(mod).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                patched.append((mod, attr, value))
                setattr(mod, attr, entry[1](modname))
    try:
        yield tracer
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)
