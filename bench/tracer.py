"""Per-layer spans for the benchmark, taken from outside the granucodec package.

The tracer replaces public functions of `granucodec.*` with wrappers that
record a span (name, start, end, parent span, operation id) around each
call. A wrapper is installed at every name a caller actually looks up:
`pipeline` and `training` import `entropy_map` directly, so the wrapper
replaces `pipeline.entropy_map` and `training.entropy_map` as well as
`spatial_entropy.entropy_map`. Spans are recorded only inside an operation
opened by the benchmark, so untimed checks between operations leave no
trace. Spans stay in memory until the benchmark writes them out.

Self time is a span's duration minus the time its child spans cover, so the
self times of all spans in an operation add up to the operation's duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field


# -- what is counted at each boundary ---------------------------------------
# Each counter sees (args, kwargs, result) of one call and returns counts.
# Counts derived from array sizes carry the suffix "_computed".

def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _entropy_counts(args, kwargs, result):
    img = args[0]
    cfg = _arg(args, kwargs, 1, "cfg") or \
        importlib.import_module("granucodec.spatial_entropy").EntropyConfig()
    return {"pixels": img.height * img.width,
            "exp_evals_computed": img.samples.size * cfg.n_bins}


def _quantize_counts(args, kwargs, result):
    grid, cb = args[0], _arg(args, kwargs, 1, "cb")
    cells = grid.size // cb.d
    return {"cells_computed": cells, "cell_codes_computed": cells * cb.k}


def _train_counts(args, kwargs, result):
    return {"iters": _arg(args, kwargs, 2, "iters", 0)}


def _encode_stream_counts(args, kwargs, result):
    return {"symbols_computed": args[0].size, "bits": result}


def _decode_indices_counts(args, kwargs, result):
    return {"symbols": _arg(args, kwargs, 1, "count")}


def _grid_pixels(args, kwargs, result):
    fine = args[0]  # q1 / z_hat / y3: one cell per 4x4 pixels
    return {"pixels_computed": fine.shape[0] * fine.shape[1] * 16}


# layer name -> (import path of the function, counter or None)
LAYERS = {
    "imaging.load_ppm": ("imaging.load_ppm", None),
    "spatial_entropy.entropy_map": ("spatial_entropy.entropy_map", _entropy_counts),
    "analysis.pyramid": ("analysis.MeanStdTransform.pyramid", None),
    "vq.quantize": ("vq.quantize", _quantize_counts),
    "vq.lookup": ("vq.lookup", None),
    "vq.train_codebook": ("vq.train_codebook", _train_counts),
    "vq.load_codebook": ("vq.load_codebook", None),
    "vq.save_codebook": ("vq.save_codebook", None),
    "bitstream.build_huffman": ("bitstream.build_huffman", None),
    "bitstream.encode_indices": ("bitstream.encode_indices", _encode_stream_counts),
    "bitstream.encode_granularity_map": ("bitstream.encode_granularity_map",
                                         _encode_stream_counts),
    "bitstream.decode_indices": ("bitstream.decode_indices", _decode_indices_counts),
    "bitstream.decode_granularity_map": ("bitstream.decode_granularity_map", None),
    "bitstream.serialize_container": ("bitstream.serialize_container", None),
    "bitstream.parse_container": ("bitstream.parse_container", None),
    "granularity.build_rate_table": ("granularity.build_rate_table", None),
    "granularity.plan_granularity": ("granularity.plan_granularity", None),
    "granularity.masks_from_map": ("granularity.masks_from_map", None),
    "granularity.ratios_for_target": ("granularity.ratios_for_target", None),
    "reconstruction.assemble_hybrid": ("reconstruction.assemble_hybrid", _grid_pixels),
    "reconstruction.conditional_decode": ("reconstruction.conditional_decode",
                                          _grid_pixels),
    "reconstruction.synthesize_image": ("reconstruction.synthesize_image", _grid_pixels),
    "pipeline.encode_image": ("pipeline.encode_image", None),
    "pipeline.encode_with_map": ("pipeline.encode_with_map", None),
    "pipeline.quantize_streams": ("pipeline.quantize_streams", None),
    "pipeline.decode_image": ("pipeline.decode_image", None),
    "pipeline.decode_streams": ("pipeline.decode_streams", None),
    "pipeline.reconstruct": ("pipeline.reconstruct", None),
    "training.train_codebook": ("training.train_codebook", None),
    "training.corpus_cells": ("training.corpus_cells", None),
}

# The layers each operation is expected to reach, in call order. Every pair
# gets a `calls` and a `self_ms` metric; a pair that stops occurring reads 0.
OP_LAYERS = {
    "setup": ["vq.load_codebook", "bitstream.build_huffman",
              "granularity.build_rate_table"],
    "train": ["training.train_codebook", "training.corpus_cells", "analysis.pyramid",
              "vq.train_codebook", "spatial_entropy.entropy_map",
              "granularity.plan_granularity", "granularity.masks_from_map",
              "vq.quantize", "vq.lookup", "vq.save_codebook"],
    "encode": ["imaging.load_ppm", "pipeline.encode_image",
               "granularity.ratios_for_target", "spatial_entropy.entropy_map",
               "granularity.plan_granularity", "pipeline.encode_with_map",
               "pipeline.quantize_streams", "granularity.masks_from_map",
               "analysis.pyramid", "vq.quantize", "vq.lookup",
               "bitstream.encode_granularity_map", "bitstream.encode_indices",
               "bitstream.serialize_container"],
    "decode": ["bitstream.parse_container", "pipeline.decode_image",
               "pipeline.decode_streams", "bitstream.decode_granularity_map",
               "bitstream.decode_indices", "pipeline.reconstruct",
               "granularity.masks_from_map", "vq.lookup",
               "reconstruction.assemble_hybrid", "reconstruction.conditional_decode",
               "reconstruction.synthesize_image"],
}


# -- spans ----------------------------------------------------------------------

@dataclass
class Span:
    op_id: int
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; each benchmark operation is one root span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ops = 0

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._ops += 1
        span = Span(op_id=self._ops if parent is None else parent.op_id,
                    span_id=len(self.spans),
                    parent=None if parent is None else parent.span_id,
                    name=name, start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, kind: str, **counts):
        span = self._open("op." + kind)
        span.counts.update(counts)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:  # outside any operation: not measured
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                try:
                    span.counts.update(counter(args, kwargs, result))
                except (AttributeError, IndexError, TypeError):
                    pass  # a changed signature loses the counts, not the call
            return result
        return traced

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def records(self):
        """Spans as plain dicts, in start order, for writing out."""
        own = self.self_times()
        return [{"op": s.op_id, "span": s.span_id, "parent": s.parent, "name": s.name,
                 "start": s.start, "end": s.end, "self": own[s.span_id],
                 **s.counts} for s in self.spans]


# -- installing the wrappers -------------------------------------------------

def _resolve(path: str):
    """(owner, attribute, function) for 'module.func' or 'module.Class.method';
    None when the module, class or function no longer exists."""
    parts = path.split(".")
    try:
        owner = importlib.import_module("granucodec." + parts[0])
    except ImportError:
        return None
    for part in parts[1:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = vars(owner).get(parts[-1])
    return None if fn is None else (owner, parts[-1], fn)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install a wrapper for every layer; yield the names of absent layers.

    Originals are restored on exit, so code outside the block runs untraced.
    """
    replaced = []  # (owner, attribute, original)
    absent = []
    try:
        for name, (path, counter) in LAYERS.items():
            found = _resolve(path)
            if found is None:
                absent.append(name)
                continue
            owner, attr, fn = found
            wrapper = tracer.wrap(name, fn, counter)
            sites = [(owner, attr)]
            if not isinstance(owner, type):
                sites += [(mod, a) for mod_name, mod in list(sys.modules.items())
                          if mod_name.startswith("granucodec") and mod is not owner
                          for a, v in vars(mod).items() if v is fn]
            for site_owner, site_attr in sites:
                replaced.append((site_owner, site_attr, fn))
                setattr(site_owner, site_attr, wrapper)
        yield absent
    finally:
        for owner, attr, fn in reversed(replaced):
            setattr(owner, attr, fn)


# -- per-layer metrics ----------------------------------------------------------

def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for op, layers in OP_LAYERS.items():
        for layer in layers:
            units[f"{op}.{layer}.calls"] = "count"
            units[f"{op}.{layer}.self_ms"] = "ms"
        units[f"{op}.glue_self_ms"] = "ms"
    for op in ("train", "encode"):
        units[f"{op}.images"] = "count"
        units[f"{op}.analysis.pyramid.calls_per_image"] = "calls/image"
        units[f"{op}.spatial_entropy.entropy_map.ns_per_pixel"] = "ns"
        units[f"{op}.spatial_entropy.entropy_map.exp_evals_computed"] = "count"
        units[f"{op}.vq.quantize.cells_computed"] = "count"
        units[f"{op}.vq.quantize.ns_per_cell_code"] = "ns"
    units["train.vq.train_codebook.ms_per_iter"] = "ms"
    for fn in ("encode_indices", "encode_granularity_map"):
        units[f"encode.bitstream.{fn}.symbols_computed"] = "count"
        units[f"encode.bitstream.{fn}.ns_per_bit"] = "ns"
    units["decode.bitstream.decode_indices.us_per_symbol"] = "us"
    units["decode.bitstream.decode_indices.table_builds_per_decode"] = "builds/decode"
    for fn in ("assemble_hybrid", "conditional_decode", "synthesize_image"):
        units[f"decode.reconstruction.{fn}.ns_per_pixel"] = "ns"
    units["vq.lookup.calls"] = "count"
    units["vq.lookup.discarded_ratio"] = "ratio"
    units["trace.absent_layers"] = "count"
    units["trace.traced_wall_ms"] = "ms"
    units["trace.self_sum_ms"] = "ms"
    units["trace.codec_untraced_ms"] = "ms"
    units["trace.codec_traced_ms"] = "ms"
    units["trace.overhead_ms"] = "ms"
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, absent: list[str], untraced_codec_s: float,
                  traced_wall_s: float, traced_codec_s: float) -> dict[str, float]:
    """Aggregate the spans into the metrics named by metric_units().

    traced_wall_s is the benchmark's own timing of every traced operation;
    the self times of all spans should add up to it. The overhead compares
    the setup, encode and decode operations, run once untraced
    (untraced_codec_s) and once traced (traced_codec_s)."""
    own = tracer.self_times()
    op_kind = {s.op_id: s.name[3:] for s in tracer.spans if s.parent is None}
    calls, self_s, counts = {}, {}, {}
    for s in tracer.spans:
        key = (op_kind[s.op_id], "glue" if s.parent is None else s.name)
        calls[key] = calls.get(key, 0) + 1
        self_s[key] = self_s.get(key, 0.0) + own[s.span_id]
        bucket = counts.setdefault(key, {})
        for c, v in s.counts.items():
            bucket[c] = bucket.get(c, 0) + v

    def count(op, layer, what):
        return counts.get((op, layer), {}).get(what, 0)

    def ns(op, layer):
        return self_s.get((op, layer), 0.0) * 1e9

    m = {}
    for op, layers in OP_LAYERS.items():
        for layer in layers:
            m[f"{op}.{layer}.calls"] = calls.get((op, layer), 0)
            m[f"{op}.{layer}.self_ms"] = self_s.get((op, layer), 0.0) * 1e3
        m[f"{op}.glue_self_ms"] = self_s.get((op, "glue"), 0.0) * 1e3
    for op in ("train", "encode"):
        images = count(op, "glue", "images")
        m[f"{op}.images"] = images
        m[f"{op}.analysis.pyramid.calls_per_image"] = _ratio(
            calls.get((op, "analysis.pyramid"), 0), images)
        em = "spatial_entropy.entropy_map"
        m[f"{op}.{em}.ns_per_pixel"] = _ratio(ns(op, em), count(op, em, "pixels"))
        m[f"{op}.{em}.exp_evals_computed"] = count(op, em, "exp_evals_computed")
        m[f"{op}.vq.quantize.cells_computed"] = count(op, "vq.quantize", "cells_computed")
        m[f"{op}.vq.quantize.ns_per_cell_code"] = _ratio(
            ns(op, "vq.quantize"), count(op, "vq.quantize", "cell_codes_computed"))
    m["train.vq.train_codebook.ms_per_iter"] = _ratio(
        ns("train", "vq.train_codebook") / 1e6, count("train", "vq.train_codebook", "iters"))
    for fn in ("encode_indices", "encode_granularity_map"):
        layer = "bitstream." + fn
        m[f"encode.{layer}.symbols_computed"] = count("encode", layer, "symbols_computed")
        m[f"encode.{layer}.ns_per_bit"] = _ratio(ns("encode", layer),
                                                 count("encode", layer, "bits"))
    di = "bitstream.decode_indices"
    m[f"decode.{di}.us_per_symbol"] = _ratio(ns("decode", di) / 1e3,
                                            count("decode", di, "symbols"))
    # decode_indices rebuilds its prefix tables on every call
    m[f"decode.{di}.table_builds_per_decode"] = _ratio(
        calls.get(("decode", di), 0), calls.get(("decode", "pipeline.decode_image"), 0))
    for fn in ("assemble_hybrid", "conditional_decode", "synthesize_image"):
        layer = "reconstruction." + fn
        m[f"decode.{layer}.ns_per_pixel"] = _ratio(
            ns("decode", layer), count("decode", layer, "pixels_computed"))
    # quantize returns the quantized grid, which every encoder caller drops
    by_id = {s.span_id: s for s in tracer.spans}
    lookups = [s for s in tracer.spans if s.name == "vq.lookup"]
    discarded = sum(1 for s in lookups if by_id[s.parent].name == "vq.quantize")
    m["vq.lookup.calls"] = len(lookups)
    m["vq.lookup.discarded_ratio"] = _ratio(discarded, len(lookups))
    m["trace.absent_layers"] = len(absent)
    m["trace.traced_wall_ms"] = traced_wall_s * 1e3
    m["trace.self_sum_ms"] = sum(own) * 1e3
    m["trace.codec_untraced_ms"] = untraced_codec_s * 1e3
    m["trace.codec_traced_ms"] = traced_codec_s * 1e3
    m["trace.overhead_ms"] = (traced_codec_s - untraced_codec_s) * 1e3
    return m
