"""Spans around the calls a campaign makes into each hitemp layer.

The wrappers are installed from outside the package, at the names where
`cli` and `experiments` look the layers up, so hitemp's code is unchanged.
Spans stay in memory and are written when the campaign ends.  A layer's self
time is its spans' duration minus the time their child spans cover; the
campaign runs in one process (--workers 1), so spans nest strictly.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

# layer -> the metrics reported for it; the suffix names what is measured
LAYER_METRICS = {
    "sampler": ("sampler.matrices", "sampler.self_s", "sampler.us_per_matrix"),
    "eig.lambda_max": ("eig.lambda_max.self_s", "eig.lambda_max.us_per_matrix"),
    "eig.spectra": ("eig.spectra.self_s", "eig.spectra.us_per_matrix"),
    "eig.abs_counts": ("eig.abs_counts.self_s", "eig.abs_counts.us_per_matrix"),
    "measures": ("measures.calls", "measures.self_s"),
    "analytic.energy": ("analytic.energy.calls", "analytic.energy.self_s"),
    "partition": ("partition.self_s",),
    "experiments": ("experiments.self_s",),
    "cli": ("cli.self_s",),
}
UNITS = {"matrices": "count", "calls": "count", "self_s": "s", "us_per_matrix": "us"}


def _rows(args) -> int:
    return len(args[0])


class Tracer:
    """Records (name, parent, start, end, items) for each wrapped call."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.captured = defaultdict(list)

    def wrap(self, name, fn, items=None, capture=None):
        """Trace fn as layer `name`; items(args) counts its work, capture(args,
        result) keeps what the output checks need."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._open[-1] if self._open else -1, 0.0, 0.0, 1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if items is not None:
                span[4] = items(args)
            if capture is not None:
                self.captured[name].append(capture(args, result))
            return result

        return traced

    def install(self):
        """Wrap every layer entry point a campaign reaches, where it is looked
        up.  A name the package no longer has is skipped; its layer reads 0."""
        from hitemp import cli, eig, experiments

        def wrap(owner, attr, name, items=None, capture=None):
            if hasattr(owner, attr):
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), items, capture))

        for runner in ("run_tail_sweep", "run_esd_check", "run_tailbound_check"):
            wrap(cli, runner, "experiments")
        wrap(experiments, "sample_matrix", "sampler")
        wrap(eig, "lambda_max_batch", "eig.lambda_max", _rows, lambda args, out: out)
        wrap(eig, "batch_spectra", "eig.spectra", _rows, lambda args, out: out)
        wrap(eig, "counts_abs_at_or_above", "eig.abs_counts", _rows, lambda args, out: (args[2], out))
        for attr in ("DiscreteMeasure", "w1_to_semicircle", "ks_to_semicircle"):
            wrap(experiments, attr, "measures")
        wrap(experiments, "energy_I", "analytic.energy")
        wrap(experiments, "log_tail_bound", "partition")

    def write(self, spans_path, captured_path) -> None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
        arrays = {}
        if self.captured["eig.lambda_max"]:
            arrays["lambda_max"] = np.concatenate(self.captured["eig.lambda_max"])
        for out in self.captured["eig.spectra"]:
            key = f"spectra_{out.shape[1]}"
            arrays[key] = np.concatenate([arrays[key], out]) if key in arrays else out
        if self.captured["eig.abs_counts"]:
            arrays["abs_counts"] = np.concatenate([c for _, c in self.captured["eig.abs_counts"]])
            arrays["abs_counts_t"] = np.concatenate(
                [np.full(len(c), t) for t, c in self.captured["eig.abs_counts"]])
        np.savez(captured_path, **arrays)


def layer_metrics(spans) -> dict:
    """Per-layer work counts and self times from one traced campaign."""
    child_time = defaultdict(float)
    for _, parent, t0, t1, _ in spans:
        child_time[parent] += t1 - t0
    self_s, calls, items = defaultdict(float), defaultdict(int), defaultdict(int)
    for i, (name, _, t0, t1, n) in enumerate(spans):
        self_s[name] += t1 - t0 - child_time[i]
        calls[name] += 1
        items[name] += n
    out = {}
    for layer, names in LAYER_METRICS.items():
        for metric in names:
            kind = metric.rsplit(".", 1)[1]
            out[metric] = {
                "matrices": items[layer],
                "calls": calls[layer],
                "self_s": self_s[layer],
                "us_per_matrix": 1e6 * self_s[layer] / items[layer] if items[layer] else 0.0,
            }[kind]
    return out
