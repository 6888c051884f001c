"""Span tracing for the traced benchmark run, and the per-layer metrics
computed from the spans.

`instrument` wraps the public entry points of every metaseg module (its
public functions, and the public methods and `__post_init__` of the
classes it defines) in span recorders.  Every `metaseg.*` module
attribute that refers to a wrapped function is rebound, so calls made
inside the package, such as `analysis` calling `train`, are recorded too.
Nothing under `src/` changes; the wrapping exists only in the traced
process.

A span holds its name (`<layer>.<function>`), start and end, the span
that was open when it began, its thread and the workload run id.  Spans
opened on a worker thread (the `score` pool) take the enclosing `cli.run`
span as their parent.  Spans stay in memory and are written out once,
at exit.

Self time: each instant inside a `cli.run` span is charged to the spans
that are open and have no open child at that instant; when several
threads are busy at once the instant is split evenly between them.  On
one thread this is exactly "span duration minus the time its children
cover", and across threads it keeps the sum of all self times equal to
the summed `cli.run` durations; `layer_metrics` reports the residual of
that identity so every traced run checks it.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import os
import sys
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "synth", "raster", "scoring", "segments", "features",
          "metaclf", "analysis")
ROOT = "cli.run"
_RANK_FUNCS = {"analysis.auroc", "analysis.auprc", "analysis.fpr_at_95_tpr",
               "analysis.roc_points", "analysis.pr_points"}
_RASTER_LOADS = {"raster.load_probability_map", "raster.load_score_map",
                 "raster.load_mask"}
_CSV_FUNCS = {"features.save_metrics_csv", "features.load_metrics_csv"}


class Recorder:
    """In-memory span store for one workload run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counters = Counter()
        self.root = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self.root
            sid = next(self._ids)
            is_root = name == ROOT and not stack
            if is_root:
                self.root = sid
            stack.append(sid)
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.process_time()
                stack.pop()
                if is_root:
                    self.root = None
                self.spans.append((sid, name, parent, threading.get_ident(),
                                   t0, t1, c0, c1))
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counters, bound.arguments, result)
            return result

        return traced

    def dump(self, path) -> None:
        """Write the spans and counters as one JSON document."""
        doc = {
            "run_id": self.run_id,
            "fields": ["id", "name", "parent", "thread", "start", "end",
                       "cpu_start", "cpu_end"],
            "spans": sorted(self.spans),
            "counters": dict(self.counters),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# Counters recorded at layer boundaries
# ---------------------------------------------------------------------------


def _count_read(c, a, _):
    c["raster.read_bytes"] += os.path.getsize(a["path"])


def _count_write(c, a, _):
    c["raster.write_bytes"] += len(a["data"])


def _count_scored(c, _, result):
    c["scoring.pixels"] += result.scores.size


def _count_components(c, _, result):
    c["segments.components"] += len(result)
    c["segments.hot_pixels"] += sum(comp.size for comp in result)


def _count_rows(c, _, result):
    c["features.rows"] += len(result)


def _count_standardize(c, a, _):
    rows = a["dataset"].rows
    c["features.cols"] += rows.shape[1]
    c["features.live_cols"] += int((rows.std(axis=0) != 0.0).sum())


def _count_train(c, a, _):
    cfg = a["cfg"]
    c["metaclf.fits"] += 1
    c["metaclf.steps"] += cfg.epochs * math.ceil(len(a["dataset"]) / cfg.batch_size)


def _count_predict_batch(c, _, result):
    c["metaclf.predict_rows"] += len(result)


def _count_predict(c, _, __):
    c["metaclf.predict_rows"] += 1


def _count_ranked(c, a, _):
    c["analysis.ranked_items"] += len(a["scores"])


def _count_folds(c, a, _):
    c["analysis.loo_folds"] += len(set(a["dataset"].group_ids))


def _count_scenes(c, _, result):
    c["synth.scenes"] += len(result)


_COUNTERS = {
    "raster.load_probability_map": _count_read,
    "raster.load_score_map": _count_read,
    "raster.load_mask": _count_read,
    "raster.atomic_write_bytes": _count_write,
    "scoring.anomaly_score_map": _count_scored,
    "segments.extract_labeled_components": _count_components,
    "features.build_metrics_dataset": _count_rows,
    "features.standardize": _count_standardize,
    "metaclf.train": _count_train,
    "metaclf.predict_batch": _count_predict_batch,
    "metaclf.predict": _count_predict,
    "analysis.auroc": _count_ranked,
    "analysis.auprc": _count_ranked,
    "analysis.fpr_at_95_tpr": _count_ranked,
    "analysis.roc_points": _count_ranked,
    "analysis.pr_points": _count_ranked,
    "analysis.loo_scores": _count_folds,
    "synth.generate": _count_scenes,
}


def instrument(recorder: Recorder) -> None:
    """Wrap every public entry point of metaseg's layer modules and rebind
    all module attributes that refer to them."""
    replaced = {}
    for layer in LAYERS:
        mod = sys.modules[f"metaseg.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                name = f"{layer}.{attr}"
                replaced[obj] = recorder.wrap(name, obj, _COUNTERS.get(name))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                _instrument_class(recorder, layer, obj)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "metaseg" and not mod_name.startswith("metaseg."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])


def _instrument_class(recorder: Recorder, layer: str, cls) -> None:
    for attr, obj in list(vars(cls).items()):
        if attr.startswith("_") and attr != "__post_init__":
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if inspect.isfunction(obj):
            setattr(cls, attr, recorder.wrap(name, obj))
        elif isinstance(obj, (classmethod, staticmethod)):
            setattr(cls, attr, type(obj)(recorder.wrap(name, obj.__func__)))


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def self_times(spans) -> dict:
    """Self time of every span id, by the rule in the module docstring.

    `spans` are (id, name, parent, thread, start, end, ...) tuples.
    """
    events = []
    for sp in spans:
        events.append((sp[4], 1, sp[0]))
        events.append((sp[5], 0, sp[0]))
    events.sort()
    parent = {sp[0]: sp[2] for sp in spans}
    open_children = defaultdict(int)
    running = set()
    leaves = set()
    out = dict.fromkeys(parent, 0.0)
    last = None
    for t, is_start, sid in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                out[leaf] += share
        last = t
        p = parent[sid]
        if is_start:
            running.add(sid)
            leaves.add(sid)
            if p is not None:
                open_children[p] += 1
                leaves.discard(p)
        else:
            running.discard(sid)
            leaves.discard(sid)
            if p is not None:
                open_children[p] -= 1
                if open_children[p] == 0 and p in running:
                    leaves.add(p)
    return out


def _outermost(spans, names, by_id):
    """Spans named in `names` with no ancestor also named in `names`."""
    out = []
    for sp in spans:
        if sp[1] not in names:
            continue
        p = sp[2]
        while p is not None and by_id[p][1] not in names:
            p = by_id[p][2]
        if p is None:
            out.append(sp)
    return out


def _inclusive(spans, names, by_id) -> float:
    return sum(sp[5] - sp[4] for sp in _outermost(spans, names, by_id))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(doc: dict) -> dict:
    """Per-layer metrics of one traced run from its dumped span document.

    Layers the workload does not reach report 0.  Also returns the
    self-time identity residual under `trace.identity_residual_s`.
    """
    spans = [tuple(sp) for sp in doc["spans"]]
    counters = Counter(doc["counters"])
    by_id = {sp[0]: sp for sp in spans}
    selfs = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for sp in spans:
        layer_self[sp[1].split(".", 1)[0]] += selfs[sp[0]]
    roots = [sp for sp in spans if sp[2] is None]
    root_total = sum(sp[5] - sp[4] for sp in roots)
    root_self = sum(selfs[sp[0]] for sp in roots)

    def under(sp, name):
        while sp is not None:
            if sp[1] == name:
                return True
            sp = by_id.get(sp[2])
        return False

    extract_self = sum(selfs[sp[0]] for sp in spans
                       if sp[1].startswith("features.")
                       and under(sp, "features.build_metrics_dataset"))
    metaclf_top = _outermost(spans, {sp[1] for sp in spans
                                     if sp[1].startswith("metaclf.")}, by_id)
    train_s = _inclusive(spans, {"metaclf.train"}, by_id)
    read_s = _inclusive(spans, _RASTER_LOADS, by_id)
    score_s = _inclusive(spans, {"scoring.anomaly_score_map"}, by_id)

    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    m.update({
        "synth.scenes": counters["synth.scenes"],
        "raster.read_bytes": counters["raster.read_bytes"],
        "raster.write_bytes": counters["raster.write_bytes"],
        "raster.read_mb_per_s": _ratio(counters["raster.read_bytes"] / 1e6, read_s),
        "scoring.pixels": counters["scoring.pixels"],
        "scoring.mpix_per_s": _ratio(counters["scoring.pixels"] / 1e6, score_s),
        "segments.hot_pixels": counters["segments.hot_pixels"],
        "segments.components": counters["segments.components"],
        "features.rows": counters["features.rows"],
        "features.ms_per_row": _ratio(1e3 * extract_self, counters["features.rows"]),
        "features.csv_s": _inclusive(spans, _CSV_FUNCS, by_id),
        "features.live_col_frac": _ratio(counters["features.live_cols"],
                                         counters["features.cols"]),
        "metaclf.cpu_s": sum(sp[7] - sp[6] for sp in metaclf_top),
        "metaclf.fits": counters["metaclf.fits"],
        "metaclf.steps": counters["metaclf.steps"],
        "metaclf.ms_per_step": _ratio(1e3 * train_s, counters["metaclf.steps"]),
        "metaclf.predict_rows": counters["metaclf.predict_rows"],
        "analysis.rank_s": _inclusive(spans, _RANK_FUNCS, by_id),
        "analysis.ranked_items": counters["analysis.ranked_items"],
        "analysis.loo_folds": counters["analysis.loo_folds"],
        "analysis.svg_s": _inclusive(spans, {"analysis.svg_line_plot"}, by_id),
        "trace.coverage_frac": _ratio(root_total - root_self, root_total),
        "trace.root_s": root_total,
        "trace.spans": len(spans),
        "trace.identity_residual_s": sum(layer_self.values()) - root_total,
    })
    return m
