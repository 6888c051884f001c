"""Meta classifiers: logistic regression and a small MLP, from scratch.

Both model kinds are one feed-forward model, `MlpModel`: a stack with
rectifier hidden activations and a sigmoid output.  Logistic regression
is the stack without a hidden layer, so the hidden layer widths are the
only architecture setting; `HIDDEN_DIMS` names the paper's two models,
and a model's kind is read from its depth.  The output is the
probability that a predicted-OoD component is a false positive.
Training minimizes batch-mean binary cross entropy with Adam
plus decoupled weight decay (applied to weights only, never biases) and
is bit-deterministic for a fixed seed: weight init draws and the
per-epoch index shuffle come from one seeded generator.

A model is its layer dims plus one flat parameter vector (per layer:
weight matrix row-major, then biases), which the optimizer, the gradient
check and the model file share; its constructor is the one place that
checks a vector against the dims.  A model file states each fact once:
a text header of `key value` lines (the layer dims, the training
configuration, the threshold, the metric names and the standardization
statistics), then the vector as one raw float32 block whose length the
layer dims fix.  `check_metrics` refuses a dataset or a sample whose
metrics differ from the recorded names, naming it.  A training step
works in place on buffers built once per `train` call: per-layer views
of the parameter and gradient vectors, the Adam moments, and the
activations of one batch.

Every BLAS call runs on the thread count that importing the package
set, one unless the user chose a count (see the package docstring).
Their gemms (rows x 75 x 75 on the reference shape) are too small to
gain from a second thread.

`remove_false_positives` labels one sample and computes its metric rows
as `features.build_metrics_dataset` does, at the threshold the model
records, scores every component in one batch and zeroes the flagged ones
in one indexed assignment.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .features import (
    MetricsDataset, StandardizationStats, _labeled_rows, metric_names, standardize,
)
from .raster import ScoreMap, _Unshared, _atomic_file, _frozen, csv_text
from .segments import ThresholdConfig

_CLAMP = 1e-12
_MODEL_MAGIC = "metaseg-model v2"
_PARAMS_LINE = b"\nparams\n"

# Hidden layer widths of the paper's two meta classifiers.
HIDDEN_DIMS = {"logistic": (), "mlp": (75, 75, 75)}


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: 1 / (1 + e^-z) where z >= 0,
    e^z / (1 + e^z) elsewhere, so no exponential overflows."""
    z = np.asarray(z, dtype=np.float64)
    # e^-|z|; `minimum` returns a nan z itself, sign bit and all.
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _check_dims(layer_dims) -> tuple:
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims) or dims[-1] != 1:
        raise ValueError(f"invalid layer dims {dims}")
    return dims


def _vector_size(dims) -> int:
    return sum(fi * fo + fo for fi, fo in zip(dims[:-1], dims[1:]))


def _unpack(dims, vec: np.ndarray):
    """Per-layer (W, b) views of a flat parameter vector of `dims`."""
    layers = []
    k = 0
    for fi, fo in zip(dims[:-1], dims[1:]):
        w = vec[k : k + fi * fo].reshape(fi, fo)
        k += fi * fo
        b = vec[k : k + fo]
        k += fo
        layers.append((w, b))
    return layers


def _decay_mask(dims) -> np.ndarray:
    parts = []
    for fi, fo in zip(dims[:-1], dims[1:]):
        parts.append(np.ones(fi * fo))
        parts.append(np.zeros(fo))
    return np.concatenate(parts)


def _buffers(dims, n: int) -> list:
    """One (n, width) array per hidden layer, for batches of up to n rows."""
    return [np.empty((n, width)) for width in dims[1:-1]]


def _forward(layers, x: np.ndarray, acts):
    """Probabilities for the rows of x and the hidden activations, which
    are written into the leading rows of the `acts` buffers; `layers`
    holds the (W, b) pairs of a core."""
    n = x.shape[0]
    a = x
    hidden = []
    for (w, b), buf in zip(layers[:-1], acts):
        h = buf[:n]
        np.matmul(a, w, out=h)
        h += b
        np.maximum(h, 0.0, out=h)
        hidden.append(h)
        a = h
    w, b = layers[-1]
    z_out = (a @ w + b)[:, 0]
    return sigmoid(z_out), hidden


def _backward(layers, grads, acts, deltas, x, y) -> float:
    """Batch-mean BCE loss; its gradient is written into `grads`, the
    (W, b) views of one flat buffer in the parameter-vector layout.
    `acts` and `deltas` are `_buffers` for at least x's rows."""
    n = x.shape[0]
    p, hidden = _forward(layers, x, acts)
    # The ufuncs np.clip and np.mean reduce to, without their dispatch cost.
    pc = np.minimum(np.maximum(p, _CLAMP), 1.0 - _CLAMP)
    loss = float(-(np.add.reduce(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)) / n))
    # Sigmoid + BCE collapse to (p - y) at the output pre-activation.
    delta = ((p - y) / n)[:, None]
    inputs = [x, *hidden]
    for li in range(len(layers) - 1, -1, -1):
        gw, gb = grads[li]
        np.matmul(inputs[li].T, delta, out=gw)
        np.add.reduce(delta, axis=0, out=gb)
        if li > 0:
            d = deltas[li - 1][:n]
            np.matmul(delta, layers[li][0].T, out=d)
            # A rectifier output is positive exactly where its input is.
            d *= inputs[li] > 0.0
            delta = d
    return loss


def glorot_init_vector(dims, rng: np.random.Generator) -> np.ndarray:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    parts = []
    for fi, fo in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fi + fo))
        parts.append(rng.uniform(-limit, limit, size=fi * fo))
        parts.append(np.zeros(fo))
    return np.concatenate(parts)


@dataclass(frozen=True, eq=False)
class MlpModel:
    """Feed-forward stack: rectifier hidden layers, sigmoid output.

    `layer_dims` are the layer widths, input first, output (one unit)
    last; `params` is the flat float64 parameter vector they fix the
    length of, kept read-only.  `layers` views it as (weights, biases)
    per layer, weights shaped (fan_in, fan_out).  A stack of one layer is
    a logistic model; `kind` reads the model kind from the depth.
    """

    layer_dims: tuple
    params: np.ndarray

    def __post_init__(self) -> None:
        dims = _check_dims(self.layer_dims)
        vec = np.asarray(self.params, dtype=np.float64)
        if vec.shape != (_vector_size(dims),):
            raise ValueError(f"layer dims {dims} take a vector of {_vector_size(dims)} "
                             f"parameters, got an array of shape {vec.shape}")
        if not np.isfinite(vec).all():
            raise ValueError(f"parameters must be finite (layer dims {dims})")
        object.__setattr__(self, "layer_dims", dims)
        object.__setattr__(self, "params", _frozen(vec, self.params))

    @property
    def layers(self) -> list:
        return _unpack(self.layer_dims, self.params)

    @property
    def kind(self) -> str:
        return "logistic" if len(self.layer_dims) == 2 else "mlp"

    @property
    def n_features(self) -> int:
        return self.layer_dims[0]

    def to_vector(self) -> np.ndarray:
        return self.params.copy()

    def with_vector(self, vec: np.ndarray) -> "MlpModel":
        return MlpModel(self.layer_dims, vec)

    @classmethod
    def from_dims(cls, dims, rng: np.random.Generator | None = None) -> "MlpModel":
        """Zero parameters, or Glorot-initialized ones drawn from `rng`."""
        dims = _check_dims(dims)
        return cls(dims, np.zeros(_vector_size(dims)) if rng is None
                   else glorot_init_vector(dims, rng))


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings; defaults follow the reference protocol."""

    learning_rate: float = 1e-3
    weight_decay: float = 5e-3
    epochs: int = 50
    batch_size: int = 128
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self) -> None:
        # Written so that nan fails every range test.
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive and finite, "
                             f"got {self.learning_rate}")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight_decay must be nonnegative and finite, "
                             f"got {self.weight_decay}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ValueError("adam betas must be in [0, 1)")
        if not 0 < self.adam_eps < np.inf:
            raise ValueError(f"adam_eps must be positive and finite, got {self.adam_eps}")


@dataclass(frozen=True)
class MetaModel:
    """A trained meta classifier: core parameters, the standardization
    statistics its inputs expect, the training configuration, and
    optionally the score threshold its dataset was built at, which
    `remove_false_positives` labels at, and the names of the metrics it
    was trained on, in column order."""

    core: MlpModel
    stats: StandardizationStats
    config: TrainConfig
    threshold: float | None = None
    feature_names: tuple | None = None

    def __post_init__(self) -> None:
        if self.stats.mean.shape[0] != self.core.n_features:
            raise ValueError("standardization statistics do not match the model")
        if self.threshold is not None:
            ThresholdConfig(self.threshold)
        if self.feature_names is not None:
            object.__setattr__(self, "feature_names", tuple(self.feature_names))
            if len(self.feature_names) != self.core.n_features:
                raise ValueError("feature names do not match the model")

    def check_metrics(self, names, of: str = "dataset") -> None:
        """Raise ValueError, naming `of` as the owner of `names`, unless
        `names` are the metrics the model was trained on, in that order; a
        model built without names accepts any."""
        names, ours = tuple(names), self.feature_names
        if ours is None or names == ours:
            return
        if len(names) != len(ours):
            msg = f"{of} has {len(names)} metrics, model was trained on {len(ours)}"
        else:
            i = next(i for i, (a, b) in enumerate(zip(names, ours)) if a != b)
            msg = f"{of} metric {i} is {names[i]!r}, model was trained on {ours[i]!r}"
        raise ValueError(msg)

    @property
    def kind(self) -> str:
        return self.core.kind

    def predict_raw_batch(self, rows: np.ndarray) -> np.ndarray:
        """Predict from un-standardized metric rows."""
        return predict_batch(self.core, self.stats.apply(rows))


def predict_batch(core: MlpModel, rows: np.ndarray) -> np.ndarray:
    """Sigmoid outputs for already-standardized metric rows."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != core.n_features:
        raise ValueError(
            f"model expects {core.n_features} features per row, "
            f"got rows of shape {rows.shape}"
        )
    p, _ = _forward(core.layers, rows, _buffers(core.layer_dims, rows.shape[0]))
    return p


def bce_loss(predictions, labels) -> float:
    """Binary cross entropy summed over the batch (not averaged),
    probabilities clamped to [1e-12, 1 - 1e-12]."""
    p = np.asarray(predictions, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if p.shape != y.shape:
        raise ValueError(f"length mismatch: {p.shape[0]} vs {y.shape[0]}")
    if p.size == 0:
        raise ValueError("empty batch")
    pc = np.clip(p, _CLAMP, 1.0 - _CLAMP)
    return float(-np.sum(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)))


def gradient(core: MlpModel, rows, labels) -> np.ndarray:
    """Analytic gradient of the batch-mean BCE (the loss the optimizer
    follows) with respect to every parameter, in the flat-vector layout."""
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    if x.shape[0] != y.shape[0]:
        raise ValueError("rows and labels must have equal length")
    dims = core.layer_dims
    flat = np.empty(_vector_size(dims))
    n = x.shape[0]
    _backward(core.layers, _unpack(dims, flat), _buffers(dims, n), _buffers(dims, n), x, y)
    return flat


def count_parameters(core: MlpModel) -> int:
    return _vector_size(core.layer_dims)


def parameter_breakdown(core: MlpModel) -> list:
    """Per-layer parameter counts (weights plus biases)."""
    dims = core.layer_dims
    return [fi * fo + fo for fi, fo in zip(dims[:-1], dims[1:])]


def train(
    dataset: MetricsDataset,
    cfg: TrainConfig,
    threshold: float | None = None,
    hidden_dims=HIDDEN_DIMS["mlp"],
):
    """Train a meta classifier; returns (MetaModel, per-epoch mean losses).

    `hidden_dims` lists the hidden layer widths: () trains logistic
    regression (see `HIDDEN_DIMS`).  Metrics are standardized internally
    and the statistics stored in the returned model.  Mini-batch Adam
    follows the batch-mean BCE; weight decay is decoupled (subtracted as
    lr * decay * weight after each Adam step) and skips biases.  The
    per-epoch shuffle and the weight init
    share one generator seeded from cfg.seed, so identical inputs give
    bit-identical parameters.  The final incomplete batch is kept.
    Its products run on the OpenBLAS thread count the package import set.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    if len(set(dataset.labels.tolist())) < 2:
        warnings.warn("training labels are single-class; the model will saturate",
                      stacklevel=2)
    std, stats = standardize(dataset)
    x = std.rows
    y = dataset.labels.astype(np.float64)

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    dims = _check_dims((dataset.num_metrics, *hidden_dims, 1))
    theta = glorot_init_vector(dims, rng)
    grad = np.empty_like(theta)
    layers, grads = _unpack(dims, theta), _unpack(dims, grad)
    batch_rows = min(n, cfg.batch_size)
    acts, deltas = _buffers(dims, batch_rows), _buffers(dims, batch_rows)
    batch = np.empty((batch_rows, x.shape[1]))
    decay = (cfg.learning_rate * cfg.weight_decay) * _decay_mask(dims)
    b1, b2, lr = cfg.adam_beta1, cfg.adam_beta2, cfg.learning_rate

    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    s1 = np.empty_like(theta)
    s2 = np.empty_like(theta)
    step = 0
    trace = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = np.take(x, idx, axis=0, out=batch[: idx.shape[0]])
            loss = _backward(layers, grads, acts, deltas, xb, y[idx])
            epoch_sum += loss * idx.shape[0]
            step += 1
            # Adam in place, keeping the float operations of
            #   m = b1*m + (1-b1)*grad;  v = b2*v + ((1-b2)*grad)*grad
            #   theta = (theta - (lr*m_hat) / (sqrt(v_hat) + eps)) - decay*theta
            # in this order: a reordering can change the trained bits.
            m *= b1
            np.multiply(grad, 1.0 - b1, out=s1)
            m += s1
            v *= b2
            np.multiply(grad, 1.0 - b2, out=s1)
            s1 *= grad
            v += s1
            np.divide(m, 1.0 - b1 ** step, out=s1)
            s1 *= lr
            np.divide(v, 1.0 - b2 ** step, out=s2)
            np.sqrt(s2, out=s2)
            s2 += cfg.adam_eps
            s1 /= s2
            np.multiply(decay, theta, out=s2)
            theta -= s1
            theta -= s2
        trace.append(epoch_sum / n)

    meta = MetaModel(MlpModel(dims, theta), stats, cfg, threshold=threshold,
                     feature_names=dataset.names)
    return meta, tuple(trace)


def remove_false_positives(sample, model: MetaModel, decision_threshold: float = 0.5):
    """Zero out the components of `sample` that the model calls false
    positives.

    `sample` is an in-memory `Sample` or a `raster.SampleFile`.  Its map
    is walked once, as `features.build_metrics_dataset` walks it, at the
    score threshold `model.threshold`: the scores are thresholded, the
    components labeled and their metric rows computed.  A model that
    records no threshold, or whose metric names are not those of the
    sample's class count, is refused before the map is read.  All rows
    are scored in one batch, and every component with predicted FP
    probability >= decision_threshold is zeroed in the score map.
    Returns (cleaned score map, ids of the kept components), ids in the
    order of `segments.label_image`.
    """
    if not 0.0 <= decision_threshold <= 1.0:
        raise ValueError("decision_threshold must be in [0, 1]")
    if model.threshold is None:
        raise ValueError("model records no score threshold to label components at")
    c = sample.dims[2]
    model.check_metrics(metric_names(c), of=f"sample {sample.id!r} (C={c})")
    image, fields, rows = _labeled_rows(sample, model.threshold)
    flag = model.predict_raw_batch(rows) >= decision_threshold
    scores = fields["ent"]
    # Label -1 (no component) reads the appended False.
    scores[np.append(flag, False)[image.labels]] = 0.0
    return ScoreMap(_Unshared(scores)), np.flatnonzero(~flag)


# ---------------------------------------------------------------------------
# Model file format: text header + raw float32 parameter block
# ---------------------------------------------------------------------------


def _float_list(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def save_model(meta: MetaModel, path) -> None:
    """Write the header, one `key value` line per fact, then a line that
    is exactly `params` and the flat parameter vector as little-endian
    float32; `layer_dims` fixes its length.  The metric names, when the
    model has them, are one CSV record on one line.  Save-load-save is
    byte-stable."""
    core = meta.core
    cfg = meta.config
    lines = [
        _MODEL_MAGIC,
        f"layer_dims {','.join(str(d) for d in core.layer_dims)}",
        *(f"{f.name} {getattr(cfg, f.name)}" for f in fields(TrainConfig)),
    ]
    if meta.threshold is not None:
        lines.append(f"threshold {repr(float(meta.threshold))}")
    if meta.feature_names is not None:
        names = csv_text([meta.feature_names])[:-1]
        if "\n" in names:
            raise ValueError("metric names must not contain a line break")
        lines.append(f"feature_names {names}")
    lines.append(f"feature_mean {_float_list(meta.stats.mean)}")
    lines.append(f"feature_sigma {_float_list(meta.stats.sigma)}")
    lines.append("params")
    # A parameter beyond float32's range would be written as inf, which
    # load_model refuses: refuse it here, before the file is opened.
    with np.errstate(over="ignore"):
        block = core.params.astype("<f4")
    bad = np.flatnonzero(~np.isfinite(block))
    if bad.size:
        raise ValueError(f"{path}: parameter {bad[0]} ({float(core.params[bad[0]])!r}) "
                         "is not finite in float32")
    with _atomic_file(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))
        fh.write(block)


def load_model(path) -> MetaModel:
    """The model `save_model` wrote to `path`.  A field that is missing,
    repeated, undefined or unparseable, a parameter block of another
    length than `layer_dims` fixes, and any value the model classes
    refuse raise ValueError naming the file."""
    data = Path(path).read_bytes()
    cut = data.find(_PARAMS_LINE)
    if not data.startswith(_MODEL_MAGIC.encode("ascii") + b"\n") or cut < 0:
        raise ValueError(f"{path}: not a model file (expected {_MODEL_MAGIC})")
    try:
        lines = data[:cut].decode("utf-8").split("\n")[1:]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: model header is not UTF-8: {exc}") from None

    defined = {"layer_dims", *(f.name for f in fields(TrainConfig)), "threshold",
               "feature_names", "feature_mean", "feature_sigma"}
    values = {}
    for line in lines:
        key, _, text = line.partition(" ")
        if key not in defined:
            raise ValueError(f"{path}: undefined model field {key!r}")
        if key in values:
            raise ValueError(f"{path}: model field {key!r} is repeated")
        values[key] = text

    def value(key, parse=str):
        if key not in values:
            raise ValueError(f"{path}: missing model field {key!r}")
        try:
            return parse(values[key])
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}: model field {key!r}: {exc}") from None

    dims = value("layer_dims", lambda s: _check_dims(int(d) for d in s.split(",")))
    block, nbytes = data[cut + len(_PARAMS_LINE) :], 4 * _vector_size(dims)
    if len(block) != nbytes:
        raise ValueError(f"{path}: parameter block is {len(block)} bytes, "
                         f"layer_dims {dims} need {nbytes}")
    # Every TrainConfig field has a default, whose type parses the value.
    config = {f.name: value(f.name, type(f.default)) for f in fields(TrainConfig)}
    mean, sigma = (
        value(key, lambda s: np.array([float(v) for v in s.split(",")]))
        for key in ("feature_mean", "feature_sigma")
    )
    threshold = value("threshold", float) if "threshold" in values else None
    # One CSV record; a lone empty name is an empty record.
    names = (value("feature_names", lambda s: tuple(next(csv.reader([s])) or [""]))
             if "feature_names" in values else None)
    try:
        # A float32 signalling NaN warns in the cast; `MlpModel` refuses it.
        with np.errstate(invalid="ignore"):
            core = MlpModel(dims, np.frombuffer(block, dtype="<f4"))
        return MetaModel(
            core=core, stats=StandardizationStats(mean=mean, sigma=sigma),
            config=TrainConfig(**config), threshold=threshold, feature_names=names,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
