"""Meta classifiers: logistic regression and a small MLP, from scratch.

Both model kinds share one computational core: a feed-forward stack with
rectifier hidden activations and a sigmoid output, specialized by its
layer dimensions (a logistic model is the no-hidden-layer case).  The
output is the probability that a predicted-OoD component is a false
positive.  Training minimizes batch-mean binary cross entropy with Adam
plus decoupled weight decay (applied to weights only, never biases) and
is bit-deterministic for a fixed seed: weight init draws and the
per-epoch index shuffle come from one seeded generator.

Parameters live in a flat vector (per layer: weight matrix row-major,
then biases), which keeps the optimizer, the gradient check, and the
model file format aligned on a single layout.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .features import MetricsDataset, StandardizationStats, standardize
from .raster import ScoreMap, atomic_write_bytes, _parse_rast, _rast_bytes

_CLAMP = 1e-12
_MODEL_MAGIC = "metaseg-model v1"
# Header fields load_model reads; `threshold` is optional.
_MODEL_FIELDS = (
    "kind", "layer_dims", "params", "learning_rate", "weight_decay", "epochs",
    "batch_size", "seed", "adam_beta1", "adam_beta2", "adam_eps",
    "feature_mean", "feature_sigma",
)

_HIDDEN_ACTIVATION = "relu"
_OUTPUT_ACTIVATION = "sigmoid"


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_dims(layer_dims) -> tuple:
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims) or dims[-1] != 1:
        raise ValueError(f"invalid layer dims {dims}")
    return dims


def _vector_size(dims) -> int:
    return sum(fi * fo + fo for fi, fo in zip(dims[:-1], dims[1:]))


def _unpack(dims, vec: np.ndarray):
    """Split a flat parameter vector into per-layer (W, b) pairs."""
    layers = []
    k = 0
    for fi, fo in zip(dims[:-1], dims[1:]):
        w = vec[k : k + fi * fo].reshape(fi, fo)
        k += fi * fo
        b = vec[k : k + fo]
        k += fo
        layers.append((w, b))
    if k != vec.shape[0]:
        raise ValueError(
            f"parameter vector has {vec.shape[0]} entries, dims {dims} need {k}"
        )
    return layers


def _decay_mask(dims) -> np.ndarray:
    parts = []
    for fi, fo in zip(dims[:-1], dims[1:]):
        parts.append(np.ones(fi * fo))
        parts.append(np.zeros(fo))
    return np.concatenate(parts)


def _forward(dims, vec: np.ndarray, x: np.ndarray):
    """Probabilities plus the per-layer caches backprop needs."""
    layers = _unpack(dims, vec)
    a = x
    acts = [a]
    pre = []
    for w, b in layers[:-1]:
        z = a @ w + b
        pre.append(z)
        a = np.maximum(z, 0.0)
        acts.append(a)
    w, b = layers[-1]
    z_out = (a @ w + b)[:, 0]
    p = sigmoid(z_out)
    return p, acts, pre, layers


def _mean_bce_gradient(dims, vec, x, y):
    """Gradient of the batch-mean BCE, flat-vector layout, plus the loss."""
    n = x.shape[0]
    p, acts, pre, layers = _forward(dims, vec, x)
    pc = np.clip(p, _CLAMP, 1.0 - _CLAMP)
    loss = float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)))
    # Sigmoid + BCE collapse to (p - y) at the output pre-activation.
    delta = ((p - y) / n)[:, None]
    grads = [None] * len(layers)
    for li in range(len(layers) - 1, -1, -1):
        w, _ = layers[li]
        gw = acts[li].T @ delta
        gb = delta.sum(axis=0)
        grads[li] = (gw, gb)
        if li > 0:
            delta = (delta @ w.T) * (pre[li - 1] > 0.0)
    flat = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
    return flat, loss


def glorot_init_vector(dims, rng: np.random.Generator) -> np.ndarray:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    parts = []
    for fi, fo in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fi + fo))
        parts.append(rng.uniform(-limit, limit, size=fi * fo))
        parts.append(np.zeros(fo))
    return np.concatenate(parts)


@dataclass(frozen=True, eq=False)
class LogisticModel:
    """Linear scorer with a sigmoid output: N_m weights plus one bias."""

    weights: np.ndarray
    bias: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if w.size < 1 or not np.isfinite(w).all() or not np.isfinite(self.bias):
            raise ValueError("logistic parameters must be finite and nonempty")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", float(self.bias))

    @property
    def layer_dims(self) -> tuple:
        return (self.weights.shape[0], 1)

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.weights, [self.bias]])

    def with_vector(self, vec: np.ndarray) -> "LogisticModel":
        n = self.n_features
        if vec.shape != (n + 1,):
            raise ValueError(f"expected {n + 1} parameters, got {vec.shape}")
        return LogisticModel(weights=vec[:n].copy(), bias=float(vec[n]))


@dataclass(frozen=True, eq=False)
class MlpModel:
    """Feed-forward stack: rectifier hidden layers, sigmoid output.

    `layers` holds (weights, biases) per layer with weights shaped
    (fan_in, fan_out); the last fan_out must be 1.  `standard` builds the
    reference shape with three hidden layers of 75 units each.
    """

    layers: tuple

    def __post_init__(self) -> None:
        fixed = []
        for w, b in self.layers:
            w = np.asarray(w, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64).reshape(-1)
            if w.ndim != 2 or b.shape[0] != w.shape[1]:
                raise ValueError("layer shapes inconsistent")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError("parameters must be finite")
            w.flags.writeable = False
            b.flags.writeable = False
            fixed.append((w, b))
        if not fixed or fixed[-1][0].shape[1] != 1:
            raise ValueError("network must end in a single output unit")
        for (w0, _), (w1, _) in zip(fixed, fixed[1:]):
            if w0.shape[1] != w1.shape[0]:
                raise ValueError("consecutive layer dims do not chain")
        object.__setattr__(self, "layers", tuple(fixed))

    @property
    def layer_dims(self) -> tuple:
        return (self.layers[0][0].shape[0],) + tuple(w.shape[1] for w, _ in self.layers)

    @property
    def n_features(self) -> int:
        return self.layers[0][0].shape[0]

    def to_vector(self) -> np.ndarray:
        return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in self.layers])

    def with_vector(self, vec: np.ndarray) -> "MlpModel":
        return MlpModel(layers=tuple(_unpack(self.layer_dims, vec)))

    @classmethod
    def standard(cls, n_features: int, rng: np.random.Generator | None = None) -> "MlpModel":
        """The reference architecture: three hidden layers of 75 units."""
        return cls.from_dims((n_features, 75, 75, 75, 1), rng)

    @classmethod
    def from_dims(cls, dims, rng: np.random.Generator | None = None) -> "MlpModel":
        dims = _check_dims(dims)
        if len(dims) < 3:
            raise ValueError("an MLP needs at least one hidden layer")
        if rng is None:
            vec = np.zeros(_vector_size(dims))
        else:
            vec = glorot_init_vector(dims, rng)
        return cls(layers=tuple(_unpack(dims, vec)))


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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ValueError("adam betas must be in [0, 1)")
        if self.adam_eps <= 0:
            raise ValueError("adam_eps must be positive")


@dataclass(frozen=True)
class MetaModel:
    """A trained meta classifier: core parameters, the standardization
    statistics its inputs expect, the training configuration, and
    optionally the score threshold its dataset was built at."""

    kind: str
    core: object
    stats: StandardizationStats
    config: TrainConfig
    threshold: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("logistic", "mlp"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.stats.mean.shape[0] != self.core.n_features:
            raise ValueError("standardization statistics do not match the model")

    def predict_raw(self, features) -> float:
        """Predict from un-standardized metrics."""
        return predict(self.core, self.stats.apply(np.asarray(features, dtype=np.float64)))

    def predict_raw_batch(self, rows: np.ndarray) -> np.ndarray:
        return predict_batch(self.core, self.stats.apply(rows))


def predict(model, features) -> float:
    """Sigmoid output for one already-standardized metric vector."""
    x = np.asarray(features, dtype=np.float64).reshape(1, -1)
    if x.shape[1] != model.n_features:
        raise ValueError(
            f"model expects {model.n_features} features, got {x.shape[1]}"
        )
    p, *_ = _forward(model.layer_dims, model.to_vector(), x)
    return float(p[0])


def predict_batch(model, rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != model.n_features:
        raise ValueError(
            f"model expects n x {model.n_features} rows, got {rows.shape}"
        )
    p, *_ = _forward(model.layer_dims, model.to_vector(), rows)
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


def bce_loss_mean(predictions, labels) -> float:
    """Batch-mean form of the loss; this is what the optimizer follows."""
    n = np.asarray(predictions).reshape(-1).shape[0]
    return bce_loss(predictions, labels) / n


def gradient(model, rows, labels) -> np.ndarray:
    """Analytic gradient of the batch-mean BCE with respect to every
    parameter, in the model's flat-vector layout."""
    core = model.core if isinstance(model, MetaModel) else model
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    if x.shape[0] != y.shape[0]:
        raise ValueError("rows and labels must have equal length")
    flat, _ = _mean_bce_gradient(core.layer_dims, core.to_vector(), x, y)
    return flat


def count_parameters(model) -> int:
    core = model.core if isinstance(model, MetaModel) else model
    return int(core.to_vector().shape[0])


def parameter_breakdown(model) -> list:
    """Per-layer parameter counts (weights plus biases)."""
    core = model.core if isinstance(model, MetaModel) else model
    dims = core.layer_dims
    return [fi * fo + fo for fi, fo in zip(dims[:-1], dims[1:])]


def _init_core(model_kind: str, n_features: int, rng: np.random.Generator,
               hidden_dims=(75, 75, 75)):
    if model_kind == "logistic":
        dims = (n_features, 1)
        vec = glorot_init_vector(dims, rng)
        return LogisticModel(weights=vec[:n_features], bias=float(vec[n_features]))
    if model_kind == "mlp":
        return MlpModel.from_dims((n_features, *hidden_dims, 1), rng)
    raise ValueError(f"unknown model kind {model_kind!r}")


def _identity_stats(n: int) -> StandardizationStats:
    return StandardizationStats(mean=np.zeros(n), sigma=np.ones(n))


def train(
    model_kind: str,
    dataset: MetricsDataset,
    cfg: TrainConfig,
    threshold: float | None = None,
    hidden_dims=(75, 75, 75),
):
    """Train a meta classifier; returns (MetaModel, per-epoch mean losses).

    Metrics are standardized internally and the statistics stored in the
    returned model.  Mini-batch Adam follows the batch-mean BCE; weight
    decay is decoupled (subtracted as lr * decay * weight after each Adam
    step) and skips biases.  The per-epoch shuffle and the weight init
    share one generator seeded from cfg.seed, so identical inputs give
    bit-identical parameters.  The final incomplete batch is kept.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    if len(set(dataset.labels.tolist())) < 2:
        warnings.warn("training labels are single-class; the model will saturate",
                      stacklevel=2)
    if n >= 2:
        std, stats = standardize(dataset)
        x = std.rows
    else:
        stats = _identity_stats(dataset.num_metrics)
        x = dataset.rows
    y = dataset.labels.astype(np.float64)

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    core = _init_core(model_kind, dataset.num_metrics, rng, hidden_dims=hidden_dims)
    dims = core.layer_dims
    theta = core.to_vector()
    mask = _decay_mask(dims)

    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step = 0
    trace = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            grad, loss = _mean_bce_gradient(dims, theta, x[idx], y[idx])
            epoch_sum += loss * idx.shape[0]
            step += 1
            m = cfg.adam_beta1 * m + (1.0 - cfg.adam_beta1) * grad
            v = cfg.adam_beta2 * v + (1.0 - cfg.adam_beta2) * grad * grad
            m_hat = m / (1.0 - cfg.adam_beta1 ** step)
            v_hat = v / (1.0 - cfg.adam_beta2 ** step)
            theta = (
                theta
                - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
                - cfg.learning_rate * cfg.weight_decay * mask * theta
            )
        trace.append(epoch_sum / n)

    meta = MetaModel(
        kind=model_kind,
        core=core.with_vector(theta),
        stats=stats,
        config=cfg,
        threshold=threshold,
    )
    return meta, tuple(trace)


def remove_false_positives(
    score: ScoreMap,
    comps,
    model: MetaModel,
    row_provider,
    decision_threshold: float = 0.5,
):
    """Zero out the pixels of components the model calls false positives.

    `row_provider` maps a component to its un-standardized metric row.
    Components with predicted FP probability >= decision_threshold are
    removed from a copy of the score map; the rest are returned.
    """
    if not 0.0 <= decision_threshold <= 1.0:
        raise ValueError("decision_threshold must be in [0, 1]")
    out = score.scores.copy()
    kept = []
    for comp in comps:
        rmin, rmax, cmin, cmax = comp.bbox
        if rmin < 0 or cmin < 0 or rmax >= score.height or cmax >= score.width:
            raise ValueError(
                f"component bbox {comp.bbox} outside "
                f"{score.height}x{score.width} score map"
            )
        p = model.predict_raw(row_provider(comp))
        if p >= decision_threshold:
            for r, c in comp.pixels:
                out[r, c] = 0.0
        else:
            kept.append(comp)
    return ScoreMap(out), kept


# ---------------------------------------------------------------------------
# Model file format: text descriptor + RAST f32 parameter block
# ---------------------------------------------------------------------------


def _float_list(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def save_model(meta: MetaModel, path) -> None:
    """Write descriptor lines then the flat parameter vector as a
    1 x 1 x P RAST block; the file round-trips bit-exactly."""
    core = meta.core
    cfg = meta.config
    lines = [
        _MODEL_MAGIC,
        f"kind {meta.kind}",
        f"n_features {core.n_features}",
        f"layer_dims {','.join(str(d) for d in core.layer_dims)}",
        f"hidden_activation {_HIDDEN_ACTIVATION}",
        f"output_activation {_OUTPUT_ACTIVATION}",
        f"learning_rate {repr(cfg.learning_rate)}",
        f"weight_decay {repr(cfg.weight_decay)}",
        f"epochs {cfg.epochs}",
        f"batch_size {cfg.batch_size}",
        f"seed {cfg.seed}",
        f"adam_beta1 {repr(cfg.adam_beta1)}",
        f"adam_beta2 {repr(cfg.adam_beta2)}",
        f"adam_eps {repr(cfg.adam_eps)}",
    ]
    if meta.threshold is not None:
        lines.append(f"threshold {repr(float(meta.threshold))}")
    lines.append(f"feature_mean {_float_list(meta.stats.mean)}")
    lines.append(f"feature_sigma {_float_list(meta.stats.sigma)}")
    vec = core.to_vector()
    lines.append(f"params {vec.shape[0]}")
    header = "\n".join(lines) + "\n"
    block = _rast_bytes(vec.reshape(1, 1, -1).astype(np.float64))
    atomic_write_bytes(path, header.encode("ascii") + block)


def load_model(path) -> MetaModel:
    data = Path(path).read_bytes()
    marker = b"\nparams "
    cut = data.find(marker)
    if not data.startswith(_MODEL_MAGIC.encode("ascii")) or cut < 0:
        raise ValueError(f"{path}: not a model file")
    newline = data.index(b"\n", cut + 1)
    header = data[:newline].decode("ascii")
    block = data[newline + 1 :]

    fields = {}
    for line in header.splitlines()[1:]:
        key, _, value = line.partition(" ")
        fields[key] = value
    for key in _MODEL_FIELDS:
        if key not in fields:
            raise ValueError(f"{path}: missing model field {key!r}")
    kind = fields["kind"]
    dims = _check_dims(int(d) for d in fields["layer_dims"].split(","))
    n_params = int(fields["params"])
    vec = _parse_rast(block, str(path)).reshape(-1)
    if vec.shape[0] != n_params or n_params != _vector_size(dims):
        raise ValueError(f"{path}: parameter block does not match layer_dims")

    if kind == "logistic":
        if len(dims) != 2:
            raise ValueError(f"{path}: logistic model with hidden layers")
        core = LogisticModel(weights=vec[: dims[0]], bias=float(vec[dims[0]]))
    elif kind == "mlp":
        core = MlpModel(layers=tuple(_unpack(dims, vec)))
    else:
        raise ValueError(f"{path}: unknown kind {kind!r}")

    cfg = TrainConfig(
        learning_rate=float(fields["learning_rate"]),
        weight_decay=float(fields["weight_decay"]),
        epochs=int(fields["epochs"]),
        batch_size=int(fields["batch_size"]),
        seed=int(fields["seed"]),
        adam_beta1=float(fields["adam_beta1"]),
        adam_beta2=float(fields["adam_beta2"]),
        adam_eps=float(fields["adam_eps"]),
    )
    stats = StandardizationStats(
        mean=np.array([float(v) for v in fields["feature_mean"].split(",")]),
        sigma=np.array([float(v) for v in fields["feature_sigma"].split(",")]),
    )
    threshold = float(fields["threshold"]) if "threshold" in fields else None
    return MetaModel(kind=kind, core=core, stats=stats, config=cfg,
                     threshold=threshold)
