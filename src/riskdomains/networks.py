"""MLP and RBF classifiers, Adam, inverted dropout, and k-means.

Everything here runs on plain float64 numpy arrays and a single
np.random.Generator per training run, so a (data, config, seed) triple
always reproduces bit-identical parameters. Dropout masks are drawn only
inside the training loop; mlp_forward and rbf_forward are inference passes.
The RBF layer has PROTOTYPES_PER_DOMAIN k-means prototypes per domain and
one shared width d_max / sqrt(2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .domains import CLASSIFIED_DOMAINS, N_CLASSIFIED
from .errors import ConfigError, DataError, NumericalError

HIDDEN = 100
PROTOTYPES_PER_DOMAIN = 50
# Inverted dropout rates, read only while training: the MLP's two hidden
# layers, and the RBF network's input.
MLP_DROPOUT = (0.2, 0.5)
RBF_DROPOUT = 0.2
ADAM_LR = 0.001
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _check_shapes(model: str, **expected: tuple[np.ndarray, tuple | None]) -> None:
    """DataError naming the first parameter (keyword) whose array is not of
    its expected shape; a shape of None accepts any matrix."""
    for name, (array, shape) in expected.items():
        if (array.ndim != 2) if shape is None else (array.shape != shape):
            want = "a matrix" if shape is None else f"shape {list(shape)}"
            raise DataError(
                f"{model} parameter {name} has shape {list(array.shape)}, "
                f"expected {want}"
            )


@dataclass
class MlpModel:
    """Three affine blocks k->H1->H2->7 with ReLU, ReLU, sigmoid; trained H = HIDDEN."""

    w1: np.ndarray  # (k, H1)
    b1: np.ndarray  # (H1,)
    w2: np.ndarray  # (H1, H2)
    b2: np.ndarray  # (H2,)
    w3: np.ndarray  # (H2, 7)
    b3: np.ndarray  # (7,)

    def __post_init__(self):
        _check_shapes("mlp", w1=(self.w1, None), w3=(self.w3, None))
        h1, h2 = self.w1.shape[1], self.w3.shape[0]
        _check_shapes(
            "mlp", b1=(self.b1, (h1,)), w2=(self.w2, (h1, h2)), b2=(self.b2, (h2,)),
            w3=(self.w3, (h2, N_CLASSIFIED)), b3=(self.b3, (N_CLASSIFIED,)),
        )

    def params(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2,
                "w3": self.w3, "b3": self.b3}

    def scores(self, x: np.ndarray) -> np.ndarray:
        return mlp_forward(self, x)


@dataclass
class RbfModel:
    """Gaussian layer over fixed prototypes plus one trained linear layer."""

    prototypes: np.ndarray  # (H, k)
    width: float            # finite, > 0
    w: np.ndarray           # (H, 7)
    b: np.ndarray           # (7,)

    def __post_init__(self):
        _check_shapes("rbf", prototypes=(self.prototypes, None))
        h = self.prototypes.shape[0]
        _check_shapes("rbf", w=(self.w, (h, N_CLASSIFIED)), b=(self.b, (N_CLASSIFIED,)))
        if not (np.isfinite(self.width) and self.width > 0.0):
            raise DataError(f"rbf width must be finite and positive, got {self.width}")

    def params(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "b": self.b}

    def scores(self, x: np.ndarray) -> np.ndarray:
        return rbf_forward(self, x)


@dataclass
class AdamState:
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 128
    seed: int = 0
    loss: str = "cce"  # cce | bce | mse

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.loss not in ("cce", "bce", "mse"):
            raise ConfigError(f"unknown loss kind {self.loss!r}")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def dropout_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """Inverted dropout: zero with probability rate, else scale by 1/(1-rate)."""
    if rate <= 0.0:
        return np.ones(shape)
    if rate >= 1.0:
        raise ConfigError(f"dropout rate must be < 1, got {rate}")
    return (rng.random(shape) >= rate) / (1.0 - rate)


def one_hot(domain_indices: np.ndarray) -> np.ndarray:
    y = np.zeros((len(domain_indices), N_CLASSIFIED))
    y[np.arange(len(domain_indices)), domain_indices] = 1.0
    return y


def init_mlp(input_dim: int, rng: np.random.Generator) -> MlpModel:
    return MlpModel(
        w1=_glorot(rng, input_dim, HIDDEN),
        b1=np.zeros(HIDDEN),
        w2=_glorot(rng, HIDDEN, HIDDEN),
        b2=np.zeros(HIDDEN),
        w3=_glorot(rng, HIDDEN, N_CLASSIFIED),
        b3=np.zeros(N_CLASSIFIED),
    )


def mlp_forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Inference scores in (0,1), without dropout."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.w1.shape[0]:
        raise DataError(
            f"mlp input dimension {x.shape[1]} does not match model "
            f"{model.w1.shape[0]}"
        )
    _, _, _, _, _, _, p = _mlp_pass(model, x, None)
    return p


def _mlp_pass(model: MlpModel, x: np.ndarray, masks):
    z1 = x @ model.w1 + model.b1
    a1 = np.maximum(z1, 0.0)
    d1 = a1 * masks[0] if masks is not None else a1
    z2 = d1 @ model.w2 + model.b2
    a2 = np.maximum(z2, 0.0)
    d2 = a2 * masks[1] if masks is not None else a2
    z3 = d2 @ model.w3 + model.b3
    p = _sigmoid(z3)
    return z1, d1, z2, d2, z3, x, p


def _loss_and_dz(
    p: np.ndarray, z: np.ndarray, y: np.ndarray, kind: str,
    sigmoid_output: bool = True,
):
    """Batch-mean loss and its gradient at the output pre-activation z.

    cce: -sum_c y_c ln p_c over sigmoid outputs (true-class terms only),
         so dL/dz_c = -y_c (1 - p_c).
    bce: independent binary cross entropy summed over the 7 outputs.
    mse: mean squared error over outputs p; with sigmoid_output the chain
         picks up p(1-p), otherwise p is the pre-activation itself.
    cce and bce always assume p = sigmoid(z).
    """
    n = p.shape[0]
    if kind == "cce":
        logp = -np.logaddexp(0.0, -z)  # log sigmoid(z), stable
        loss = float(-(y * logp).sum() / n)
        dz = -(y * (1.0 - p)) / n
    elif kind == "bce":
        loss = float(
            (y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)).sum() / n
        )
        dz = (p - y) / n
    elif kind == "mse":
        diff = p - y
        loss = float((diff * diff).mean())
        dz = 2.0 * diff / diff.size
        if sigmoid_output:
            dz = dz * p * (1.0 - p)
    else:
        raise ConfigError(f"unknown loss kind {kind!r}")
    return loss, dz


def mlp_loss_and_grads(
    model: MlpModel,
    x: np.ndarray,
    y: np.ndarray,
    kind: str = "cce",
    masks=None,
) -> tuple[float, dict[str, np.ndarray]]:
    """One forward/backward pass; masks=None disables dropout (for checks)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    z1, d1, z2, d2, z3, xin, p = _mlp_pass(model, x, masks)
    loss, dz3 = _loss_and_dz(p, z3, y, kind)
    dw3 = d2.T @ dz3
    db3 = dz3.sum(axis=0)
    dd2 = dz3 @ model.w3.T
    if masks is not None:
        dd2 = dd2 * masks[1]
    dz2 = dd2 * (z2 > 0.0)
    dw2 = d1.T @ dz2
    db2 = dz2.sum(axis=0)
    dd1 = dz2 @ model.w2.T
    if masks is not None:
        dd1 = dd1 * masks[0]
    dz1 = dd1 * (z1 > 0.0)
    dw1 = xin.T @ dz1
    db1 = dz1.sum(axis=0)
    grads = {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2, "w3": dw3, "b3": db3}
    return loss, grads


def adam_step(
    state: AdamState, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]
) -> None:
    """Standard bias-corrected Adam update, in place."""
    state.t += 1
    t = state.t
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(g)
            state.v[name] = np.zeros_like(g)
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        mhat = m / (1.0 - ADAM_BETA1**t)
        vhat = v / (1.0 - ADAM_BETA2**t)
        params[name] -= ADAM_LR * mhat / (np.sqrt(vhat) + ADAM_EPS)


def _check_training_inputs(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape[0] == 0:
        raise DataError("cannot train on empty data")
    if y.shape != (x.shape[0], N_CLASSIFIED):
        raise DataError(
            f"targets must be one-hot over {N_CLASSIFIED} domains, got {y.shape}"
        )
    row_sums = y.sum(axis=1)
    if not (np.all(row_sums == 1.0) and np.all((y == 0.0) | (y == 1.0))):
        raise DataError("targets must be one-hot rows")


def _train(x, y, config: TrainConfig, init, batch_loss):
    """Minibatch Adam for exactly epochs*ceil(N/batch) steps.

    init(x, rng) builds the model; batch_loss(model, xb, yb, rng) returns
    one batch's loss and gradients, drawing its dropout masks from rng
    after the epoch permutation. Returns the model and the per-epoch mean
    training loss.
    """
    config.validate()
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_training_inputs(x, y)
    rng = np.random.default_rng(config.seed)
    model = init(x, rng)
    state = AdamState()
    params = model.params()
    n = x.shape[0]
    history: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, grads = batch_loss(model, x[idx], y[idx], rng)
            if not np.isfinite(loss):
                raise NumericalError(
                    f"non-finite training loss at epoch {epoch + 1}, "
                    f"batch {n_batches + 1}"
                )
            adam_step(state, params, grads)
            epoch_loss += loss
            n_batches += 1
        history.append(epoch_loss / n_batches)
    return model, history


def train_mlp(
    x: np.ndarray, y: np.ndarray, config: TrainConfig
) -> tuple[MlpModel, list[float]]:
    """Train all three MLP layers with minibatch Adam and inverted dropout."""

    def batch_loss(model, xb, yb, rng):
        masks = tuple(
            dropout_mask(rng, (len(xb), HIDDEN), rate) for rate in MLP_DROPOUT
        )
        return mlp_loss_and_grads(model, xb, yb, config.loss, masks)

    return _train(
        x, y, config, lambda data, rng: init_mlp(data.shape[1], rng), batch_loss
    )


@dataclass
class KmeansResult:
    centroids: np.ndarray
    inertia: float
    history: list[float]


def _sse(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, float]:
    d2 = cdist(points, centroids, metric="sqeuclidean")
    assign = d2.argmin(axis=1)
    return assign, float(d2[np.arange(len(points)), assign].sum())


def kmeans(points: np.ndarray, k: int, seed: int) -> KmeansResult:
    """Seeded k-means++ initialization plus Lloyd iterations.

    Stops when the inertia improvement falls below 1e-6 or after 300
    iterations. Inertia is asserted non-increasing every iteration.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if n < k:
        raise DataError(f"k-means needs at least k={k} points, got {n}")
    rng = np.random.default_rng(seed)

    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = cdist(points, centroids[:1], metric="sqeuclidean").ravel()
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            pick = rng.choice(n, p=d2 / total)
        else:
            pick = rng.integers(n)
        centroids[j] = points[pick]
        d2 = np.minimum(d2, cdist(points, centroids[j : j + 1], "sqeuclidean").ravel())

    assign, inertia = _sse(points, centroids)
    history = [inertia]
    for _ in range(300):
        for j in range(k):
            members = points[assign == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
            else:
                # Deterministic fix for an emptied cluster: move it onto the
                # point currently farthest from its assigned centroid.
                dist_own = np.einsum(
                    "ij,ij->i", points - centroids[assign], points - centroids[assign]
                )
                pick = int(np.argmax(dist_own))
                centroids[j] = points[pick]
                assign[pick] = j
        assign, new_inertia = _sse(points, centroids)
        if new_inertia > inertia + 1e-9 * max(1.0, inertia):
            raise NumericalError(
                f"k-means inertia increased from {inertia} to {new_inertia}"
            )
        history.append(new_inertia)
        done = inertia - new_inertia < 1e-6
        inertia = new_inertia
        if done:
            break
    return KmeansResult(centroids=centroids, inertia=inertia, history=history)


def build_rbf_prototypes(
    vectors_by_domain: dict, per_domain_k: int = PROTOTYPES_PER_DOMAIN, seed: int = 0
) -> np.ndarray:
    """Cluster each domain's vectors separately; stack centroids in domain order."""
    blocks = []
    for i, domain in enumerate(CLASSIFIED_DOMAINS):
        vectors = np.asarray(vectors_by_domain[domain], dtype=np.float64)
        if len(vectors) < per_domain_k:
            raise DataError(
                f"domain {domain} has {len(vectors)} weakly labeled paragraphs, "
                f"fewer than its {per_domain_k} prototypes"
            )
        blocks.append(kmeans(vectors, per_domain_k, seed=seed + i).centroids)
    return np.vstack(blocks)


def compute_rbf_width(prototypes: np.ndarray) -> float:
    """Shared Gaussian width d_max / sqrt(2) over all prototypes.

    The paper's d_max / sqrt(2H) divides by the prototype count H; with 350
    prototypes in 100 dimensions that width makes every Gaussian vanish
    between prototypes, so the divisor uses a count of one.
    """
    prototypes = np.asarray(prototypes, dtype=np.float64)
    if prototypes.shape[0] < 2:
        raise DataError("need at least 2 prototypes to compute a width")
    d_max = float(cdist(prototypes, prototypes).max())
    if d_max == 0.0:
        raise DataError("all prototypes coincide; RBF width would be zero")
    return d_max / np.sqrt(2.0)


def rbf_features(model: RbfModel, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.prototypes.shape[1]:
        raise DataError(
            f"rbf input dimension {x.shape[1]} does not match prototypes "
            f"{model.prototypes.shape[1]}"
        )
    d2 = cdist(x, model.prototypes, metric="sqeuclidean")
    return np.exp(-d2 / (2.0 * model.width**2))


def rbf_forward(model: RbfModel, x: np.ndarray) -> np.ndarray:
    """Linear scores over the Gaussian hidden layer; unbounded reals."""
    return rbf_features(model, x) @ model.w + model.b


def init_rbf(
    prototypes: np.ndarray, width: float, rng: np.random.Generator
) -> RbfModel:
    h = prototypes.shape[0]
    return RbfModel(
        prototypes=np.asarray(prototypes, dtype=np.float64),
        width=float(width),
        w=_glorot(rng, h, N_CLASSIFIED),
        b=np.zeros(N_CLASSIFIED),
    )


def rbf_loss_and_grads(
    model: RbfModel,
    x: np.ndarray,
    y: np.ndarray,
    kind: str = "mse",
    input_mask: np.ndarray | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and gradients for the trained output layer only.

    The cross-entropy kinds read the linear output as a logit and apply a
    sigmoid; mse fits the linear output directly.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if input_mask is not None:
        x = x * input_mask
    h = rbf_features(model, x)
    out = h @ model.w + model.b
    sigmoid_output = kind in ("cce", "bce")
    p = _sigmoid(out) if sigmoid_output else out
    loss, dout = _loss_and_dz(p, out, y, kind, sigmoid_output)
    return loss, {"w": h.T @ dout, "b": dout.sum(axis=0)}


def train_rbf(
    prototypes: np.ndarray,
    width: float,
    x: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
) -> tuple[RbfModel, list[float]]:
    """Train the linear output layer with Adam; prototypes stay fixed."""

    def batch_loss(model, xb, yb, rng):
        mask = dropout_mask(rng, xb.shape, RBF_DROPOUT)
        return rbf_loss_and_grads(model, xb, yb, config.loss, mask)

    return _train(
        x, y, config, lambda _, rng: init_rbf(prototypes, width, rng), batch_loss
    )
