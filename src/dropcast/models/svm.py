"""Linear SVM trained by mini-batch primal subgradient descent.

Minimizes  0.5 * ||w||^2 + C * sum_i hinge(y_i * (w . x_i + b))  with
labels mapped to {-1, +1}. The optimizer is the Pegasos schedule: the
bias is folded in as a constant input column (and therefore regularized
with the weights), lambda = 1 / (C * n), each update uses a mini-batch
of a seeded epoch shuffle with step size 1 / (lambda * t), followed by
projection onto the ball of radius 1 / sqrt(lambda). Each epoch gathers
its shuffled rows once and takes the batches as consecutive slices. A
step's subgradient push is the sum of y * x over the batch's margin
violators (Shalev-Shwartz et al. 2011), computed as one product over
the whole batch, (y * violator) @ x, with every other row weighted 0;
so its float sums run over the full batch. The full objective
is evaluated after every epoch and the best (w, b) seen is kept, so the
reported objective can never exceed its value at w = 0, which is C * n.

Inputs are expected standardized; the schedule is tuned for unit-scale
features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidArgumentError
from ..rng import SeededRng

BATCH_SIZE = 64
_MAX_NORM = float(np.sqrt(np.finfo(np.float64).max))


@dataclass(frozen=True)
class LinearSvm:
    weights: np.ndarray
    bias: float
    objective: float
    epochs: int


def _objective(xb: np.ndarray, y_signed: np.ndarray, w: np.ndarray, c: float) -> float:
    margins = y_signed * (xb @ w)
    hinge = np.maximum(0.0, 1.0 - margins).sum()
    return 0.5 * float(w @ w) + c * float(hinge)


def train_svm(
    x: np.ndarray, y: np.ndarray, c: float, epochs: int, seed: int
) -> LinearSvm:
    """Pegasos fit. C is rejected unless B = sqrt(C n) + C n R is below
    sqrt(float max), with R = sqrt(p + 1) max|[x, 1]| bounding row norms:
    step t (eta = C n / t) moves an iterate of norm <= sqrt(C n), the
    projection radius, to norm <= (1 - 1/t) sqrt(C n) + (C n / t) R <= B.
    So every squared norm stays finite, as do margins (<= sqrt(C n) R)
    and the objective (<= C n + (C n)^1.5 R < B^2).
    """
    n, p = x.shape
    if int(y.sum()) in (0, n):
        raise InvalidArgumentError("linear SVM training needs both classes present")
    y_signed = np.where(y == 1, 1.0, -1.0)
    xb = np.concatenate([x, np.ones((n, 1))], axis=1)

    cn = c * n
    if not cn**0.5 + cn * (p + 1) ** 0.5 * float(np.abs(xb).max()) < _MAX_NORM:
        raise InvalidArgumentError(
            f"SVM C = {c!r} is too large for {n} training rows: Pegasos steps could overflow"
        )
    lam = 1.0 / cn
    radius = 1.0 / np.sqrt(lam)
    rng = SeededRng(seed)
    w = np.zeros(p + 1, dtype=np.float64)
    best_w = w.copy()
    best_obj = _objective(xb, y_signed, w, c)

    t = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        x_epoch, y_epoch = xb[order], y_signed[order]
        for start in range(0, n, BATCH_SIZE):
            x_batch = x_epoch[start : start + BATCH_SIZE]
            y_batch = y_epoch[start : start + BATCH_SIZE]
            t += 1
            eta = 1.0 / (lam * t)
            violators = y_batch * (x_batch @ w) < 1.0
            w *= 1.0 - eta * lam
            w += (eta / y_batch.shape[0]) * ((y_batch * violators) @ x_batch)
            norm = math.sqrt(w @ w)
            if norm > radius:
                w *= radius / norm
        obj = _objective(xb, y_signed, w, c)
        if obj < best_obj:
            best_obj = obj
            best_w = w.copy()

    weights = best_w[:p].copy()
    weights.setflags(write=False)
    return LinearSvm(
        weights=weights,
        bias=float(best_w[p]),
        objective=best_obj,
        epochs=epochs,
    )


def svm_scores(model: LinearSvm, x: np.ndarray) -> np.ndarray:
    return x @ model.weights + model.bias
