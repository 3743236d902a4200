"""Exact k-nearest neighbors on Euclidean distance.

Scores are the positive fraction among the k closest training rows.
Distances are the squared Euclidean distances of brute force,
``((q - t) ** 2).sum()`` over the feature axis, and distance ties at the
k-th position break toward the lower training-row index. Inputs are
expected standardized.

Queries are processed in blocks. Per block, one matrix product gives
every (query, training row) distance in Gram form,
``approx = |q|^2 + |t|^2 - 2 q.t``, together with a per-pair bound
``E >= |approx - D|``, where ``D`` is the brute-force distance in
floating point. Let ``T`` be the k-th smallest ``approx + E`` of a
query: at least k rows have ``D <= T``, so every row that can be among
the k nearest has ``approx - E <= T``. Only these candidate rows get
their brute-force distance computed, with the same expression and the
same summation order as brute force; they are sorted by (distance,
training row) and the first k are taken. The chosen rows, their order
and hence every score are the same as brute force gives, ties included.

The bound, for p features, unit roundoff u = 2**-53,
gamma_m = m u / (1 - m u) and s = |q|^2 + |t|^2 (Higham, *Accuracy
and Stability of Numerical Algorithms*, 2002, sections 3.1 and 4.2;
valid for any summation order, so for BLAS blocking and FMA too):

- the dot products |q|^2, |t|^2 and q.t have errors of at most
  gamma_p |q|^2, gamma_p |t|^2 and gamma_p s / 2; adding the three
  terms rounds twice more, so ``|approx - d| <= 2 gamma_{p+2} s`` with
  d the exact distance;
- brute force rounds each difference (which is then squared), each
  square, and p - 1 sums: p + 2 factors per term, so
  ``|D - d| <= gamma_{p+2} d <= 2 gamma_{p+2} s``;
- hence ``|approx - D| <= 4 gamma_{p+2} s``. The code uses
  ``4 gamma_{p+4}`` times the computed s: the two extra steps cover the
  rounding of the computed s and of E itself (for p below 10**8).
  Underflow adds at most 2**-1075 per product, less than
  (5p + 1) 2**-1075 per pair, which the ``p * 2**-1022`` term covers.

Rounding is monotone, so the rounded band test keeps every row the
exact one keeps. When a block's squared norms could overflow (or are
not finite), every pair of the block is a candidate: plain brute force.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidArgumentError

# cap on query rows * training rows per block, and on candidate pairs *
# features per step of the brute-force recomputation
_CHUNK_ELEMENTS = 1 << 16
_NORM_LIMIT = 2.0**1000  # |q|^2 + |t|^2 below this cannot overflow the band


@dataclass(frozen=True)
class KnnModel:
    train_x: np.ndarray
    train_y: np.ndarray
    k: int


def train_knn(x: np.ndarray, y: np.ndarray, k: int) -> KnnModel:
    if x.shape[0] < k:
        raise InvalidArgumentError(
            f"k-NN with k={k} needs at least {k} training rows, got {x.shape[0]}"
        )
    train_x = np.array(x, dtype=np.float64)
    train_y = np.array(y, dtype=np.float64)
    train_x.setflags(write=False)
    train_y.setflags(write=False)
    return KnnModel(train_x=train_x, train_y=train_y, k=k)


def knn_scores(model: KnnModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    n_query = x.shape[0]
    if n_query == 0:
        return np.zeros(0, dtype=np.float64)
    train_x = model.train_x
    n_train, n_features = train_x.shape
    m = n_features + 4
    u = np.finfo(np.float64).eps / 2
    coef = 4.0 * m * u / (1.0 - m * u)
    tiny = n_features * np.finfo(np.float64).tiny
    train_sq = np.einsum("ij,ij->i", train_x, train_x)
    rows = max(1, _CHUNK_ELEMENTS // n_train)
    out = np.empty(n_query, dtype=np.float64)
    for start in range(0, n_query, rows):
        q = x[start : start + rows]
        q_sq = np.einsum("ij,ij->i", q, q)
        if q_sq.max() + train_sq.max() <= _NORM_LIMIT:
            approx = q @ train_x.T
            approx *= -2.0
            approx += q_sq[:, None]
            approx += train_sq
            err = np.add.outer(q_sq, train_sq)
            err *= coef
            err += tiny
            high = approx + err
            high.partition(model.k - 1, axis=1)
            approx -= err
            candidates = approx <= high[:, model.k - 1, None]
        else:
            candidates = np.ones((q.shape[0], n_train), dtype=bool)
        chosen = _k_nearest(q, train_x, candidates, model.k)
        out[start : start + rows] = model.train_y[chosen].mean(axis=1)
    return out


def _k_nearest(q, train_x, candidates, k) -> np.ndarray:
    """Per query, the k candidate training rows of least brute-force
    distance, ties to the lower row, in (distance, row) order."""
    qi, ti = np.nonzero(candidates)
    dist = np.empty(qi.size, dtype=np.float64)
    step = max(1, _CHUNK_ELEMENTS // max(1, train_x.shape[1]))
    for s in range(0, qi.size, step):
        diff = q[qi[s : s + step]] - train_x[ti[s : s + step]]
        dist[s : s + step] = (diff * diff).sum(axis=-1)
    order = np.lexsort((ti, dist, qi))
    counts = np.bincount(qi, minlength=q.shape[0])
    first = np.cumsum(counts) - counts
    return ti[order[first[:, None] + np.arange(k)]]
