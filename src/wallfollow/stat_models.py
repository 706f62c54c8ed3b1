"""Linear discriminant analysis, Gaussian naive Bayes, k-NN and an RBF SVM.

The SVM is trained from first principles: one sequential-minimal-optimization
dual solver per one-vs-rest binary machine.  All models are deterministic
given (data, hyperparameters, seed) and predict with lowest-class-index tie
breaking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import N_CLASSES, check_count, check_finite, check_positive, check_training_set
from .parallel import fork_map
from .rng import Xoshiro256StarStar, derive_seed

LDA_RIDGE = 1e-8
GNB_SMOOTHING = 1e-9


def _class_rows(features: np.ndarray, labels: np.ndarray, min_rows: int = 1):
    """``(counts, rows, means)``: each class's row count, rows of ``features`` and their column
    means stacked (K, d), of a valid training set that holds every class."""
    check_training_set(features, labels)
    counts = np.bincount(labels, minlength=N_CLASSES)
    for k in range(N_CLASSES):
        if counts[k] == 0:
            raise ValueError(f"class {k} absent from training data")
        if counts[k] < min_rows:
            raise ValueError(f"class {k} has fewer than {min_rows} training rows")
    classes = [features[labels == k] for k in range(N_CLASSES)]
    return counts, classes, np.stack([rows.mean(axis=0) for rows in classes])


# ---------------------------------------------------------------------------
# Linear discriminant analysis
# ---------------------------------------------------------------------------

@dataclass
class LDAModel:
    coef: np.ndarray  # (K, d) rows = Sigma^-1 mu_k
    intercept: np.ndarray  # (K,)

    def __post_init__(self):
        check_finite("coef", self.coef, (N_CLASSES, None))
        check_finite("intercept", self.intercept, (N_CLASSES,))


def fit_lda(features: np.ndarray, labels: np.ndarray) -> LDAModel:
    """Pooled-covariance LDA with a small ridge before factorization.

    The discriminant is delta_k(x) = x' S^-1 mu_k - mu_k' S^-1 mu_k / 2 + log pi_k
    with S the pooled within-class covariance over n - K degrees of freedom,
    regularized by (1e-8 * trace(S) / d) I.
    """
    counts, classes, means = _class_rows(features, labels, min_rows=2)
    n, d = features.shape
    pooled = np.zeros((d, d))
    for rows, mean in zip(classes, means):
        centered = rows - mean
        pooled += centered.T @ centered
    pooled /= n - N_CLASSES
    ridge = LDA_RIDGE * np.trace(pooled) / d
    pooled = pooled + ridge * np.eye(d)
    try:
        np.linalg.cholesky(pooled)
    except np.linalg.LinAlgError as exc:
        raise ValueError("pooled covariance not positive definite after ridge") from exc
    # C-contiguous so predictions match a serialization round trip bitwise
    coef = np.ascontiguousarray(np.linalg.solve(pooled, means.T).T)
    intercept = -0.5 * (means * coef).sum(axis=1) + np.log(counts / n)
    return LDAModel(coef=coef, intercept=intercept)


def lda_decision_scores(model: LDAModel, features: np.ndarray) -> np.ndarray:
    check_finite("features", features, (None, model.coef.shape[1]))
    return features @ model.coef.T + model.intercept


def predict_lda(model: LDAModel, features: np.ndarray) -> np.ndarray:
    return lda_decision_scores(model, features).argmax(axis=1)


# ---------------------------------------------------------------------------
# Gaussian naive Bayes
# ---------------------------------------------------------------------------

@dataclass
class GNBModel:
    priors: np.ndarray  # (K,)
    means: np.ndarray  # (K, d)
    variances: np.ndarray  # (K, d), already smoothed

    def __post_init__(self):
        check_finite("priors", self.priors, (N_CLASSES,))
        if not ((self.priors > 0) & (self.priors <= 1)).all():
            raise ValueError("priors must be finite and in (0, 1]")
        check_finite("means", self.means, (N_CLASSES, None))
        check_finite("variances", self.variances, np.shape(self.means))
        if not (self.variances > 0).all():
            raise ValueError("variances must be finite and > 0")


def fit_gnb(features: np.ndarray, labels: np.ndarray) -> GNBModel:
    """Per-class Gaussian fit; variances smoothed by 1e-9 * max feature variance."""
    counts, classes, means = _class_rows(features, labels)
    n = features.shape[0]
    smoothing = GNB_SMOOTHING * float(features.var(axis=0).max())
    variances = np.stack([rows.var(axis=0) + smoothing for rows in classes])
    return GNBModel(priors=counts / n, means=means, variances=variances)


def gnb_log_posteriors(model: GNBModel, features: np.ndarray) -> np.ndarray:
    check_finite("features", features, (None, model.means.shape[1]))
    scores = np.empty((features.shape[0], model.means.shape[0]))
    for k in range(model.means.shape[0]):
        var = model.variances[k]
        log_density = -0.5 * (
            np.log(2.0 * np.pi * var) + (features - model.means[k]) ** 2 / var
        ).sum(axis=1)
        scores[:, k] = np.log(model.priors[k]) + log_density
    return scores


def predict_gnb(model: GNBModel, features: np.ndarray) -> np.ndarray:
    return gnb_log_posteriors(model, features).argmax(axis=1)


# ---------------------------------------------------------------------------
# Squared Euclidean distances
# ---------------------------------------------------------------------------

# Distance entries per block (at least one full row).  ``_sq_dists`` makes
# three numpy calls per feature on a block, so a block spans several rows to
# keep the call overhead low: 13 rows at 4910 columns.  On the 4910 x 24 Gram
# build, 2**15 to 2**17 measured alike and 2**14 and 2**18 slower.
_BLOCK = 1 << 16


def _block_rows(n_cols: int) -> int:
    return max(1, _BLOCK // max(1, n_cols))


def _sq_dists(a: np.ndarray, b_t: np.ndarray) -> np.ndarray:
    """||a_i - b_j||^2 for the rows a_i of ``a`` and the columns b_j of ``b_t``.

    The per-feature terms are added in the order numpy's pairwise summation
    adds a contiguous axis of up to 128 terms: left to right below 8 terms,
    else eight strided accumulators combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
    plus the tail.  For d <= 128 the result therefore equals
    ``((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)`` bit for bit (above,
    to rounding); kernel entries, SMO steps and accuracies never depend on the blocking.
    """
    d = b_t.shape[0]
    lanes = 8 if d >= 8 else 1
    tail = d - d % lanes
    acc = np.empty((lanes, a.shape[0], b_t.shape[1]))
    term = np.empty(acc.shape[1:])

    def square(f: int, out: np.ndarray) -> np.ndarray:
        np.subtract(a[:, f, None], b_t[f], out=out)
        return np.multiply(out, out, out=out)

    for f in range(lanes):
        square(f, acc[f])
    for f in range(lanes, tail):
        acc[f % lanes] += square(f, term)
    if lanes == 8:
        for j in (0, 2, 4, 6):
            acc[j] += acc[j + 1]
        acc[0] += acc[2]
        acc[4] += acc[6]
        acc[0] += acc[4]
    total = acc[0]
    for f in range(tail, d):
        total += square(f, term)
    return total


def _row_blocks(a: np.ndarray, b: np.ndarray):
    """Yield ``(rows, _sq_dists(a[rows], b.T))`` for consecutive row slices of ``a``,
    each holding about ``_BLOCK`` distances; ``b`` is transposed once."""
    b_t = np.ascontiguousarray(b.T)
    step = _block_rows(b.shape[0])
    for start in range(0, a.shape[0], step):
        rows = slice(start, start + step)
        yield rows, _sq_dists(a[rows], b_t)


# ---------------------------------------------------------------------------
# k-nearest neighbours
# ---------------------------------------------------------------------------

@dataclass
class KNNModel:
    train_features: np.ndarray
    train_labels: np.ndarray
    k: int

    def __post_init__(self):
        check_training_set(self.train_features, self.train_labels)
        check_count("k", self.k, 1)
        if self.k > self.train_features.shape[0]:
            raise ValueError(f"k must be <= {self.train_features.shape[0]} training rows, "
                             f"got {self.k!r}")


def fit_knn(features: np.ndarray, labels: np.ndarray, k: int) -> KNNModel:
    return KNNModel(train_features=features, train_labels=labels, k=k)


def predict_knn_batch(model: KNNModel, features: np.ndarray) -> np.ndarray:
    """Exact k-NN with majority vote.

    Distance ties resolve to the lower training-row index (stable sort);
    vote ties resolve to the lowest class index.
    """
    k = model.k
    # a NaN distance would fall outside every ``d2 <= kth`` selection below
    check_finite("features", features, (None, model.train_features.shape[1]))
    out = np.empty(features.shape[0], dtype=np.int64)
    for rows, d2 in _row_blocks(features, model.train_features):
        # The k nearest are among the rows at or below the k-th distance;
        # sorting those by (query, distance), stably, keeps the lower
        # training row first on a tie, as a stable sort of each whole row would.
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        query, row = np.nonzero(d2 <= kth)
        ranked = np.lexsort((d2[query, row], query))
        first = np.searchsorted(query, np.arange(d2.shape[0]))
        nearest = row[ranked[first[:, None] + np.arange(k)]]
        votes = np.zeros((d2.shape[0], N_CLASSES), dtype=np.int64)
        np.add.at(votes, (np.repeat(np.arange(d2.shape[0]), k),
                          model.train_labels[nearest].reshape(-1)), 1)
        out[rows] = votes.argmax(axis=1)
    return out


# ---------------------------------------------------------------------------
# SVM via sequential minimal optimization
# ---------------------------------------------------------------------------

@dataclass
class SMOResult:
    alpha: np.ndarray
    bias: float
    converged: bool
    passes: int


# Side of the square tiles in which ``rbf_kernel_symmetric`` mirrors its upper
# triangle: a tile and its transpose, 512 KB each, stay in a core's L2 cache.
_TILE = 256


def rbf_kernel_symmetric(x: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * ||x_i - x_j||^2), computed on the upper triangle and mirrored.

    Exactly symmetric with a unit diagonal: (a - b)^2 == (b - a)^2 in IEEE
    arithmetic and both halves add their terms in the same order.  Each row
    block computes its rows from their diagonal entry on; the strict lower
    triangle is then copied from the upper one tile by tile.
    """
    n = x.shape[0]
    out = np.empty((n, n))
    x_t = np.ascontiguousarray(x.T)
    step = _block_rows(n)
    for start in range(0, n, step):
        block = _sq_dists(x[start:start + step], x_t[:, start:])
        block *= -gamma
        np.exp(block, out=out[start:start + step, start:])
    for i in range(0, n, _TILE):
        upper = out[i:i + _TILE, i:i + _TILE]
        np.copyto(upper, upper.T, where=np.tri(upper.shape[0], k=-1, dtype=bool))
        for j in range(i + _TILE, n, _TILE):
            out[j:j + _TILE, i:i + _TILE] = out[i:i + _TILE, j:j + _TILE].T
    return out


def scale_gamma(features: np.ndarray) -> float:
    """1 / (d * mean per-feature variance), the 'scale'-style kernel width."""
    mean_var = max(float(features.var(axis=0).mean()), 1e-12)
    return 1.0 / (features.shape[1] * mean_var)


def _check_smo_params(c: float, tol: float, max_passes: int) -> None:
    """Raise ``ValueError`` unless ``c`` > 0, ``tol`` >= 0 (both finite) and ``max_passes`` >= 1."""
    check_positive("c", c)
    check_finite("tol", tol, ())
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    check_count("max_passes", max_passes, 1)


def smo_solve(
    y: np.ndarray,
    kernel: np.ndarray,
    c: float,
    tol: float,
    max_passes: int,
    seed: int = 0,
) -> SMOResult:
    """Solve the binary SVM dual by SMO (Platt-style pair selection).

    ``y`` holds labels in {-1, +1} and ``kernel`` the full Gram matrix.
    The outer loop alternates sweeps over all examples and over non-bound
    examples until a full sweep changes nothing, i.e. every example meets
    the KKT conditions within ``tol``; the fallback second-choice scans are
    started at positions drawn from the given seed.

    Scalars are Python floats and the non-bound set is cached.  Past its
    first 8 candidates a fallback scan runs ``take_step``'s rejection tests
    on growing blocks with numpy; a block may keep a candidate that
    ``take_step`` rejects but never drops one it would move, so every step,
    draw and result equals that of trying each candidate in turn.
    """
    _check_smo_params(c, tol, max_passes)
    y = np.asarray(y, dtype=np.float64)
    if not ((y == 1).any() and (y == -1).any()):
        raise ValueError("need at least one example of each sign")
    n = y.shape[0]
    rng = Xoshiro256StarStar(seed)
    diag = kernel.diagonal()
    y_list, diag_list = y.tolist(), diag.tolist()
    alpha = np.zeros(n)
    bias = 0.0
    errors = -y  # f(x) - y with f = 0 initially
    inside = np.zeros(n, dtype=bool)  # 0 < alpha < c
    non_bound: np.ndarray | None = None  # flatnonzero(inside), None while stale
    all_rows = np.arange(n)
    row1, row2, gaps = np.empty(n), np.empty(n), np.empty(n)

    def take_step(i1: int, i2: int) -> bool:
        nonlocal bias, non_bound
        if i1 == i2:
            return False
        a1_old, a2_old = alpha.item(i1), alpha.item(i2)
        y1, y2 = y_list[i1], y_list[i2]
        e1, e2 = errors.item(i1), errors.item(i2)
        s = y1 * y2
        if s > 0:
            low, high = max(0.0, a1_old + a2_old - c), min(c, a1_old + a2_old)
        else:
            low, high = max(0.0, a2_old - a1_old), min(c, c + a2_old - a1_old)
        if low == high:
            return False
        k11, k12, k22 = diag_list[i1], kernel.item(i1, i2), diag_list[i2]
        eta = k11 + k22 - 2.0 * k12
        if eta > 0:
            a2 = a2_old + y2 * (e1 - e2) / eta
            a2 = min(max(a2, low), high)
        else:
            # degenerate curvature: evaluate the dual objective at both ends
            f1 = y1 * (e1 + bias) - a1_old * k11 - s * a2_old * k12
            f2 = y2 * (e2 + bias) - s * a1_old * k12 - a2_old * k22
            l1 = a1_old + s * (a2_old - low)
            h1 = a1_old + s * (a2_old - high)
            obj_low = (
                l1 * f1 + low * f2 + 0.5 * l1 * l1 * k11 + 0.5 * low * low * k22
                + s * low * l1 * k12
            )
            obj_high = (
                h1 * f1 + high * f2 + 0.5 * h1 * h1 * k11 + 0.5 * high * high * k22
                + s * high * h1 * k12
            )
            if obj_low < obj_high - 1e-12:
                a2 = low
            elif obj_low > obj_high + 1e-12:
                a2 = high
            else:
                return False
        if abs(a2 - a2_old) < 1e-12 * (a2 + a2_old + 1e-12):
            return False
        a1 = a1_old + s * (a2_old - a2)
        a1 = min(max(a1, 0.0), c)
        d1, d2 = y1 * (a1 - a1_old), y2 * (a2 - a2_old)
        b1 = bias - e1 - d1 * k11 - d2 * k12
        b2 = bias - e2 - d1 * k12 - d2 * k22
        if 0.0 < a1 < c:
            new_bias = b1
        elif 0.0 < a2 < c:
            new_bias = b2
        else:
            new_bias = (b1 + b2) / 2.0
        # errors += (d1 * kernel[i1] + d2 * kernel[i2]) + (new_bias - bias)
        np.multiply(kernel[i1], d1, out=row1)
        np.multiply(kernel[i2], d2, out=row2)
        np.add(row1, row2, out=row1)
        np.add(row1, new_bias - bias, out=row1)
        np.add(errors, row1, out=errors)
        alpha[i1], alpha[i2] = a1, a2
        bias = new_bias
        if (0.0 < a1 < c) != (0.0 < a1_old < c) or (0.0 < a2 < c) != (0.0 < a2_old < c):
            inside[i1], inside[i2] = 0.0 < a1 < c, 0.0 < a2 < c
            non_bound = None
        return True

    def kept(cands: np.ndarray, i2: int) -> np.ndarray:
        """Mask of the ``cands`` that ``take_step(i1, i2)`` may move: all with
        ``eta <= 0``, and exactly those it moves among the rest."""
        a2_old, y2, e2, k22 = alpha.item(i2), y_list[i2], errors.item(i2), diag_list[i2]
        a1_old = alpha[cands]
        same_sign = y[cands] * y2 > 0
        low = np.where(same_sign, np.maximum(a1_old + a2_old - c, 0.0),
                       np.maximum(a2_old - a1_old, 0.0))
        high = np.where(same_sign, np.minimum(a1_old + a2_old, c),
                        np.minimum(c + a2_old - a1_old, c))
        eta = diag[cands] + k22 - 2.0 * kernel[cands, i2]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a2 = np.minimum(np.maximum(a2_old + y2 * (errors[cands] - e2) / eta, low), high)
            stuck = np.abs(a2 - a2_old) < 1e-12 * (a2 + a2_old + 1e-12)
        return (cands != i2) & (low != high) & ~((eta > 0) & stuck)

    def scan(pool: np.ndarray, i2: int) -> bool:
        """Try ``take_step(pool[(offset + j) % m], i2)`` for j = 0, 1, ... until one moves."""
        m = pool.size
        offset = rng.below(m)
        for j in range(min(m, 8)):
            if take_step(pool.item((offset + j) % m), i2):
                return True
        rotated = np.concatenate((pool[offset:], pool[:offset]))
        start, width = 8, 32
        while start < m:
            block = rotated[start:start + width]
            for i1 in block[kept(block, i2)].tolist():
                if take_step(i1, i2):
                    return True
            start, width = start + width, 4 * width
        return False

    def examine(i2: int) -> bool:
        nonlocal non_bound
        y2, a2, e2 = y_list[i2], alpha.item(i2), errors.item(i2)
        r2 = e2 * y2
        if not ((r2 < -tol and a2 < c) or (r2 > tol and a2 > 0)):
            return False
        if non_bound is None:
            non_bound = np.flatnonzero(inside)
        m = non_bound.size
        if m > 1:
            gap = errors.take(non_bound, out=gaps[:m])
            np.abs(np.subtract(gap, e2, out=gap), out=gap)
            if take_step(non_bound.item(gap.argmax()), i2):
                return True
        return (m > 0 and scan(non_bound, i2)) or scan(all_rows, i2)

    converged = False
    examine_all = True
    passes = 0
    while passes < max_passes:
        changed = 0
        if examine_all:
            for i in range(n):
                changed += examine(i)
        else:
            for i in np.flatnonzero(inside).tolist():
                changed += examine(i)
        passes += 1
        if examine_all:
            if changed == 0:
                converged = True
                break
            examine_all = False
        elif changed == 0:
            examine_all = True
    return SMOResult(alpha=alpha, bias=bias, converged=converged, passes=passes)


@dataclass
class BinaryMachine:
    support_vectors: np.ndarray
    dual_coef: np.ndarray  # alpha_i * y_i for retained vectors
    bias: float
    converged: bool

    def __post_init__(self):
        # a machine without support vectors is stored as an empty list, of shape (0,)
        if np.shape(self.support_vectors) != (0,):
            check_finite("support_vectors", self.support_vectors, (None, None))
        check_finite("dual_coef", self.dual_coef, np.shape(self.support_vectors)[:1])
        check_finite("bias", self.bias, ())
        if not isinstance(self.converged, bool):  # the grid flags a cell by it
            raise ValueError(f"converged must be true or false, got {self.converged!r}")


@dataclass
class SVMModel:
    machines: list[BinaryMachine]  # one-vs-rest, class order 0..K-1
    gamma: float
    c: float

    def __post_init__(self):
        if len(self.machines) != N_CLASSES:
            raise ValueError(f"an SVM has {N_CLASSES} one-vs-rest machines, "
                             f"got {len(self.machines)}")
        # every machine reads the input rows, so all support vectors share one width
        width = max(np.shape(m.support_vectors)[1:] for m in self.machines)
        for k, m in enumerate(self.machines):
            if np.ndim(m.support_vectors) == 2:
                check_finite(f"machine {k}'s support_vectors", m.support_vectors, (None, *width))
        check_positive("gamma", self.gamma)
        check_positive("c", self.c)


def fit_svm(
    features: np.ndarray,
    labels: np.ndarray,
    c: float,
    gamma: float | None,
    tol: float,
    max_passes: int,
    seed: int = 0,
) -> SVMModel:
    """One RBF binary machine per class (one-vs-rest), trained by SMO.

    ``gamma`` None takes ``scale_gamma(features)``.  The Gram matrix is
    computed once and shared by the four solvers, which ``fork_map`` runs
    in forked workers.  Non-convergence is recorded on the machine, not raised.
    """
    _class_rows(features, labels)  # refuses a training set that lacks a class
    if gamma is not None:
        check_positive("gamma", gamma)
    _check_smo_params(c, tol, max_passes)
    if gamma is None:
        gamma = scale_gamma(features)
    kernel = rbf_kernel_symmetric(features, gamma)
    targets = [np.where(labels == k, 1.0, -1.0) for k in range(N_CLASSES)]
    results = fork_map(lambda k: smo_solve(targets[k], kernel, c, tol, max_passes,
                                           derive_seed(seed, k)), range(N_CLASSES))
    machines = []
    for yk, result in zip(targets, results):
        support = np.nonzero(result.alpha > 0)[0]
        machines.append(
            BinaryMachine(
                support_vectors=features[support].copy(),
                dual_coef=result.alpha[support] * yk[support],
                bias=result.bias,
                converged=result.converged,
            )
        )
    return SVMModel(machines=machines, gamma=gamma, c=c)


def svm_decision_values(model: SVMModel, features: np.ndarray) -> np.ndarray:
    """Each machine's ``exp(-gamma * ||x - sv||^2) @ dual_coef + bias``.

    The machines share most of their support vectors, so the kernel is
    computed once per ``_row_blocks`` block on the distinct vectors of all
    machines, and each block's columns are copied into each machine's own
    C-ordered kernel, on which the product equals the one on that machine's
    own cross-kernel bit for bit.  The machines' kernels are all held until
    their products are taken, so the peak is 8 bytes per input row and per
    support vector of every machine, not per distinct one (about 38 MB on the
    test rows of a 4910-row fit).  No array spans all the distinct vectors and
    all the rows: freeing one after each prediction raised glibc's mmap
    threshold, and with it the peak RSS of a process that predicts again and
    again by about 15 MB.
    """
    held = [k for k, m in enumerate(model.machines) if m.support_vectors.shape[0]]
    vectors = [model.machines[k].support_vectors for k in held]
    check_finite("features", features, (None, vectors[0].shape[1] if held else None))
    values = np.empty((features.shape[0], len(model.machines)))
    kernels = {}
    if held:
        distinct, column = np.unique(np.concatenate(vectors), axis=0, return_inverse=True)
        columns = np.split(column.reshape(-1), np.cumsum([v.shape[0] for v in vectors])[:-1])
        kernels = {k: np.empty((features.shape[0], c.size)) for k, c in zip(held, columns)}
        for rows, block in _row_blocks(features, distinct):
            block *= -model.gamma
            np.exp(block, out=block)
            for kernel, c in zip(kernels.values(), columns):
                # the indices are in range; "clip" writes to ``out`` unbuffered
                block.take(c, axis=1, out=kernel[rows], mode="clip")
    for k, machine in enumerate(model.machines):
        values[:, k] = (kernels.pop(k) @ machine.dual_coef + machine.bias if k in kernels
                        else machine.bias)
    return values


def predict_svm(model: SVMModel, features: np.ndarray) -> np.ndarray:
    return svm_decision_values(model, features).argmax(axis=1)
