"""From-scratch L1-regularized logistic regression (the LIBLINEAR stand-in).

The paper "used the LIBLINEAR package to learn L1-regularized models of
logistic regression" whose sparsity makes campaign predictions depend on a
handful of HTML features (Section 4.2.2).  LIBLINEAR is not available here,
so this module implements the same estimator: binary L1 logistic regression
fit by proximal gradient (ISTA) with backtracking line search, wrapped
one-vs-rest for multiclass.  The bias term is unregularized, as in
LIBLINEAR's formulation.

One solver, :func:`fit_l1_logistic`, fits all one-vs-rest classes in a
single batched loop over a (K, d) weight matrix; the binary
:class:`L1LogisticRegression` is its K = 1 call.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def _log1pexp(z: np.ndarray) -> np.ndarray:
    """Numerically stable log(1 + exp(z))."""
    out = np.empty_like(z)
    small = z < 30
    out[small] = np.log1p(np.exp(z[small]))
    out[~small] = z[~small]
    return out


def soft_threshold(values: np.ndarray, threshold: float | np.ndarray) -> np.ndarray:
    return np.sign(values) * np.maximum(np.abs(values) - threshold, 0.0)


def _margins(X, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row k is ``X @ w[k] + b[k]``: one sparse product for every row of
    ``w``, laid out as contiguous rows for the per-class reductions."""
    return np.ascontiguousarray((X @ w.T).T) + b[:, None]


def _loss(y: np.ndarray, margins: np.ndarray) -> np.ndarray:
    """Per-row mean logistic loss."""
    return np.mean(_log1pexp(-y * margins), axis=1)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row ``a[k] @ b[k]``; the stacked matmul makes the same BLAS dot
    call on each contiguous row pair as the 1-D ``@`` does."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _squares(values: np.ndarray) -> np.ndarray:
    """``v ** 2`` in Python float arithmetic: libm's ``pow``, which rounds
    differently from ``v * v`` (NumPy's square) in about 0.1% of cases."""
    return np.array([v ** 2 for v in values.tolist()])


def fit_l1_logistic(
    X, Y: np.ndarray, lam: float, max_iter: int, tol: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit K binary L1 logistic models over one design matrix at once.

    ``X`` is (n, d), sparse or dense (fit as CSR); row k of ``Y`` holds
    class k's labels in {-1, +1}.  Returns the (K, d) weights, the K biases
    and each class's count of accepted proximal steps.

    Every class runs its own ISTA: zero start, step 1.0, at most 40 step
    halvings per iteration under the sufficient-decrease test, stop when
    the objective's relative decrease falls under ``tol`` or after
    ``max_iter`` steps, and 1.5x step recovery capped at 1e4.  Classes
    advance independently, so one that backtracks holds no other back:
    each pass makes one trial step for every running class, with one
    ``X @ W.T`` for all of them, and one ``X.T @ C`` for the classes whose
    last trial was accepted.  CSR products sum a row's nonzeros in the same
    order for one vector or many, and every per-class vector is a
    contiguous row, so each class's sums and dot products add in the same
    order as a lone fit's: its weights, bias and iteration count are
    bit-identical whichever classes share the batch.
    """
    from scipy import sparse  # only a classifying run loads scipy

    X = sparse.csr_matrix(X)
    XT = X.T
    Y = np.asarray(Y, dtype=np.float64)
    K, n = Y.shape
    weights = np.zeros((K, X.shape[1]))
    biases = np.zeros(K)
    n_iter = np.zeros(K, dtype=np.int64)

    # State of the classes still running, one row each: ``live`` maps the
    # rows back to classes, and a class's row is dropped when it stops.
    live = np.arange(K if max_iter > 0 else 0)
    y, w, b = Y[live], weights[live], biases[live]
    step = np.ones(len(live))
    halvings = np.zeros(len(live), dtype=np.int64)
    xwb = _margins(X, w, b)
    l1 = np.abs(w).sum(axis=1)
    objective = _loss(y, xwb) + lam * l1
    grad_w, grad_b = np.empty_like(w), np.empty_like(b)
    moved = np.arange(len(live))  # rows whose gradient is out of date
    while live.size:
        if moved.size:
            y_m = y[moved]
            coeff = -y_m * _sigmoid(-(y_m * xwb[moved])) / n
            grad_w[moved] = (XT @ coeff.T).T
            grad_b[moved] = coeff.sum(axis=1)
        # One backtracking trial per class.
        w_new = soft_threshold(w - step[:, None] * grad_w, (step * lam)[:, None])
        b_new = b - step * grad_b
        xwb_new = _margins(X, w_new, b_new)
        l1_new = np.abs(w_new).sum(axis=1)
        new_objective = _loss(y, xwb_new) + lam * l1_new
        delta = w_new - w
        quad = (
            objective
            - lam * l1
            + _rowdot(grad_w, delta)
            + grad_b * (b_new - b)
            + (_rowdot(delta, delta) + _squares(b_new - b)) / (2 * step)
            + lam * l1_new
        )
        passed = new_objective <= quad + 1e-12
        converged = objective - new_objective < tol * np.maximum(1.0, np.abs(objective))
        # A failed trial halves the class's step; the 40th in one iteration
        # stops the class where it is.
        failed = ~passed
        step[failed] *= 0.5
        halvings[failed] += 1
        # A passed trial is the class's next iterate.
        w[passed], b[passed], xwb[passed] = w_new[passed], b_new[passed], xwb_new[passed]
        l1[passed], objective[passed] = l1_new[passed], new_objective[passed]
        n_iter[live[passed]] += 1
        halvings[passed] = 0
        step[passed] = np.minimum(step[passed] * 1.5, 1e4)  # gentle step recovery
        stopped = (halvings == 40) | (passed & (converged | (n_iter[live] == max_iter)))
        moved = passed & ~stopped
        if stopped.any():
            weights[live[stopped]], biases[live[stopped]] = w[stopped], b[stopped]
            keep = ~stopped
            live, y, w, b, xwb, l1, objective = (
                a[keep] for a in (live, y, w, b, xwb, l1, objective))
            step, halvings, grad_w, grad_b, moved = (
                a[keep] for a in (step, halvings, grad_w, grad_b, moved))
        moved = np.flatnonzero(moved)
    return weights, biases, n_iter


class L1LogisticRegression:
    """Binary classifier: min (1/n) Σ log(1+exp(-y·f(x))) + lam·||w||₁."""

    def __init__(self, lam: float = 1e-3, max_iter: int = 300, tol: float = 1e-6):
        if lam < 0:
            raise ValueError("lam must be >= 0")
        self.lam = lam
        self.max_iter = max_iter
        self.tol = tol
        self.weights: Optional[np.ndarray] = None
        self.bias: float = 0.0
        self.n_iter_: int = 0

    # ------------------------------------------------------------------ #

    def _objective(self, X, y: np.ndarray, w: np.ndarray, b: float) -> float:
        margins = -y * (X @ w + b)
        loss = float(np.mean(_log1pexp(margins)))
        return loss + self.lam * float(np.abs(w).sum())

    def _gradient(self, X, y: np.ndarray, w: np.ndarray, b: float):
        z = y * (X @ w + b)
        coeff = -y * _sigmoid(-z) / len(y)
        grad_w = X.T @ coeff
        grad_w = np.asarray(grad_w).ravel()
        grad_b = float(np.sum(coeff))
        return grad_w, grad_b

    def fit(self, X, y: Sequence[int]) -> "L1LogisticRegression":
        """X: (n, d) sparse or dense; y: labels in {-1, +1} (or {0, 1}).

        The K = 1 call of :func:`fit_l1_logistic`.
        """
        y = np.asarray(y, dtype=np.float64)
        unique = set(np.unique(y).tolist())
        if unique <= {0.0, 1.0}:
            y = 2.0 * y - 1.0
        elif not unique <= {-1.0, 1.0}:
            raise ValueError(f"labels must be binary, got {sorted(unique)}")
        weights, biases, n_iter = fit_l1_logistic(
            X, y[None, :], self.lam, self.max_iter, self.tol)
        self.weights = weights[0]
        self.bias = float(biases[0])
        self.n_iter_ = int(n_iter[0])
        return self

    def decision_function(self, X) -> np.ndarray:
        if self.weights is None:
            raise RuntimeError("model not fitted")
        return np.asarray(X @ self.weights).ravel() + self.bias

    def predict_proba(self, X) -> np.ndarray:
        return _sigmoid(self.decision_function(X))

    def predict(self, X) -> np.ndarray:
        return (self.decision_function(X) >= 0.0).astype(int)

    def nonzero_weights(self) -> int:
        if self.weights is None:
            return 0
        return int(np.count_nonzero(self.weights))


class OneVsRestL1Logistic:
    """Multiclass wrapper: one binary L1 model per class, probabilities
    normalized across classes.

    All classes are fit together by :func:`fit_l1_logistic`.  ``coef_`` is
    the (K, d) weight matrix in ``classes_`` order, ``intercept_`` the K
    biases and ``n_iter_`` each class's accepted proximal steps.
    """

    def __init__(self, lam: float = 1e-3, max_iter: int = 300, tol: float = 1e-6):
        self.lam = lam
        self.max_iter = max_iter
        self.tol = tol
        self.classes_: List[str] = []
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: Optional[np.ndarray] = None
        self.n_iter_: Optional[np.ndarray] = None

    def fit(self, X, labels: Sequence[str]) -> "OneVsRestL1Logistic":
        labels = list(labels)
        if X.shape[0] != len(labels):
            raise ValueError("X rows and labels length differ")
        self.classes_ = sorted(set(labels))
        if len(self.classes_) < 2:
            raise ValueError("need at least two classes")
        index = {cls: k for k, cls in enumerate(self.classes_)}
        codes = np.array([index[label] for label in labels])
        Y = np.where(codes == np.arange(len(self.classes_))[:, None], 1.0, -1.0)
        self.coef_, self.intercept_, self.n_iter_ = fit_l1_logistic(
            X, Y, self.lam, self.max_iter, self.tol)
        return self

    def decision_matrix(self, X) -> np.ndarray:
        """(n, K) scores, one product for all classes."""
        if self.coef_ is None:
            raise RuntimeError("model not fitted")
        return X @ self.coef_.T + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        """Per-class sigmoid scores normalized to sum to one per row."""
        raw = _sigmoid(self.decision_matrix(X))
        totals = raw.sum(axis=1, keepdims=True)
        totals[totals == 0.0] = 1.0
        return raw / totals

    def predict(self, X) -> List[str]:
        scores = self.decision_matrix(X)
        indices = np.argmax(scores, axis=1)
        return [self.classes_[i] for i in indices]

    def predict_with_confidence(self, X) -> List[Tuple[str, float]]:
        """(best class, confidence) per row.

        Confidence is the winning class's *raw* sigmoid score, not the
        normalized probability: a page from outside the training universe
        scores low against every one-vs-rest model, so thresholding raw
        scores leaves it unclassified (the paper's "unknown" PSRs), whereas
        normalized probabilities always sum to one and would overstate it.
        """
        raw = _sigmoid(self.decision_matrix(X))
        indices = np.argmax(raw, axis=1)
        return [
            (self.classes_[i], float(raw[row, i]))
            for row, i in enumerate(indices)
        ]

    def sparsity(self) -> Dict[str, int]:
        """Nonzero feature count per class — the interpretability the paper
        highlights ('a handful of HTML features')."""
        if self.coef_ is None:
            return {}
        return {cls: int(np.count_nonzero(row))
                for cls, row in zip(self.classes_, self.coef_)}
