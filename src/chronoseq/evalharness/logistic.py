"""L2-regularized logistic regression fit by damped Newton steps with backtracking."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LogisticModel", "fit_logistic"]


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


_JITTER = 1e-10  # keeps the Newton system solvable when the data are separable


@dataclass
class LogisticModel:
    weights: np.ndarray
    intercept: float
    converged: bool
    n_iterations: int
    final_grad_norm: float

    def decision(self, X) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.weights + self.intercept

    def predict(self, X) -> np.ndarray:
        return (self.decision(X) >= 0).astype(np.int64)


def fit_logistic(X, y, l2: float = 0.0, max_iter: int = 5000, tol: float = 1e-6) -> LogisticModel:
    """Minimize mean log-loss + (l2/2)||w||^2 (intercept unpenalized).

    Damped Newton steps under Armijo backtracking, stopping at gradient norm
    < tol, at max_iter, or when no step along the Newton direction lowers
    the loss any more (converged=False unless the gradient is small).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("X must be (n, d) and y (n,)")
    if y.min() == y.max():
        raise ValueError("labels are single-class")
    n, d = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])  # the last coefficient is the intercept
    penalty = np.full(d + 1, l2)
    penalty[d] = 0.0
    theta = np.zeros(d + 1)

    def loss_grad(theta):
        z = Xb @ theta
        # log(1 + exp(-s z)) computed stably
        m = np.logaddexp(0.0, -z) * y + np.logaddexp(0.0, z) * (1.0 - y)
        p = _sigmoid(z)
        g = Xb.T @ (p - y) / n + penalty * theta
        return float(m.mean() + 0.5 * (penalty * theta) @ theta), g, p

    loss, g, p = loss_grad(theta)
    gnorm = float(np.sqrt(g @ g))
    it = 0
    while gnorm >= tol and it < max_iter:
        it += 1
        hess = (Xb.T * (p * (1.0 - p))) @ Xb / n + np.diag(penalty + _JITTER)
        direction = -np.linalg.solve(hess, g)
        slope = float(g @ direction)
        step = 1.0
        while True:  # backtracking on the Armijo condition
            loss2, g2, p2 = loss_grad(theta + step * direction)
            if loss2 <= loss + 1e-4 * step * slope:
                break
            step *= 0.5
            if step < 1e-12:
                break
        if step < 1e-12:
            break  # no further decrease: the loss is flat to rounding along the Newton direction
        theta, loss, g, p = theta + step * direction, loss2, g2, p2
        gnorm = float(np.sqrt(g @ g))
    return LogisticModel(weights=theta[:d], intercept=float(theta[d]), converged=gnorm < tol,
                         n_iterations=it, final_grad_norm=gnorm)
