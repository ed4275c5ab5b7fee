"""Log-gamma, digamma, and the Gamma negative log-likelihood of the time-to-event head.

lgamma uses the Lanczos approximation (g=7, 9 coefficients), accurate to well
under 1e-10 over the parameter range the model produces; digamma uses the
ascending recurrence plus an asymptotic tail. Both are vectorized and avoid
any dependency beyond numpy.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T

__all__ = ["lgamma_value", "digamma_value", "gamma_nll"]

_LANCZOS_G = 7.0
_LANCZOS_COEF = np.array(
    [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ]
)
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
_POSITIVE_EPS = 1e-6


def _lgamma_core(x):
    # valid for x >= 0.5
    z = x - 1.0
    acc = np.full_like(z, _LANCZOS_COEF[0])
    for i in range(1, len(_LANCZOS_COEF)):
        acc = acc + _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_2PI + (z + 0.5) * np.log(t) - t + np.log(acc)


def lgamma_value(x):
    """log|Gamma(x)| for x > 0, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0):
        raise ValueError("lgamma_value requires x > 0")
    small = x < 0.5
    if not np.any(small):
        return _lgamma_core(x)
    # reflection: logGamma(x) = log(pi / sin(pi x)) - logGamma(1 - x)
    safe = np.where(small, 1.0, x)
    refl = np.log(np.pi / np.sin(np.pi * np.where(small, x, 0.5)))
    return np.where(small, refl - _lgamma_core(1.0 - np.where(small, x, 0.5)), _lgamma_core(safe))


def digamma_value(x):
    """psi(x) for x > 0, elementwise: recurrence below 6, asymptotic series above."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0):
        raise ValueError("digamma_value requires x > 0")
    x = x.copy()
    out = np.zeros_like(x)
    for _ in range(6):
        low = x < 6.0
        if not np.any(low):
            break
        out = np.where(low, out - 1.0 / x, out)
        x = np.where(low, x + 1.0, x)
    inv = 1.0 / x
    inv2 = inv * inv
    tail = (
        np.log(x)
        - 0.5 * inv
        - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 / 240.0)))
    )
    return out + tail


def gamma_nll(pre: T.Tensor, t) -> T.Tensor:
    """-log Gamma(t; alpha, beta) per row, with (alpha, beta) = softplus(pre) + 1e-6, as one node.

    pre is the head's (K, 2) pre-activations; t is positive (scalar or (K,)),
    the half-day offset applied upstream. log p = alpha*log(beta) -
    logGamma(alpha) + (alpha - 1)*log(t) - beta*t. Backward is
    (digamma(alpha) - log(beta) - log(t), t - alpha/beta) * sigmoid(pre).
    """
    t = np.asarray(t, dtype=np.float64)
    if np.any(t <= 0.0):
        raise ValueError("gamma_nll requires t > 0; apply the half-day offset upstream")
    alpha = np.logaddexp(0.0, pre.data[:, 0]) + _POSITIVE_EPS
    beta = np.logaddexp(0.0, pre.data[:, 1]) + _POSITIVE_EPS
    log_beta, log_t = np.log(beta), np.log(t)
    log_pdf = ((alpha * log_beta - lgamma_value(alpha)) + (alpha - 1.0) * log_t) - beta * t

    def bw(g):
        # the order of the terms and the C-ordered (K, 2) gradient each decide the last bits of every gradient
        gpre = np.stack([(g * digamma_value(alpha) - g * log_beta) - g * log_t, g * t - g * alpha / beta], axis=1)
        gpre *= 1.0 / (1.0 + np.exp(-pre.data))
        T._accum(pre, gpre, owned=True)

    return T.Tensor(-log_pdf, parents=(pre,), backward_fn=bw, name="gamma_nll")
