"""Dense-tensor math with reverse-mode automatic differentiation."""

from .tensor import *  # noqa: F401,F403
from .special import gamma_nll, lgamma_value, digamma_value  # noqa: F401
from .gradcheck import grad_check, GradCheckError  # noqa: F401
