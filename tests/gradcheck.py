"""Finite-difference gradient checks shared by the test modules.

:func:`finite_difference_grad` is the independent oracle for the analytic
backward passes. It evaluates the function being checked through plain
forward calls only and never consults any ``.grad`` field.
"""

from typing import Callable

import numpy as np

from ctxda.tensor import Parameter, Tensor2D, backward


def _scalar(x) -> float:
    if isinstance(x, Tensor2D):
        return x.item()
    return float(x)


def finite_difference_grad(
    f: Callable[[Tensor2D], float], at: Tensor2D, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function.

    Perturbs one coordinate at a time: (f(x + h e_ij) - f(x - h e_ij)) / 2h.
    ``f`` receives a fresh plain Tensor2D and may return a float or a
    (1, 1) tensor.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    base = np.array(at.data if isinstance(at, Tensor2D) else at, dtype=np.float64)
    grad = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    for _ in it:
        ij = it.multi_index
        plus = base.copy()
        plus[ij] += h
        minus = base.copy()
        minus[ij] -= h
        grad[ij] = (_scalar(f(Tensor2D(plus))) - _scalar(f(Tensor2D(minus)))) / (2.0 * h)
    return grad


def max_gradient_error(loss_fn, params: list[Parameter], h: float = 1e-5) -> float:
    """Worst relative disagreement between analytic and numeric gradients.

    ``loss_fn()`` rebuilds the loss from the parameters' *current* data, so the
    finite-difference probe can perturb entries in place and re-evaluate. The
    numeric side never touches the graph machinery. The denominator floors at
    1e-4, which makes the comparison absolute for near-zero gradients (central
    differences are accurate to ~1e-10 there).
    """
    for p in params:
        p.grad[:] = 0.0
    backward(loss_fn())
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        def probe(t, p=p):
            saved = p.data.copy()
            p.data[:] = t.data
            try:
                return loss_fn().item()
            finally:
                p.data[:] = saved

        numeric = finite_difference_grad(probe, p, h=h)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-4)
        worst = max(worst, float(np.max(np.abs(a - numeric) / denom)))
    return worst
