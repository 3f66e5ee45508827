"""Finite-difference gradient check shared by the test modules."""

import numpy as np

from ctxda.tensor import Parameter, backward, finite_difference_grad


def max_gradient_error(loss_fn, params: list[Parameter], h: float = 1e-5) -> float:
    """Worst relative disagreement between analytic and numeric gradients.

    ``loss_fn()`` rebuilds the loss from the parameters' *current* data, so the
    finite-difference probe can perturb entries in place and re-evaluate. The
    numeric side never touches the graph machinery. The denominator floors at
    1e-4, which makes the comparison absolute for near-zero gradients (central
    differences are accurate to ~1e-10 there).
    """
    for p in params:
        p.zero_grad()
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
