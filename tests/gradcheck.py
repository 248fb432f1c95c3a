"""Finite-difference check of the sequence networks' analytic gradients.

``grad_check`` compares ``seqnet.loss_and_grads`` with central differences
of the loss that ``seqnet.evaluate`` reports. It looks both up on the module
at call time, so a test may patch either.
"""

import numpy as np

from xlog import seqnet


def grad_check(model: seqnet.SeqNetModel, X, mask, Y, epsilon: float = 1e-5,
               n_coords: int = 60, seed: int = 0) -> float:
    """Max relative error between analytic gradients and central finite
    differences over a random coordinate subsample covering every array."""
    if not (0.0 < epsilon <= 1e-2):
        raise ValueError("epsilon must be in (0, 1e-2]")
    _, grads, _ = seqnet.loss_and_grads(model, X, mask, Y)
    rng = np.random.default_rng(seed)
    names = sorted(model.params)
    coords = []
    for name in names:
        size = model.params[name].size
        take = min(size, max(3, n_coords // len(names)))
        for flat in rng.choice(size, size=take, replace=False):
            coords.append((name, int(flat)))
    while len(coords) < n_coords:
        name = names[int(rng.integers(len(names)))]
        coords.append((name, int(rng.integers(model.params[name].size))))
    worst = 0.0
    for name, flat in coords:
        arr = model.params[name]
        old = arr.flat[flat]
        arr.flat[flat] = old + epsilon
        loss_up = seqnet.evaluate(model, X, mask, Y).loss
        arr.flat[flat] = old - epsilon
        loss_dn = seqnet.evaluate(model, X, mask, Y).loss
        arr.flat[flat] = old
        numeric = (loss_up - loss_dn) / (2 * epsilon)
        analytic = grads[name].flat[flat]
        denom = max(abs(analytic), abs(numeric), 1e-6)
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst
