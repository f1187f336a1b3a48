"""Early exits of the P3P cubic's Newton loop: a batch stops iterating once
every root has settled, and its roots agree with a run that takes every step."""

import numpy as np

import pfa.pnp


def _cubics(rng, count=60):
    """Monic cubics with one real root and a complex pair, as P3P's are.

    A pair close to the real root makes the cubic flat there, so Newton's
    step stalls at a rounding-sized value instead of reaching zero.
    """
    r = rng.uniform(-3.0, 3.0, count)
    p = r + rng.uniform(-1.0, 1.0, count)
    q = rng.uniform(0.2, 2.0, count)
    m = p * p + q * q
    return -(r + 2.0 * p), 2.0 * p * r + m, -r * m


def _plain_newton(root, b, c, d, steps):
    """Every step taken; returns the roots and which still moved at the last step."""
    for _ in range(steps):
        step = (((root + b) * root + c) * root + d) / ((3.0 * root + 2.0 * b) * root + c)
        step[~np.isfinite(step)] = 0.0
        root = root - step
    return root, np.abs(step) > 1e-15 * (1.0 + np.abs(root))


def _roots(monkeypatch, b, c, d, iterations):
    monkeypatch.setattr(pfa.pnp, "CUBIC_ITERATIONS", iterations)
    with np.errstate(all="ignore"):  # as p3p_batch calls it
        return pfa.pnp._cubic_root(b, c, d)


def test_stalled_roots_stop_the_loop_early_and_keep_their_value(monkeypatch):
    b, c, d = _cubics(np.random.default_rng(5))
    start = _roots(monkeypatch, b, c, d, 0)
    with np.errstate(all="ignore"):
        full, moving = _plain_newton(start.copy(), b, c, d, 50)
    # the batch holds roots whose step never meets the convergence test,
    # so without freezing them the loop would run all 50 steps
    assert moving.any()

    roots = _roots(monkeypatch, b, c, d, 50)
    assert np.all(np.abs(roots - full) <= 1e-12 * (1.0 + np.abs(full)))
    # 12 steps give the very same roots: the loop had ended by then
    assert np.array_equal(_roots(monkeypatch, b, c, d, 12), roots)


def test_every_root_is_a_root(monkeypatch):
    b, c, d = _cubics(np.random.default_rng(6))
    g = _roots(monkeypatch, b, c, d, 50)
    value = ((g + b) * g + c) * g + d
    scale = np.abs(g) ** 3 + np.abs(b) * g * g + np.abs(c * g) + np.abs(d)
    assert np.all(np.abs(value) <= 1e-13 * scale)
