"""The median estimate every `_p50` figure and `setup_s` report."""

from __future__ import annotations

import numpy as np

_GRID = np.linspace(0.0, 1.0, 20001)
_MID = (_GRID[1:] + _GRID[:-1]) / 2.0


def median(values) -> float:
    """Harrell-Davis estimate of the median of `values`.

    A weighted mean of the sorted values: the i-th of n gets the
    Beta((n+1)/2, (n+1)/2) probability of ((i-1)/n, i/n].  It estimates the
    same median as the middle value, but with about half its run-to-run
    spread when a run holds few samples of each operation cost, as on
    `table1`, whose median is otherwise the latency of one single row.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.shape[0]
    if n == 0:
        raise ValueError("median of no values")
    a = (n + 1) / 2.0
    log_pdf = (a - 1.0) * np.log(_MID * (1.0 - _MID))
    mass = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(mass)]) / mass.sum()
    weights = np.diff(np.interp(np.arange(n + 1) / n, _GRID, cdf))
    return float(weights @ x)
