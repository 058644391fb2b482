"""Shared fixtures: the frozen random corpus and the family curves."""

from __future__ import annotations

import numpy as np
import pytest

from ratbez import counterexample_family

from oracles import random_curve

CORPUS_SEED = 20260819


@pytest.fixture(scope="session")
def corpus():
    """200 frozen random curves with 20 parameters each."""
    rng = np.random.default_rng(CORPUS_SEED)
    out = []
    for _ in range(200):
        n = int(rng.integers(1, 13))
        d = int(rng.integers(1, 4))
        curve = random_curve(rng, n, d)
        ts = rng.uniform(0.0, 1.0, size=20)
        out.append((curve, ts))
    return out


@pytest.fixture(scope="session")
def family_curves():
    """The bound-violating family members for degrees 2..20."""
    return [counterexample_family(n) for n in range(2, 21)]
