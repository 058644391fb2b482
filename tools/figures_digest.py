"""Print one sha256 over the figures a speed change must leave bit for bit.

The figures, each fed to the hash by its exact bits:

- every field of ``run_table1()`` but ``runtime_seconds``;
- the ``MaximizerResult`` of the family n = 2..60, and of a seeded
  corpus of 400 random curves with weights over 2^-540..2^540 (the 29
  curves whose squared weights leave the float range give the library's
  error message instead);
- the family forms' rows and ``bound_profile(form, [0, 1000, 2000,
  4000, 8000])`` for n = 2..30.

Equal digests from two checkouts mean equal figures.  It hashes the
package in the ``src`` beside this tool, or the one in the ``src``
directory passed, so one copy of the tool can hash another checkout:

    python3 tools/figures_digest.py [src]
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np

CORPUS_SEED = 20261021
PROFILE_E = [0, 1000, 2000, 4000, 8000]


def feed(h, value) -> None:
    """Update `h` with `value`'s exact bits: floats by their hex form
    (which tells -0.0 from 0.0), arrays by their float64 bytes and shape,
    anything else by its repr."""
    if isinstance(value, (tuple, list)):
        for item in value:
            feed(h, item)
    elif isinstance(value, np.ndarray):
        h.update(repr(value.shape).encode() + np.ascontiguousarray(value, dtype="<f8").tobytes())
    elif isinstance(value, float):
        h.update(value.hex().encode())
    else:
        h.update(repr(value).encode())


def corpus(rng: np.random.Generator, count: int):
    """`count` curves of degree 1..12 in 1..3 dimensions, coordinates
    uniform in [-10, 10], weights 2^k for k uniform in [-540, 540]."""
    for _ in range(count):
        n, d = int(rng.integers(1, 13)), int(rng.integers(1, 4))
        points = rng.uniform(-10.0, 10.0, size=(n + 1, d))
        yield points, np.exp2(rng.uniform(-540.0, 540.0, size=n + 1))


def digest(ratbez) -> str:
    """The sha256 hex digest of every figure listed above."""
    h = hashlib.sha256()
    for row in ratbez.run_table1():
        feed(h, astuple(replace(row, runtime_seconds=0.0)))
    for n in range(2, 61):
        feed(h, astuple(ratbez.maximize_derivative_norm(ratbez.counterexample_family(n))))
    for points, weights in corpus(np.random.default_rng(CORPUS_SEED), 400):
        try:
            feed(h, astuple(ratbez.maximize_derivative_norm(ratbez.RationalBezierCurve(points, weights))))
        except ValueError as exc:
            feed(h, str(exc))
    for n in range(2, 31):
        form = ratbez.build_derivative_form(ratbez.counterexample_family(n))
        feed(h, form.rows)
        feed(h, ratbez.bound_profile(form, PROFILE_E))
    return h.hexdigest()


def main(argv: list[str]) -> int:
    src = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src")
    sys.path.insert(0, str(src.resolve()))
    import ratbez

    print(digest(ratbez))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
