"""The figures digest in tools/ hashes exact bits: a sign of zero or one
ulp anywhere changes it."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "figures_digest.py"
spec = importlib.util.spec_from_file_location("figures_digest", TOOL)
figures_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(figures_digest)


def _hex(value):
    h = hashlib.sha256()
    figures_digest.feed(h, value)
    return h.hexdigest()


def test_feed_tells_apart_signed_zeros_and_one_ulp():
    one_up = float(np.nextafter(1.0, 2.0))
    for a, b in [(0.0, -0.0), (1.0, one_up), (np.float64(1.0), np.float64(one_up))]:
        assert _hex(a) != _hex(b)
        assert _hex((3, a)) != _hex((3, b))
        assert _hex(np.array([[a, 2.0]])) != _hex(np.array([[b, 2.0]]))
    # equal bits hash equal, whether a Python or a numpy float
    assert _hex((1.5, [0.25, "violated"])) == _hex((np.float64(1.5), [np.float64(0.25), "violated"]))
    # an array's shape is part of its bits
    assert _hex(np.zeros((2, 3))) != _hex(np.zeros((3, 2)))
