import os
import random
from pathlib import Path

import numpy as np
import pytest

import uwbpol
from uwbpol.geo import AnchorSet, Position

FIG4_ANCHOR_COORDS = [("a0", 2.5, 0.6), ("a1", 2.5, 1.15),
                      ("a2", 2.85, 1.15), ("a3", 2.85, 0.6)]
FIG5_ANCHOR_COORDS = [("a0", 1.26, 0.518), ("a1", 1.26, -0.0393),
                      ("a2", 0.918, -0.0393), ("a3", 0.918, 0.518)]


def make_anchor_set(coords) -> AnchorSet:
    return AnchorSet([(a_id, Position(x, y)) for a_id, x, y in coords])


@pytest.fixture
def fig4_anchors() -> AnchorSet:
    return make_anchor_set(FIG4_ANCHOR_COORDS)


@pytest.fixture
def fig5_anchors() -> AnchorSet:
    return make_anchor_set(FIG5_ANCHOR_COORDS)


def noisy_ranges(anchors: AnchorSet, target: Position, sigma: float,
                 rng: random.Random, rounds: int = 1) -> list[np.ndarray]:
    """Synthesize per-anchor range arrays straight from geometry (no radio layer).

    Draws go round by round, anchor by anchor, as a ranging sweep orders them.
    """
    from uwbpol.geo import distance

    out = [[] for _ in anchors.anchors]
    for _ in range(rounds):
        for acc, (_, pos) in zip(out, anchors.anchors):
            d = distance(pos, target) + (rng.gauss(0.0, sigma) if sigma > 0 else 0.0)
            acc.append(max(d, 0.0))
    return [np.array(acc) for acc in out]


def cli_env() -> dict:
    """Environment in which a child `python -m uwbpol` imports this package."""
    src = str(Path(uwbpol.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
