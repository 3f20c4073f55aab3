import os
import random
from pathlib import Path

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
                 rng: random.Random, rounds: int = 1):
    """Synthesize range measurements straight from geometry (no radio layer)."""
    from uwbpol.geo import RangeMeasurement, distance

    out = []
    for _ in range(rounds):
        for a_id, pos in anchors.anchors:
            d = distance(pos, target) + (rng.gauss(0.0, sigma) if sigma > 0 else 0.0)
            out.append(RangeMeasurement(a_id, max(d, 0.0), sigma if sigma > 0 else 1e-9))
    return out


def cli_env() -> dict:
    """Environment in which a child `python -m uwbpol` imports this package."""
    src = str(Path(uwbpol.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
