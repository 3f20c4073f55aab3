import os
import random
from pathlib import Path

import pytest

import uwbpol
from uwbpol.geo import AnchorSet, Position, RangeStats, distance

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


def noisy_samples(anchors: AnchorSet, target: Position, sigma: float,
                  rng: random.Random, rounds: int = 1) -> list[list[float]]:
    """Synthesize per-anchor distance lists straight from geometry (no radio layer).

    Draws go round by round, anchor by anchor.
    """
    out = [[] for _ in anchors.anchors]
    for _ in range(rounds):
        for acc, (_, pos) in zip(out, anchors.anchors):
            d = distance(pos, target) + (rng.gauss(0.0, sigma) if sigma > 0 else 0.0)
            acc.append(max(d, 0.0))
    return out


def noisy_ranges(anchors: AnchorSet, target: Position, sigma: float,
                 rng: random.Random, rounds: int = 1) -> list[RangeStats]:
    """The RangeStats of noisy_samples, as the solver takes them."""
    return [RangeStats.of(xs) for xs in noisy_samples(anchors, target, sigma, rng, rounds)]


def cli_env() -> dict:
    """Environment in which a child `python -m uwbpol` imports this package."""
    src = str(Path(uwbpol.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
