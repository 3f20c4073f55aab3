"""Ranging arithmetic and position estimation.

Distances come from single-sided two-way ranging (poll/response), positions
from iterative least squares over ranges to fixed anchors. Everything here
is a pure function over immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    GeometryError,
    InsufficientDofError,
    InsufficientRangesError,
    InvalidTimingError,
)

SPEED_OF_LIGHT = 299_792_458.0  # m/s, vacuum; close enough for air at desk scale

GN_MAX_ITERATIONS = 50
GN_STEP_TOL = 1e-9  # meters; step norm below this counts as converged
COND_LIMIT = 1e12  # condition number of J^T J beyond which geometry is degenerate


@dataclass(frozen=True)
class Position:
    """A point in meters. z defaults to 0 for planar scenarios."""

    x: float
    y: float
    z: float = 0.0

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"coordinate {name} must be finite, got {v!r}")

    def to_array(self, dimension: int = 3) -> np.ndarray:
        if dimension == 2:
            return np.array([self.x, self.y], dtype=float)
        return np.array([self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_array(a: np.ndarray) -> "Position":
        if len(a) == 2:
            return Position(float(a[0]), float(a[1]), 0.0)
        return Position(float(a[0]), float(a[1]), float(a[2]))


class AnchorSet:
    """Ordered set of named anchor positions with validated geometry.

    Requires at least dimension+1 anchors, unique ids, and anchors that are
    not all collinear (2D) / coplanar (3D).
    """

    def __init__(self, anchors: Sequence[tuple[str, Position]], dimension: int = 2):
        if dimension not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {dimension}")
        anchors = list(anchors)
        ids = [a_id for a_id, _ in anchors]
        if len(set(ids)) != len(ids):
            raise GeometryError("anchor ids must be unique")
        if len(anchors) < dimension + 1:
            raise GeometryError(
                f"need at least {dimension + 1} anchors for {dimension}D, got {len(anchors)}"
            )
        pts = np.array([p.to_array(dimension) for _, p in anchors])
        # Rank of the centered anchor cloud: < dimension means collinear/coplanar.
        centered = pts - pts.mean(axis=0)
        if np.linalg.matrix_rank(centered, tol=1e-9) < dimension:
            kind = "collinear" if dimension == 2 else "coplanar"
            raise GeometryError(f"anchors must not be all {kind}")
        self.dimension = dimension
        self.anchors = tuple(anchors)
        self._points = pts

    def __len__(self) -> int:
        return len(self.anchors)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(a_id for a_id, _ in self.anchors)

    def centroid(self) -> Position:
        c = self._points.mean(axis=0)
        return Position.from_array(c)


@dataclass(frozen=True)
class EstimateResult:
    """Least-squares position fit with residual and error-radius diagnostics."""

    position: Position
    residual_rms: float
    error_radius: float
    iterations: int
    converged: bool


def distance(p: Position, q: Position) -> float:
    """Euclidean distance between two points, in meters."""
    return math.dist((p.x, p.y, p.z), (q.x, q.y, q.z))


def twr_distance(t_round_ns, t_reply_ns: float, c: float = SPEED_OF_LIGHT):
    """Single-sided two-way-ranging distance; elementwise on an array of round trips.

    t_round_ns is the initiator's poll-to-response round-trip time and
    t_reply_ns the responder's internal reply delay, both in nanoseconds on
    their own local clocks (offsets cancel). Distance is c*(round - reply)/2.
    """
    if np.any(t_round_ns < t_reply_ns):
        raise InvalidTimingError(
            f"t_round ({t_round_ns} ns) must be >= t_reply ({t_reply_ns} ns)"
        )
    return c * (t_round_ns - t_reply_ns) * 1e-9 / 2.0


def error_radius(jacobian: np.ndarray, ssr: float) -> float:
    """Scalar 1-sigma error radius of a converged fit.

    Uses the parameter covariance of the linearized problem:
    sqrt(trace(sigma_hat^2 * (J^T J)^-1)) with sigma_hat^2 = SSR/(n - dimension),
    where the jacobian is n x dimension.
    """
    n, dimension = jacobian.shape
    if n <= dimension:
        raise InsufficientDofError(
            f"error radius needs more than {dimension} measurements, got {n}"
        )
    jtj = jacobian.T @ jacobian
    if np.linalg.cond(jtj) > COND_LIMIT:
        raise GeometryError("normal equations near-singular; error radius undefined")
    sigma_sq = ssr / (n - dimension)
    return float(math.sqrt(max(sigma_sq, 0.0) * np.trace(np.linalg.inv(jtj))))


def _residuals_jacobian(p: np.ndarray, pts: np.ndarray, dists: np.ndarray):
    diff = p[None, :] - pts
    norms = np.linalg.norm(diff, axis=1)
    norms = np.maximum(norms, 1e-12)  # guard: estimate sitting exactly on an anchor
    r = norms - dists
    jac = diff / norms[:, None]
    return r, jac


def _linear_seed(pts: np.ndarray, dists: np.ndarray, dimension: int) -> Optional[np.ndarray]:
    """Closed-form linearized trilateration, used as a second solver start.

    Subtracting the first equation removes the quadratic term, leaving a
    linear system in p. None when the system is rank-deficient.
    """
    a0, d0 = pts[0], dists[0]
    rows = 2.0 * (pts[1:] - a0[None, :])
    rhs = (d0**2 - dists[1:] ** 2) + (pts[1:] ** 2).sum(axis=1) - (a0**2).sum()
    sol, _, rank, _ = np.linalg.lstsq(rows, rhs, rcond=None)
    if rank < dimension or not np.all(np.isfinite(sol)):
        return None
    return sol


def _gauss_newton(p: np.ndarray, pts: np.ndarray, dists: np.ndarray):
    """Plain Gauss-Newton from one start; returns (p, ssr, jac, iters, converged)."""
    converged = False
    iterations = 0
    r, jac = _residuals_jacobian(p, pts, dists)
    for iterations in range(1, GN_MAX_ITERATIONS + 1):
        jtj = jac.T @ jac
        if np.linalg.cond(jtj) > COND_LIMIT:
            raise GeometryError("degenerate geometry: singular normal equations")
        step = np.linalg.solve(jtj, -(jac.T @ r))
        p = p + step
        r, jac = _residuals_jacobian(p, pts, dists)
        if np.linalg.norm(step) < GN_STEP_TOL:
            converged = True
            break
    return p, float(r @ r), jac, iterations, converged


def multilaterate(anchors: AnchorSet, ranges: Sequence[np.ndarray]) -> EstimateResult:
    """Estimate a position from per-anchor range arrays by Gauss-Newton least squares.

    ranges holds one 1-D array per anchor, in AnchorSet order: every
    distance measured to that anchor, possibly none. All of them are pooled
    as residual rows, so the fit minimizes sum_i sum_d (||p - a_i|| - d)^2
    over anchors a_i and their distances d. At least dimension+1 anchors
    must have a distance, and every distance must be finite and >= 0.

    Two Gauss-Newton runs start from the anchor centroid and from a
    closed-form linearized seed, and the converged fit with the lower SSR
    wins; the second start is what keeps the solver out of the mirror-image
    local minimum that plagues thin anchor geometries. Converged means the
    step norm dropped below GN_STEP_TOL within GN_MAX_ITERATIONS.

    The dimension is the anchor set's; AnchorSet checked it and the anchor
    geometry when it was built, so only the ranges are checked here.
    """
    dimension = anchors.dimension
    if len(ranges) != len(anchors):
        raise GeometryError(f"need one range array per anchor ({len(anchors)}), "
                            f"got {len(ranges)}")
    ranges = [np.asarray(r, dtype=float) for r in ranges]
    for anchor_id, r in zip(anchors.ids, ranges):
        if r.ndim != 1:
            raise GeometryError(f"ranges to {anchor_id!r} must be a 1-D array")
        if not np.all(np.isfinite(r) & (r >= 0)):
            raise GeometryError(f"ranges to {anchor_id!r} must be finite and >= 0")
    counts = [len(r) for r in ranges]
    covered = sum(n > 0 for n in counts)
    if covered < dimension + 1:
        raise InsufficientRangesError(
            f"need ranges to at least {dimension + 1} distinct anchors, got {covered}"
        )

    pts = np.repeat(anchors._points, counts, axis=0)
    dists = np.concatenate(ranges)

    starts = [anchors.centroid().to_array(dimension)]
    seed = _linear_seed(pts, dists, dimension)
    if seed is not None:
        starts.append(seed)

    best = None
    for start in starts:
        fit = _gauss_newton(start, pts, dists)
        if best is None:
            best = fit
            continue
        # Prefer converged fits, then lower SSR.
        if (fit[4] and not best[4]) or (fit[4] == best[4] and fit[1] < best[1]):
            best = fit

    p, ssr, jac, iterations, converged = best
    n = len(dists)
    er = error_radius(jac, ssr) if (n > dimension and converged) else 0.0
    return EstimateResult(
        position=Position.from_array(p),
        residual_rms=math.sqrt(ssr / n),
        error_radius=er,
        iterations=iterations,
        converged=converged,
    )
