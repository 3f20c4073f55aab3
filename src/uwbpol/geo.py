"""Ranging arithmetic and position estimation.

Distances come from single-sided two-way ranging (poll/response), positions
from iterative least squares over ranges to fixed anchors, each anchor's
distances summed up in one RangeStats. The normal equations are 2x2 or 3x3,
so the solver is straight-line code per dimension: one pass over the anchors
builds J^T J and J^T r, each entry one exact math.fsum, and Cramer's rule,
the eigenvalues for the condition check and the inverse's trace are written
out in closed form. Every product and sum keeps a fixed order (J^T J is
stored as computed, not forced symmetric), so a solve gives the same floats
as the generic list-based solver in tests/_oracles.py. Everything here is a
pure function over immutable inputs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

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


@dataclass(frozen=True)
class RangeStats:
    """count distances to one anchor, their mean and sum of squared deviations.

    The squared residuals of the distances at any r sum to
    count * (r - mean)^2 + ssd, which is all a least-squares fit needs.
    """

    count: int
    mean: float = 0.0
    ssd: float = 0.0

    def __post_init__(self):
        if isinstance(self.count, bool) or not isinstance(self.count, int) or self.count < 0:
            raise GeometryError(f"count must be an int >= 0, got {self.count!r}")
        for v in (self.mean, self.ssd):
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 <= v < math.inf:
                raise GeometryError(f"mean and ssd must be finite numbers >= 0, got {v!r}")
        if (self.count == 0 and self.mean) or (self.count < 2 and self.ssd):
            raise GeometryError(f"{self.count} distances cannot have mean {self.mean!r} "
                                f"and ssd {self.ssd!r}")

    @staticmethod
    def of(distances: Iterable[float]) -> "RangeStats":
        """The statistics of these distances, each finite and >= 0."""
        xs = list(distances)
        if min(xs, default=0.0) < 0:  # a NaN or inf fails the mean's check
            raise GeometryError("distances must be >= 0")
        if not xs:
            return RangeStats(0)
        mean = math.fsum(xs) / len(xs)
        devs = [x - mean for x in xs]
        drift = math.fsum(devs)  # cancels the rounding error of mean
        return RangeStats(len(xs), mean,
                          max(math.fsum([d * d for d in devs]) - drift * drift / len(xs), 0.0))


def _det(m) -> float:
    if len(m) == 2:
        (a, b), (c, d) = m
        return a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _solve(m, v) -> tuple[float, ...]:
    """Cramer's rule for a non-singular 2x2 or 3x3 m.

    Each numerator is _det of m with column j replaced by v, written out.
    """
    det = _det(m)
    if len(m) == 2:
        (a, b), (c, d) = m
        v0, v1 = v
        return (v0 * d - b * v1) / det, (a * v1 - v0 * c) / det
    (a, b, c), (d, e, f), (g, h, i) = m
    v0, v1, v2 = v
    return ((v0 * (e * i - f * h) - b * (v1 * i - f * v2) + c * (v1 * h - e * v2)) / det,
            (a * (v1 * i - f * v2) - v0 * (d * i - f * g) + c * (d * v2 - v1 * g)) / det,
            (a * (e * v2 - v1 * h) - b * (d * v2 - v1 * g) + v0 * (d * h - e * g)) / det)


def _eigenvalues(m) -> list[float]:
    """Eigenvalues of a symmetric 2x2 or 3x3 matrix, ascending (closed form)."""
    if len(m) == 2:
        mid, half = (m[0][0] + m[1][1]) / 2, math.hypot((m[0][0] - m[1][1]) / 2, m[0][1])
        return [mid - half, mid + half]
    (a, b, c), (d, e, f), (g, h, i) = m
    q = (a + e + i) / 3
    p = math.sqrt(((a - q) ** 2 + 2 * c ** 2 + ((e - q) ** 2 + 2 * d ** 2)
                   + ((i - q) ** 2 + 2 * h ** 2)) / 6)
    if p == 0:
        return [q, q, q]
    shifted = ((a - q) / p, b / p, c / p), (d / p, (e - q) / p, f / p), (g / p, h / p, (i - q) / p)
    phi = math.acos(max(-1.0, min(1.0, _det(shifted) / 2))) / 3
    hi, lo = q + 2 * p * math.cos(phi), q + 2 * p * math.cos(phi + 2 * math.pi / 3)
    return [lo, 3 * q - hi - lo, hi]


def _condition(m) -> float:
    lo, *_, hi = _eigenvalues(m)
    return hi / lo if lo > 0 else math.inf


def _normal_2d(rows):
    """J^T J and J^T r over rows (weight c, u_x, u_y, r), c copies of each row.

    Entry (i, j) of J^T J is one exact sum of (c * u_i) * u_j, so (0, 1) and
    (1, 0) may differ in the last bit.
    """
    terms = []
    for c, ux, uy, r in rows:
        cx, cy = c * ux, c * uy
        terms.append((cx * ux, cx * uy, cy * ux, cy * uy, cx * r, cy * r))
    xx, xy, yx, yy, xr, yr = map(math.fsum, zip(*terms))
    return ((xx, xy), (yx, yy)), (xr, yr)


def _normal_3d(rows):
    """_normal_2d over rows (c, u_x, u_y, u_z, r)."""
    terms = []
    for c, ux, uy, uz, r in rows:
        cx, cy, cz = c * ux, c * uy, c * uz
        terms.append((cx * ux, cx * uy, cx * uz, cy * ux, cy * uy, cy * uz,
                      cz * ux, cz * uy, cz * uz, cx * r, cy * r, cz * r))
    xx, xy, xz, yx, yy, yz, zx, zy, zz, xr, yr, zr = map(math.fsum, zip(*terms))
    return ((xx, xy, xz), (yx, yy, yz), (zx, zy, zz)), (xr, yr, zr)


def _linearize_2d(p, rows):
    """Per anchor (count, unit vector from the anchor to p, residual) at p."""
    px, py = p
    out = []
    for (ax, ay), stats in rows:
        dx, dy = px - ax, py - ay
        norm = max(math.hypot(dx, dy), 1e-12)  # guard: estimate sitting exactly on an anchor
        out.append((stats.count, dx / norm, dy / norm, norm - stats.mean))
    return out


def _linearize_3d(p, rows):
    px, py, pz = p
    out = []
    for (ax, ay, az), stats in rows:
        dx, dy, dz = px - ax, py - ay, pz - az
        norm = max(math.hypot(dx, dy, dz), 1e-12)
        out.append((stats.count, dx / norm, dy / norm, dz / norm, norm - stats.mean))
    return out


def _seed_eqs_2d(rows):
    """The linear seed's equations, as rows (count, g_x, g_y, rhs) for _normal_2d."""
    ((x0, y0), s0), *rest = rows
    sq0, a0_sq = s0.mean**2 + s0.ssd / s0.count, x0 * x0 + y0 * y0
    return [(s.count, 2.0 * (x - x0), 2.0 * (y - y0),
             sq0 - (s.mean**2 + s.ssd / s.count) + (x * x + y * y) - a0_sq)
            for (x, y), s in rest]


def _seed_eqs_3d(rows):
    ((x0, y0, z0), s0), *rest = rows
    sq0, a0_sq = s0.mean**2 + s0.ssd / s0.count, x0 * x0 + y0 * y0 + z0 * z0
    return [(s.count, 2.0 * (x - x0), 2.0 * (y - y0), 2.0 * (z - z0),
             sq0 - (s.mean**2 + s.ssd / s.count) + (x * x + y * y + z * z) - a0_sq)
            for (x, y, z), s in rest]


# By dimension: (linearize, normal, seed_eqs).
_CLOSED_FORMS = {2: (_linearize_2d, _normal_2d, _seed_eqs_2d),
                 3: (_linearize_3d, _normal_3d, _seed_eqs_3d)}


class AnchorSet:
    """Ordered set of named anchor positions with validated geometry.

    Requires at least dimension+1 anchors, unique ids, z = 0 in 2D, and
    anchors that are not all collinear (2D) / coplanar (3D).
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
        for i, (_, p) in enumerate(anchors):
            if dimension == 2 and p.z != 0.0:
                raise GeometryError(f"anchors[{i}].z: must be 0 in 2D, got {p.z!r}")
        pts = tuple((p.x, p.y, p.z)[:dimension] for _, p in anchors)
        centre = [sum(c) / len(pts) for c in zip(*pts)]
        centred = [[v - m for v, m in zip(p, centre)] for p in pts]
        # Collinear/coplanar: the centred cloud's smallest singular value is
        # <= 1e-9. Its square is det(C^T C) over the other eigenvalues, with
        # the det summed from squared minors (Cauchy-Binet) to stay exact near 0.
        det = math.fsum(_det(minor) ** 2 for minor in combinations(centred, dimension))
        _, normal, _ = _CLOSED_FORMS[dimension]
        scatter, _ = normal([(1, *c, 0.0) for c in centred])  # C^T C
        if det <= 1e-18 * math.prod(_eigenvalues(scatter)[1:]):
            kind = "collinear" if dimension == 2 else "coplanar"
            raise GeometryError(f"anchors must not be all {kind}")
        self.dimension = dimension
        self.anchors = tuple(anchors)
        self._points = pts
        self._centre = centre

    def __len__(self) -> int:
        return len(self.anchors)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(a_id for a_id, _ in self.anchors)

    def centroid(self) -> Position:
        return Position(*self._centre)


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


def twr_distance(t_round_ns: float, t_reply_ns: float, c: float = SPEED_OF_LIGHT) -> float:
    """Single-sided two-way-ranging distance.

    t_round_ns is the initiator's poll-to-response round-trip time and
    t_reply_ns the responder's internal reply delay, both in nanoseconds on
    their own local clocks (offsets cancel). Distance is c*(round - reply)/2.
    """
    if t_round_ns < t_reply_ns:
        raise InvalidTimingError(
            f"t_round ({t_round_ns} ns) must be >= t_reply ({t_reply_ns} ns)"
        )
    return c * (t_round_ns - t_reply_ns) * 1e-9 / 2.0


_UNITS = {2: ((1.0, 0.0), (0.0, 1.0)), 3: ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))}


def error_radius(jtj, count: int, ssr: float) -> float:
    """Scalar 1-sigma error radius of a converged fit.

    Uses the parameter covariance of the linearized problem:
    sqrt(trace(sigma_hat^2 * (J^T J)^-1)) with sigma_hat^2 = SSR/(count - dimension),
    where jtj is the 2x2 or 3x3 J^T J of count measurements.
    """
    dimension = len(jtj)
    if count <= dimension:
        raise InsufficientDofError(
            f"error radius needs more than {dimension} measurements, got {count}"
        )
    if _condition(jtj) > COND_LIMIT:
        raise GeometryError("normal equations near-singular; error radius undefined")
    sigma_sq = ssr / (count - dimension)
    trace_inv = sum(_solve(jtj, unit)[j] for j, unit in enumerate(_UNITS[dimension]))
    return math.sqrt(max(sigma_sq, 0.0) * trace_inv)


def _linear_seed(rows, dimension: int) -> Optional[tuple[float, ...]]:
    """Closed-form linearized trilateration, used as a second solver start.

    Subtracting the first equation removes the quadratic term, leaving a
    linear system in p, with each anchor's mean square distance
    mean^2 + ssd/count. None when its normal equations are near-singular.
    """
    _, normal, seed_eqs = _CLOSED_FORMS[dimension]
    jtj, rhs = normal(seed_eqs(rows))
    if _condition(jtj) > COND_LIMIT:
        return None
    return _solve(jtj, rhs)


def _gauss_newton(p, rows):
    """Plain Gauss-Newton from one start; returns (p, ssr, jtj, iters, converged).

    jtj is J^T J at the returned p. Singular normal equations end the run as
    not converged.
    """
    linearize, normal, _ = _CLOSED_FORMS[len(p)]
    converged = False
    iterations = 0
    lin = linearize(p, rows)
    jtj, jtr = normal(lin)
    for iterations in range(1, GN_MAX_ITERATIONS + 1):
        if _condition(jtj) > COND_LIMIT:
            break
        step = _solve(jtj, jtr)  # the Gauss-Newton step is its negation
        p = list(map(operator.sub, p, step))
        lin = linearize(p, rows)
        jtj, jtr = normal(lin)
        if math.hypot(*step) < GN_STEP_TOL:
            converged = True
            break
    ssr = math.fsum([t[0] * t[-1] * t[-1] for t in lin] + [s.ssd for _, s in rows])
    return p, ssr, jtj, iterations, converged


def multilaterate(anchors: AnchorSet, ranges: Sequence[RangeStats]) -> EstimateResult:
    """Estimate a position from per-anchor RangeStats by Gauss-Newton least squares.

    ranges holds one RangeStats per anchor, in AnchorSet order, of every
    distance measured to that anchor (count 0 for none). The fit minimizes
    sum_i sum_d (||p - a_i|| - d)^2 over anchors a_i and their distances d,
    as one row per anchor weighted by its count, plus the anchors' ssd. At
    least dimension+1 anchors must have a distance.

    Two Gauss-Newton runs start from the anchor centroid and from a
    closed-form linearized seed, and the converged fit with the lower SSR
    wins; the second start is what keeps the solver out of the mirror-image
    local minimum that plagues thin anchor geometries. Converged means the
    step norm dropped below GN_STEP_TOL within GN_MAX_ITERATIONS, before
    the normal equations got near-singular; when neither start converges,
    the result says so (converged=False, error radius 0).

    Each iteration costs one pass over the anchors plus the 2x2 or 3x3
    closed forms, with no per-iteration work over generic lists; the
    rounding is that of the generic solver the tests pin it to.

    The dimension is the anchor set's; AnchorSet checked it and the anchor
    geometry when it was built, so only the ranges are checked here.
    """
    dimension = anchors.dimension
    if len(ranges) != len(anchors):
        raise GeometryError(f"need one RangeStats per anchor ({len(anchors)}), "
                            f"got {len(ranges)}")
    for anchor_id, stats in zip(anchors.ids, ranges):
        if not isinstance(stats, RangeStats):
            raise GeometryError(f"ranges to {anchor_id!r} must be a RangeStats")
    rows = [(a, stats) for a, stats in zip(anchors._points, ranges) if stats.count]
    if len(rows) < dimension + 1:
        raise InsufficientRangesError(
            f"need ranges to at least {dimension + 1} distinct anchors, got {len(rows)}"
        )

    # Converged fits first, then the lower SSR; on a tie, the earlier start.
    fits = [_gauss_newton(start, rows)
            for start in (anchors._centre, _linear_seed(rows, dimension)) if start is not None]
    p, ssr, jtj, iterations, converged = min(fits, key=lambda fit: (not fit[4], fit[1]))
    count = sum(stats.count for _, stats in rows)
    return EstimateResult(
        position=Position(*p),
        residual_rms=math.sqrt(ssr / count),
        error_radius=error_radius(jtj, count, ssr) if converged else 0.0,
        iterations=iterations,
        converged=converged,
    )
