"""Independent oracles used by the tests.

The grid oracle evaluates the exact same sum-of-squares objective as the
solver, but by brute force over a regular grid, so it shares no code path
with the iterative fit. The pooled-row solver is the reference the
per-anchor solver is pinned to.
"""

import math

import numpy as np

from uwbpol import geo
from uwbpol.errors import GeometryError, InsufficientRangesError
from uwbpol.geo import Position


def ssr(point, anchor_pts, dists):
    """Sum of squared range residuals at one point."""
    point = np.asarray(point, dtype=float)
    d = np.linalg.norm(anchor_pts - point[None, :], axis=1)
    return float(np.sum((d - dists) ** 2))


def grid_argmin(anchor_pts, dists, x_range, y_range, step=0.01, chunk_rows=200):
    """Brute-force SSR minimizer over a regular 2D grid.

    Returns (best_point, best_ssr). Evaluates every grid node; chunked over
    rows to bound memory.
    """
    anchor_pts = np.asarray(anchor_pts, dtype=float)
    dists = np.asarray(dists, dtype=float)
    xs = np.arange(x_range[0], x_range[1] + step / 2, step)
    ys = np.arange(y_range[0], y_range[1] + step / 2, step)

    best_val = np.inf
    best_xy = None
    for start in range(0, len(ys), chunk_rows):
        yy = ys[start:start + chunk_rows]
        gx, gy = np.meshgrid(xs, yy)
        total = np.zeros_like(gx)
        for (ax, ay), d in zip(anchor_pts, dists):
            dist = np.sqrt((gx - ax) ** 2 + (gy - ay) ** 2)
            total += (dist - d) ** 2
        idx = np.unravel_index(np.argmin(total), total.shape)
        if total[idx] < best_val:
            best_val = float(total[idx])
            best_xy = (float(gx[idx]), float(gy[idx]))
    return best_xy, best_val


# -- pooled-row reference solver ---------------------------------------------------
#
# The solver as it was before it collapsed each anchor's distances into one
# RangeStats: every distance is its own residual row, and numpy does the
# linear algebra. geo.multilaterate must give the same converged flag,
# position and error radius.

def _pooled_error_radius(jacobian, ssr):
    n, dimension = jacobian.shape
    jtj = jacobian.T @ jacobian
    if np.linalg.cond(jtj) > geo.COND_LIMIT:
        raise GeometryError("normal equations near-singular; error radius undefined")
    sigma_sq = ssr / (n - dimension)
    return float(np.sqrt(max(sigma_sq, 0.0) * np.trace(np.linalg.inv(jtj))))


def _pooled_residuals_jacobian(p, pts, dists):
    diff = p[None, :] - pts
    norms = np.maximum(np.linalg.norm(diff, axis=1), 1e-12)
    return norms - dists, diff / norms[:, None]


def _pooled_linear_seed(pts, dists, dimension):
    a0, d0 = pts[0], dists[0]
    rows = 2.0 * (pts[1:] - a0[None, :])
    rhs = (d0**2 - dists[1:] ** 2) + (pts[1:] ** 2).sum(axis=1) - (a0**2).sum()
    sol, _, rank, _ = np.linalg.lstsq(rows, rhs, rcond=None)
    if rank < dimension or not np.all(np.isfinite(sol)):
        return None
    return sol


def _pooled_gauss_newton(p, pts, dists):
    converged = False
    iterations = 0
    r, jac = _pooled_residuals_jacobian(p, pts, dists)
    for iterations in range(1, geo.GN_MAX_ITERATIONS + 1):
        jtj = jac.T @ jac
        if np.linalg.cond(jtj) > geo.COND_LIMIT:
            raise GeometryError("degenerate geometry: singular normal equations")
        step = np.linalg.solve(jtj, -(jac.T @ r))
        p = p + step
        r, jac = _pooled_residuals_jacobian(p, pts, dists)
        if np.linalg.norm(step) < geo.GN_STEP_TOL:
            converged = True
            break
    return p, float(r @ r), jac, iterations, converged


def pooled_fits(anchors, samples):
    """Gauss-Newton over every distance as its own row, from each start.

    samples holds one sequence of distances per anchor, in AnchorSet order.
    Returns the fit (p, ssr, jac, iterations, converged) of every start:
    the anchor centroid, then the linear seed when it exists.
    """
    dimension = anchors.dimension
    samples = [np.asarray(s, dtype=float) for s in samples]
    counts = [len(s) for s in samples]
    if sum(n > 0 for n in counts) < dimension + 1:
        raise InsufficientRangesError("too few anchors with a distance")
    points = np.array([[p.x, p.y, p.z][:dimension] for _, p in anchors.anchors])
    pts = np.repeat(points, counts, axis=0)
    dists = np.concatenate(samples)
    starts = [points.mean(axis=0)]
    seed = _pooled_linear_seed(pts, dists, dimension)
    if seed is not None:
        starts.append(seed)
    return [_pooled_gauss_newton(start, pts, dists) for start in starts]


def pooled_multilaterate(anchors, samples):
    """The reference solve: the converged fit with the lower SSR wins."""
    best = None
    for fit in pooled_fits(anchors, samples):
        if best is None or (fit[4] and not best[4]) or (fit[4] == best[4] and fit[1] < best[1]):
            best = fit
    p, ssr, jac, iterations, converged = best
    er = _pooled_error_radius(jac, ssr) if converged else 0.0
    return geo.EstimateResult(Position(*map(float, p)), math.sqrt(ssr / len(jac)), er,
                              iterations, converged)
