"""Independent oracles used by the tests.

The grid oracle evaluates the exact same sum-of-squares objective as the
solver, but by brute force over a regular grid, so it shares no code path
with the iterative fit. The pooled-row solver is the reference the
per-anchor solver is pinned to within 1e-9, and the generic per-anchor
solver the one its closed forms are pinned to exactly.
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


# -- generic per-anchor reference solver -------------------------------------------
#
# geo's solver as it was before its closed forms were written out per
# dimension: Gauss-Newton on one (count, unit vector) row per anchor, over
# generic lists, with its own copies of the linear algebra so that a change
# to geo cannot move the reference with it. geo.multilaterate must return
# an EstimateResult equal to this one, float for float.

def _det(m):
    if len(m) == 2:
        (a, b), (c, d) = m
        return a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _solve(m, v):
    return [_det([[v[i] if k == j else x for k, x in enumerate(row)] for i, row in enumerate(m)])
            / _det(m) for j in range(len(m))]


def _eigenvalues(m):
    if len(m) == 2:
        mid, half = (m[0][0] + m[1][1]) / 2, math.hypot((m[0][0] - m[1][1]) / 2, m[0][1])
        return [mid - half, mid + half]
    q = (m[0][0] + m[1][1] + m[2][2]) / 3
    p = math.sqrt(sum((m[i][i] - q) ** 2 + 2 * m[i][i - 1] ** 2 for i in range(3)) / 6)
    if p == 0:
        return [q, q, q]
    shifted = [[(x - q * (i == j)) / p for j, x in enumerate(row)] for i, row in enumerate(m)]
    phi = math.acos(max(-1.0, min(1.0, _det(shifted) / 2))) / 3
    hi, lo = q + 2 * p * math.cos(phi), q + 2 * p * math.cos(phi + 2 * math.pi / 3)
    return [lo, 3 * q - hi - lo, hi]


def _condition(m):
    lo, *_, hi = _eigenvalues(m)
    return hi / lo if lo > 0 else math.inf


def _gram(rows):
    """J^T J of the jacobian whose rows are count copies of u, over (count, u)."""
    dim = range(len(rows[0][1]))
    return [[math.fsum(c * u[i] * u[j] for c, u in rows) for j in dim] for i in dim]


def _error_radius(jacobian, ssr):
    n, dimension = sum(c for c, _ in jacobian), len(jacobian[0][1])
    jtj = _gram(jacobian)
    if _condition(jtj) > geo.COND_LIMIT:
        raise GeometryError("normal equations near-singular; error radius undefined")
    sigma_sq = ssr / (n - dimension)
    trace_inv = sum(_solve(jtj, [float(i == j) for i in range(dimension)])[j]
                    for j in range(dimension))
    return math.sqrt(max(sigma_sq, 0.0) * trace_inv)


def _residuals_jacobian(p, rows):
    r, jac = [], []
    for a, stats in rows:
        diff = [pi - ai for pi, ai in zip(p, a)]
        norm = max(math.hypot(*diff), 1e-12)
        r.append(norm - stats.mean)
        jac.append((stats.count, [d / norm for d in diff]))
    return r, jac


def _linear_seed(rows, dimension):
    (a0, _), squares = rows[0], [s.mean**2 + s.ssd / s.count for _, s in rows]
    eqs = [(s.count, [2.0 * (x - x0) for x, x0 in zip(a, a0)],
            squares[0] - sq + sum(x * x for x in a) - sum(x * x for x in a0))
           for (a, s), sq in zip(rows[1:], squares[1:])]
    normal = _gram([(c, g) for c, g, _ in eqs])
    if _condition(normal) > geo.COND_LIMIT:
        return None
    return _solve(normal, [math.fsum(c * g[k] * rhs for c, g, rhs in eqs)
                           for k in range(dimension)])


def _gauss_newton(p, rows):
    converged = False
    iterations = 0
    r, jac = _residuals_jacobian(p, rows)
    for iterations in range(1, geo.GN_MAX_ITERATIONS + 1):
        jtj = _gram(jac)
        if _condition(jtj) > geo.COND_LIMIT:
            break
        step = _solve(jtj, [-math.fsum(c * u[k] * ri for (c, u), ri in zip(jac, r))
                            for k in range(len(p))])
        p = [pi + si for pi, si in zip(p, step)]
        r, jac = _residuals_jacobian(p, rows)
        if math.hypot(*step) < geo.GN_STEP_TOL:
            converged = True
            break
    ssr = math.fsum([c * ri * ri for (c, _), ri in zip(jac, r)] + [s.ssd for _, s in rows])
    return p, ssr, jac, iterations, converged


def generic_fits(anchors, ranges):
    """Gauss-Newton over per-anchor RangeStats, in AnchorSet order, from each start.

    Returns the fit (p, ssr, jac, iterations, converged) of every start:
    the anchor centroid, then the linear seed when it exists.
    """
    dimension = anchors.dimension
    points = [(p.x, p.y, p.z)[:dimension] for _, p in anchors.anchors]
    rows = [(a, stats) for a, stats in zip(points, ranges) if stats.count]
    if len(rows) < dimension + 1:
        raise InsufficientRangesError("too few anchors with a distance")
    centre = [sum(c) / len(points) for c in zip(*points)]
    return [_gauss_newton(start, rows)
            for start in (centre, _linear_seed(rows, dimension)) if start is not None]


def generic_multilaterate(anchors, ranges):
    """The reference solve: the converged fit with the lower SSR wins."""
    fits = generic_fits(anchors, ranges)
    p, ssr, jac, iterations, converged = min(fits, key=lambda fit: (not fit[4], fit[1]))
    return geo.EstimateResult(
        position=Position(*p),
        residual_rms=math.sqrt(ssr / sum(c for c, _ in jac)),
        error_radius=_error_radius(jac, ssr) if converged else 0.0,
        iterations=iterations,
        converged=converged,
    )
