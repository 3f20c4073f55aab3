"""Geometry core: distance, two-way-ranging arithmetic, multilateration."""

import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbpol import geo
from uwbpol.errors import (
    GeometryError,
    InsufficientDofError,
    InsufficientRangesError,
    InvalidTimingError,
)
from uwbpol.geo import AnchorSet, Position

from _oracles import grid_argmin, ssr
from conftest import FIG4_ANCHOR_COORDS, FIG5_ANCHOR_COORDS, make_anchor_set, noisy_ranges

C = geo.SPEED_OF_LIGHT


class TestDistance:
    def test_identity(self):
        assert geo.distance(Position(0, 0, 0), Position(0, 0, 0)) == 0.0

    def test_3_4_5(self):
        assert geo.distance(Position(0, 0, 0), Position(3, 4, 0)) == 5.0

    def test_anchor_to_claim(self):
        # Hand-computed norm: sqrt(1.45^2 + 2.105^2).
        d = geo.distance(Position(2.5, 0.6, 0), Position(3.95, 2.705, 0))
        assert d == pytest.approx(2.556076094328962, abs=1e-12)

    def test_symmetric(self):
        p, q = Position(1.2, -3.4, 0.5), Position(-0.7, 2.2, 9.1)
        assert geo.distance(p, q) == geo.distance(q, p)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Position(float("nan"), 0)
        with pytest.raises(ValueError):
            Position(0, float("inf"))


class TestTwrDistance:
    def test_zero_flight_time(self):
        assert geo.twr_distance(300_000.0, 300_000.0) == 0.0

    def test_forced_inversion_10m(self):
        dt = 2 * 10 / C * 1e9  # ns
        assert geo.twr_distance(dt, 0.0) == pytest.approx(10.0, abs=1e-9)

    def test_rounded_interval_near_10m(self):
        assert geo.twr_distance(66.713, 0.0) == pytest.approx(10.0, abs=1e-3)

    def test_invalid_timing(self):
        with pytest.raises(InvalidTimingError):
            geo.twr_distance(100.0, 200.0)

    @given(st.floats(min_value=0.0, max_value=1000.0),
           st.floats(min_value=0.0, max_value=1e6))
    def test_roundtrip_identity(self, d, t_reply):
        dt = 2 * d / C * 1e9
        back = geo.twr_distance(dt + t_reply, t_reply)
        assert back == pytest.approx(d, rel=1e-9, abs=1e-9)


class TestAnchorSet:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(GeometryError):
            AnchorSet([("a", Position(0, 0)), ("a", Position(1, 0)),
                       ("b", Position(0, 1))])

    def test_too_few_anchors(self):
        with pytest.raises(GeometryError):
            AnchorSet([("a", Position(0, 0)), ("b", Position(1, 0))])

    def test_collinear_rejected(self):
        with pytest.raises(GeometryError):
            AnchorSet([("a", Position(0, 0)), ("b", Position(1, 1)),
                       ("c", Position(2, 2))])

    def test_coplanar_rejected_3d(self):
        with pytest.raises(GeometryError):
            AnchorSet([("a", Position(0, 0, 1)), ("b", Position(1, 0, 1)),
                       ("c", Position(0, 1, 1)), ("d", Position(1, 1, 1))],
                      dimension=3)

    def test_centroid(self, fig4_anchors):
        c = fig4_anchors.centroid()
        assert (c.x, c.y) == pytest.approx((2.675, 0.875))


class TestMultilaterate:
    def test_fig4_exact_recovery(self, fig4_anchors):
        target = Position(3.95, 2.705)
        ranges = noisy_ranges(fig4_anchors, target, 0.0, random.Random(0))
        est = geo.multilaterate(fig4_anchors, ranges)
        assert est.converged
        assert geo.distance(est.position, target) < 1e-6
        assert est.residual_rms < 1e-9

    def test_centroid_by_symmetry(self):
        square = make_anchor_set([("a", 0, 0), ("b", 0, 2), ("c", 2, 2), ("d", 2, 0)])
        r = math.sqrt(2.0)  # each corner to the center
        ranges = [np.array([r]) for _ in square.ids]
        est = geo.multilaterate(square, ranges)
        assert est.converged
        assert geo.distance(est.position, Position(1, 1)) < 1e-9

    def test_fig5_matches_grid_oracle(self, fig5_anchors):
        # Expected values frozen from the brute-force grid oracle (seed 11).
        target = Position(4.2, 12.745)
        rng = random.Random(11)
        ranges = noisy_ranges(fig5_anchors, target, 0.05, rng)
        est = geo.multilaterate(fig5_anchors, ranges)
        assert est.converged

        pts = np.array([[p.x, p.y] for _, p in fig5_anchors.anchors])
        dists = np.concatenate(ranges)
        (gx, gy), grid_ssr = grid_argmin(pts, dists, (0, 8), (0, 16), step=0.01)
        gap = math.hypot(est.position.x - gx, est.position.y - gy)
        assert gap <= 0.02
        # The continuous minimizer can only beat the best grid node.
        assert ssr([est.position.x, est.position.y], pts, dists) <= grid_ssr

    def test_ssr_dominates_grid_on_thin_geometry(self, fig5_anchors):
        # The flat valley of this layout lets the grid argmin wander along
        # it, but the solver's SSR must still be at least as good.
        target = Position(4.2, 12.745)
        pts = np.array([[p.x, p.y] for _, p in fig5_anchors.anchors])
        for seed in (1, 3, 4, 8, 9):
            ranges = noisy_ranges(fig5_anchors, target, 0.05, random.Random(seed))
            est = geo.multilaterate(fig5_anchors, ranges)
            assert est.converged
            dists = np.concatenate(ranges)
            _, grid_ssr = grid_argmin(pts, dists, (0, 8), (0, 16), step=0.01)
            assert ssr([est.position.x, est.position.y], pts, dists) <= grid_ssr

    def test_unknown_anchor_rejected(self, fig4_anchors):
        # A fifth range array belongs to no anchor of the set.
        with pytest.raises(GeometryError):
            geo.multilaterate(fig4_anchors, [np.array([1.0])] * 5)

    def test_wrong_length_rejected(self, fig4_anchors):
        with pytest.raises(GeometryError):
            geo.multilaterate(fig4_anchors, [np.array([1.0])] * 3)
        with pytest.raises(GeometryError):
            geo.multilaterate(fig4_anchors, [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1])
    def test_non_finite_or_negative_rejected(self, fig4_anchors, bad):
        target = Position(3.95, 2.705)
        ranges = noisy_ranges(fig4_anchors, target, 0.0, random.Random(0), rounds=3)
        ranges[2][1] = bad
        with pytest.raises(GeometryError):
            geo.multilaterate(fig4_anchors, ranges)

    def test_two_dimensional_array_rejected(self, fig4_anchors):
        with pytest.raises(GeometryError):
            geo.multilaterate(fig4_anchors, [np.ones((2, 2))] * 4)

    def test_needs_dimension_plus_one_distinct_anchors(self, fig4_anchors):
        ranges = [np.array([1.0, 1.0]), np.array([1.0]), np.array([]), np.array([])]
        with pytest.raises(InsufficientRangesError):
            geo.multilaterate(fig4_anchors, ranges)

    def test_three_anchor_warning(self):
        tri = make_anchor_set([("a", 0, 0), ("b", 4, 0), ("c", 2, 3)])
        target = Position(1.5, 1.0)
        est = geo.multilaterate(tri, noisy_ranges(tri, target, 0.0, random.Random(0)))
        assert est.converged
        assert geo.distance(est.position, target) < 1e-6

    def test_non_convergence_is_flagged_not_raised(self, fig4_anchors, monkeypatch):
        monkeypatch.setattr(geo, "GN_MAX_ITERATIONS", 1)
        target = Position(3.95, 2.705)
        ranges = noisy_ranges(fig4_anchors, target, 0.05, random.Random(1))
        est = geo.multilaterate(fig4_anchors, ranges)
        assert not est.converged
        assert est.iterations == 1

    def test_duplicate_measurements_pool(self, fig4_anchors):
        target = Position(3.95, 2.705)
        ranges = noisy_ranges(fig4_anchors, target, 0.05, random.Random(2), rounds=50)
        est = geo.multilaterate(fig4_anchors, ranges)
        assert est.converged
        # Pooling 50 rounds tightens the estimate well below single-round noise.
        assert geo.distance(est.position, target) < 0.1

    def test_3d_recovery(self):
        anchors = AnchorSet(
            [("a", Position(0, 0, 0)), ("b", Position(5, 0, 0)),
             ("c", Position(0, 5, 0)), ("d", Position(0, 0, 5)),
             ("e", Position(5, 5, 4))],
            dimension=3,
        )
        target = Position(2.0, 3.0, 1.5)
        ranges = [np.array([geo.distance(pos, target)]) for _, pos in anchors.anchors]
        est = geo.multilaterate(anchors, ranges)
        assert est.converged
        assert geo.distance(est.position, target) < 1e-6

    @settings(max_examples=50, deadline=None)
    @given(
        angle=st.floats(min_value=0, max_value=2 * math.pi),
        tx=st.floats(min_value=-50, max_value=50),
        ty=st.floats(min_value=-50, max_value=50),
    )
    def test_rigid_motion_equivariance(self, angle, tx, ty):
        coords = FIG4_ANCHOR_COORDS
        target = Position(3.95, 2.705)
        rng = random.Random(7)
        base = make_anchor_set(coords)
        ranges = noisy_ranges(base, target, 0.05, rng)

        cos_a, sin_a = math.cos(angle), math.sin(angle)

        def move(p: Position) -> Position:
            return Position(cos_a * p.x - sin_a * p.y + tx,
                            sin_a * p.x + cos_a * p.y + ty)

        moved = AnchorSet([(a_id, move(pos)) for a_id, pos in base.anchors])
        est = geo.multilaterate(base, ranges)
        est_moved = geo.multilaterate(moved, ranges)
        assert geo.distance(est_moved.position, move(est.position)) < 1e-6


class TestErrorRadius:
    def test_zero_for_exact_ranges(self, fig4_anchors):
        target = Position(3.95, 2.705)
        est = geo.multilaterate(fig4_anchors,
                                noisy_ranges(fig4_anchors, target, 0.0, random.Random(0)))
        assert est.error_radius == pytest.approx(0.0, abs=1e-6)

    def test_undefined_dof(self):
        jac = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InsufficientDofError):
            geo.error_radius(jac, 0.1)

    def test_geometry_ordering_fig4_vs_fig5(self, fig4_anchors, fig5_anchors):
        # Same noise level, 1000 seeds each: the distant thin layout must
        # yield larger radii than the close one.
        radii4, radii5 = [], []
        for seed in range(1000):
            r4 = noisy_ranges(fig4_anchors, Position(3.95, 2.705), 0.05,
                              random.Random(seed))
            r5 = noisy_ranges(fig5_anchors, Position(4.2, 12.745), 0.05,
                              random.Random(seed))
            e4 = geo.multilaterate(fig4_anchors, r4)
            e5 = geo.multilaterate(fig5_anchors, r5)
            if e4.converged:
                radii4.append(e4.error_radius)
            if e5.converged:
                radii5.append(e5.error_radius)
        assert len(radii4) > 950 and len(radii5) > 950
        assert statistics.median(radii5) > statistics.median(radii4)

    def test_doubling_sigma_doubles_radius(self, fig4_anchors):
        # Linearized model: scaling the same noise draws by 2 should scale
        # the radius by 2 within 5% (checked as a median over 1000 seeds).
        target = Position(3.95, 2.705)
        true_d = {a_id: geo.distance(pos, target) for a_id, pos in fig4_anchors.anchors}
        ratios = []
        for seed in range(1000):
            rng = random.Random(seed)
            noise = {a_id: rng.gauss(0, 0.05) for a_id, _ in fig4_anchors.anchors}
            r1 = [np.array([true_d[a] + noise[a]]) for a in fig4_anchors.ids]
            r2 = [np.array([true_d[a] + 2 * noise[a]]) for a in fig4_anchors.ids]
            e1 = geo.multilaterate(fig4_anchors, r1)
            e2 = geo.multilaterate(fig4_anchors, r2)
            if e1.converged and e2.converged and e1.error_radius > 0:
                ratios.append(e2.error_radius / e1.error_radius)
        assert statistics.median(ratios) == pytest.approx(2.0, rel=0.05)

    def test_monotone_in_measured_noise(self, fig4_anchors):
        # Same geometry, larger actual noise: radius grows (median sense).
        target = Position(3.95, 2.705)
        med = []
        for sigma in (0.02, 0.05, 0.1):
            radii = [
                geo.multilaterate(
                    fig4_anchors, noisy_ranges(fig4_anchors, target, sigma,
                                               random.Random(seed))
                ).error_radius
                for seed in range(300)
            ]
            med.append(statistics.median(radii))
        assert med[0] < med[1] < med[2]


class TestOracleEquivalence:
    def test_ls_beats_grid_on_random_scenarios(self):
        rng = random.Random(20250810)
        for _ in range(5):
            pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(4)]
            try:
                anchors = AnchorSet(
                    [(f"a{i}", Position(x, y)) for i, (x, y) in enumerate(pts)])
            except GeometryError:
                continue
            target = Position(rng.uniform(0, 10), rng.uniform(0, 10))
            ranges = noisy_ranges(anchors, target, 0.05, rng)
            est = geo.multilaterate(anchors, ranges)
            assert est.converged
            apts = np.array([[p.x, p.y] for _, p in anchors.anchors])
            dists = np.concatenate(ranges)
            _, grid_ssr = grid_argmin(apts, dists, (0, 10), (0, 10), step=0.01)
            assert ssr([est.position.x, est.position.y], apts, dists) <= grid_ssr
