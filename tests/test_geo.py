"""Geometry core: distance, two-way-ranging arithmetic, multilateration."""

import math
import random
import statistics
from itertools import islice

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
from uwbpol.geo import AnchorSet, Position, RangeStats

from _oracles import (
    generic_fits,
    generic_multilaterate,
    grid_argmin,
    pooled_fits,
    pooled_multilaterate,
    ssr,
)
from conftest import (
    FIG4_ANCHOR_COORDS,
    FIG5_ANCHOR_COORDS,
    make_anchor_set,
    noisy_ranges,
    noisy_samples,
)

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

    def test_z_is_0_in_2d(self):
        with pytest.raises(GeometryError, match=r"anchors\[0\]\.z"):
            AnchorSet([("a", Position(0, 0, 7)), ("b", Position(1, 0)),
                       ("c", Position(0, 1))], dimension=2)

    def test_coplanar_rejected_3d(self):
        with pytest.raises(GeometryError):
            AnchorSet([("a", Position(0, 0, 1)), ("b", Position(1, 0, 1)),
                       ("c", Position(0, 1, 1)), ("d", Position(1, 1, 1))],
                      dimension=3)

    def test_centroid(self, fig4_anchors):
        c = fig4_anchors.centroid()
        assert (c.x, c.y) == pytest.approx((2.675, 0.875))

    def test_rank_test_matches_numpy(self):
        # Clouds on a random line (2D) or plane (3D), pushed off it by 0 to
        # 1e-6 m: refused exactly when numpy finds the centred cloud's
        # smallest singular value <= 1e-9.
        rng = random.Random(9)
        for _ in range(2000):
            dimension = rng.choice((2, 3))
            scale = 10 ** rng.uniform(-1, 2)
            spread = 10 ** rng.uniform(-14, -6) if rng.random() < 0.9 else 0.0
            basis = [[rng.gauss(0, 1) for _ in range(dimension)] for _ in range(dimension - 1)]
            normal = [rng.gauss(0, 1) for _ in range(dimension)]
            origin = [rng.uniform(-scale, scale) for _ in range(dimension)]
            pts = []
            for _ in range(rng.randint(dimension + 1, 7)):
                cs = [rng.uniform(-scale, scale) for _ in basis]
                off = rng.gauss(0, spread)
                pts.append([origin[k] + sum(c * b[k] for c, b in zip(cs, basis)) + off * normal[k]
                            for k in range(dimension)])
            centred = np.array(pts) - np.array(pts).mean(axis=0)
            full_rank = np.linalg.matrix_rank(centred, tol=1e-9) == dimension
            try:
                AnchorSet([(f"a{i}", Position(*p)) for i, p in enumerate(pts)], dimension)
                accepted = True
            except GeometryError:
                accepted = False
            assert accepted == full_rank, pts


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
        ranges = [RangeStats(1, r) for _ in square.ids]
        est = geo.multilaterate(square, ranges)
        assert est.converged
        assert geo.distance(est.position, Position(1, 1)) < 1e-9

    def test_fig5_matches_grid_oracle(self, fig5_anchors):
        # Expected values frozen from the brute-force grid oracle (seed 11).
        target = Position(4.2, 12.745)
        rng = random.Random(11)
        samples = noisy_samples(fig5_anchors, target, 0.05, rng)
        est = geo.multilaterate(fig5_anchors, [RangeStats.of(xs) for xs in samples])
        assert est.converged

        pts = np.array([[p.x, p.y] for _, p in fig5_anchors.anchors])
        dists = np.concatenate(samples)
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
            samples = noisy_samples(fig5_anchors, target, 0.05, random.Random(seed))
            est = geo.multilaterate(fig5_anchors, [RangeStats.of(xs) for xs in samples])
            assert est.converged
            dists = np.concatenate(samples)
            _, grid_ssr = grid_argmin(pts, dists, (0, 8), (0, 16), step=0.01)
            assert ssr([est.position.x, est.position.y], pts, dists) <= grid_ssr

    def test_unknown_anchor_rejected(self, fig4_anchors):
        # A fifth RangeStats belongs to no anchor of the set.
        with pytest.raises(GeometryError):
            geo.multilaterate(fig4_anchors, [RangeStats(1, 1.0)] * 5)

    def test_wrong_length_rejected(self, fig4_anchors):
        with pytest.raises(GeometryError):
            geo.multilaterate(fig4_anchors, [RangeStats(1, 1.0)] * 3)
        with pytest.raises(GeometryError):
            geo.multilaterate(fig4_anchors, [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1])
    def test_non_finite_or_negative_rejected(self, fig4_anchors, bad):
        # A bad distance is refused on its way to the solver.
        target = Position(3.95, 2.705)
        samples = noisy_samples(fig4_anchors, target, 0.0, random.Random(0), rounds=3)
        samples[2][1] = bad
        with pytest.raises(GeometryError):
            geo.multilaterate(fig4_anchors, [RangeStats.of(xs) for xs in samples])

    @pytest.mark.parametrize("bad", [[1.0, 1.0], (2, 1.0, 0.0), 1.0, None],
                             ids=["list", "tuple", "float", "none"])
    def test_non_range_stats_element_rejected(self, fig4_anchors, bad):
        ranges = [RangeStats(1, 1.0)] * 3 + [bad]
        with pytest.raises(GeometryError):
            geo.multilaterate(fig4_anchors, ranges)

    def test_needs_dimension_plus_one_distinct_anchors(self, fig4_anchors):
        ranges = [RangeStats(2, 1.0), RangeStats(1, 1.0), RangeStats(0), RangeStats(0)]
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
        ranges = [RangeStats(1, geo.distance(pos, target)) for _, pos in anchors.anchors]
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
        jtj = ((1.0, 0.0), (0.0, 1.0))  # two measurements for two unknowns
        with pytest.raises(InsufficientDofError):
            geo.error_radius(jtj, 2, 0.1)

    @pytest.mark.parametrize("jtj", [
        ((1.0, 1.0), (1.0, 1.0)),
        ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1e-13)),
    ], ids=["2d", "3d"])
    def test_near_singular_geometry(self, jtj):
        with pytest.raises(GeometryError):
            geo.error_radius(jtj, 10, 0.1)

    def test_inverse_trace(self):
        # J^T J = diag(4, 1) over 6 measurements with SSR 0.4: sigma^2 = 0.1
        # and trace((J^T J)^-1) = 1.25.
        assert geo.error_radius(((4.0, 0.0), (0.0, 1.0)), 6, 0.4) == pytest.approx(
            math.sqrt(0.125), rel=1e-15)

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
            r1 = [RangeStats.of([true_d[a] + noise[a]]) for a in fig4_anchors.ids]
            r2 = [RangeStats.of([true_d[a] + 2 * noise[a]]) for a in fig4_anchors.ids]
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
            samples = noisy_samples(anchors, target, 0.05, rng)
            est = geo.multilaterate(anchors, [RangeStats.of(xs) for xs in samples])
            assert est.converged
            apts = np.array([[p.x, p.y] for _, p in anchors.anchors])
            dists = np.concatenate(samples)
            _, grid_ssr = grid_argmin(apts, dists, (0, 10), (0, 10), step=0.01)
            assert ssr([est.position.x, est.position.y], apts, dists) <= grid_ssr


class TestRangeStats:
    @pytest.mark.parametrize("count", [-1, True, False, 2.0, None])
    def test_bad_count_rejected(self, count):
        with pytest.raises(GeometryError):
            RangeStats(count, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1, True, "1"])
    @pytest.mark.parametrize("field", ["mean", "ssd"])
    def test_bad_mean_or_ssd_rejected(self, field, bad):
        with pytest.raises(GeometryError):
            RangeStats(3, **{"mean": 1.0, "ssd": 0.1, field: bad})

    @pytest.mark.parametrize("mean, ssd", [(1.0, 0.0), (0.0, 0.1)])
    def test_no_distances_no_numbers(self, mean, ssd):
        with pytest.raises(GeometryError):
            RangeStats(0, mean, ssd)

    def test_one_distance_has_no_scatter(self):
        with pytest.raises(GeometryError):
            RangeStats(1, 2.0, 0.1)
        assert RangeStats.of([2.0]) == RangeStats(1, 2.0, 0.0)
        assert RangeStats.of([]) == RangeStats(0)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=300))
    def test_of_matches_statistics(self, xs):
        stats = RangeStats.of(xs)
        assert stats.count == len(xs)
        assert stats.mean == pytest.approx(statistics.fmean(xs), rel=1e-12, abs=1e-12)
        assert stats.ssd == pytest.approx(len(xs) * statistics.pvariance(xs),
                                          rel=1e-12, abs=1e-12)


def random_geometries(rng):
    """Endless (anchors, target, samples): 2D and 3D, 3 to 7 anchors and the
    target in a 10 m box, noise up to 0.1 m, 1 or 200 rounds with 1% loss."""
    while True:
        dimension = rng.choice((2, 3))
        try:
            anchors = AnchorSet(
                [(f"a{i}", Position(*[rng.uniform(0, 10) for _ in range(dimension)]))
                 for i in range(rng.randint(dimension + 1, 7))], dimension)
        except GeometryError:
            continue
        target = Position(*[rng.uniform(0, 10) for _ in range(dimension)])
        sigma, rounds = rng.uniform(0, 0.1), rng.choice((1, 200))
        yield anchors, target, [[max(geo.distance(pos, target) + rng.gauss(0, sigma), 0.0)
                                 for _ in range(rounds) if rng.random() >= 0.01]
                                for _, pos in anchors.anchors]


class TestPooledEquivalence:
    """multilaterate against the pooled-row reference solver of _oracles.

    Same converged flag; for a converged fit, position and error radius
    within 1e-9 (relative).
    """

    @staticmethod
    def assert_same(anchors, samples):
        ref = pooled_multilaterate(anchors, samples)
        est = geo.multilaterate(anchors, [RangeStats.of(xs) for xs in samples])
        assert est.converged == ref.converged
        if ref.converged:
            scale = max(abs(ref.position.x), abs(ref.position.y), abs(ref.position.z))
            assert geo.distance(est.position, ref.position) <= 1e-9 * scale
            assert est.error_radius == pytest.approx(ref.error_radius, rel=1e-9)

    @pytest.mark.parametrize("rounds", [1, 200])
    @pytest.mark.parametrize("coords, target", [
        (FIG4_ANCHOR_COORDS, Position(3.95, 2.705)),
        (FIG5_ANCHOR_COORDS, Position(4.2, 12.745)),
    ], ids=["fig4", "fig5"])
    def test_presets(self, coords, target, rounds):
        anchors = make_anchor_set(coords)
        for seed in range(100):
            self.assert_same(anchors, noisy_samples(anchors, target, 0.05,
                                                    random.Random(seed), rounds))

    def test_random_geometries(self):
        # Set aside, and counted: cases where a start of the reference fails
        # (does not converge, or meets singular normal equations). The two
        # linear seeds differ by design (the reference's uses the first
        # distance to the first anchor, this one its mean square), so there a
        # failing start may fail differently.
        compared = set_aside = 0
        for anchors, _, samples in random_geometries(random.Random(6)):
            if compared == 1000:
                break
            try:
                starts_converge = all(fit[4] for fit in pooled_fits(anchors, samples))
            except InsufficientRangesError:
                continue
            except GeometryError:
                starts_converge = False
            if not starts_converge:
                set_aside += 1
                continue
            self.assert_same(anchors, samples)
            compared += 1
        assert set_aside <= 20

    def test_one_failing_start_leaves_the_other(self):
        # Case 175 of the generator with seed 3, 4 anchors in 3D: the
        # centroid start diverges into singular normal equations, the linear
        # seed converges near the truth.
        anchors, target, samples = next(islice(random_geometries(random.Random(3)), 174, None))
        assert anchors.dimension == 3 and len(anchors) == 4
        est = geo.multilaterate(anchors, [RangeStats.of(xs) for xs in samples])
        assert est.converged
        assert geo.distance(est.position, target) < 0.05


class TestGenericEquivalence:
    """multilaterate against the generic per-anchor solver of _oracles.

    The closed forms keep every sum and operation order of the generic
    solver, so the two EstimateResults are equal, float for float.
    """

    @staticmethod
    def solve(solver, anchors, ranges):
        try:
            return solver(anchors, ranges)
        except InsufficientRangesError as exc:
            return type(exc)

    @pytest.mark.parametrize("rounds", [1, 200])
    @pytest.mark.parametrize("coords, target", [
        (FIG4_ANCHOR_COORDS, Position(3.95, 2.705)),
        (FIG5_ANCHOR_COORDS, Position(4.2, 12.745)),
    ], ids=["fig4", "fig5"])
    def test_presets(self, coords, target, rounds):
        anchors = make_anchor_set(coords)
        for seed in range(100):
            ranges = noisy_ranges(anchors, target, 0.05, random.Random(seed), rounds)
            assert geo.multilaterate(anchors, ranges) == generic_multilaterate(anchors, ranges)

    def test_random_geometries(self):
        # The first 1000 cases of the generator with seed 3, case 175 among
        # them, failing starts and too few anchors with a distance included.
        failing_starts = 0
        for anchors, _, samples in islice(random_geometries(random.Random(3)), 1000):
            ranges = [RangeStats.of(xs) for xs in samples]
            expected = self.solve(generic_multilaterate, anchors, ranges)
            assert self.solve(geo.multilaterate, anchors, ranges) == expected
            if expected is not InsufficientRangesError:
                failing_starts += sum(not fit[4] for fit in generic_fits(anchors, ranges))
        assert failing_starts >= 5
