import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    bisect_release_time,
    closed_form_underetch,
    dense_release_coverage,
    euler_underetch,
    scan_release_time,
)
from zeropack import release as release_mod
from zeropack.errors import CalibrationError, DataFileError, ReleaseTooSlowError
from zeropack.geometry import Hole, PackageStack, Rect, _released, default_coverage_pitch
from zeropack.release import (
    DEFAULT_ETCH_PARAMS,
    DEFAULT_TIME_CAP,
    TIME_TOLERANCE,
    EtchObservation,
    EtchParams,
    bundled_observations,
    calibrate_etch,
    etch_rate,
    etch_state,
    load_observations,
    time_to_release,
    underetch,
)
from zeropack.units import MINUTE, NM, UM


def stack_with(h_s, footprint=Rect(30 * UM, 30 * UM)):
    return PackageStack(h_s, 2 * UM, 2.5 * UM, footprint)


PARAMS = EtchParams(
    intrinsic_rate=1.5 * UM / MINUTE, aperture_factor=2.0 * UM, channel_factor=4.0
)


class TestEtchRate:
    def test_rate_approaches_intrinsic_for_huge_openings(self):
        rate = etch_rate(Hole.circle(10_000 * UM), stack_with(1.1 * UM), PARAMS)
        assert rate == pytest.approx(PARAMS.intrinsic_rate, rel=1e-6)

    def test_rate_bounded_by_intrinsic(self):
        stack = stack_with(3.3 * UM)
        for d in (0.5, 2, 9):
            for u in (0.0, 1 * UM, 10 * UM):
                r = etch_rate(Hole.circle(d * UM), stack, PARAMS, u)
                assert 0.0 < r <= PARAMS.intrinsic_rate

    def test_rate_decreasing_in_underetch_and_increasing_in_area(self):
        stack = stack_with(1.1 * UM)
        r = [etch_rate(Hole.circle(2 * UM), stack, PARAMS, u * UM) for u in (0, 1, 3)]
        assert r[0] > r[1] > r[2]
        r = [etch_rate(Hole.circle(d * UM), stack, PARAMS, 1 * UM) for d in (2, 4, 9)]
        assert r[0] < r[1] < r[2]

    def test_negative_underetch_rejected(self):
        with pytest.raises(ValueError):
            etch_rate(Hole.circle(2 * UM), stack_with(1 * UM), PARAMS, -1.0)


class TestUnderetch:
    def test_zero_time_gives_zero(self):
        assert underetch(Hole.circle(2 * UM), stack_with(1.1 * UM), PARAMS, 0.0) == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            underetch(Hole.circle(2 * UM), stack_with(1.1 * UM), PARAMS, -1.0)

    def test_unlimited_transport_is_linear(self):
        p = EtchParams(2.0 * UM / MINUTE, 0.0, 0.0)
        u = underetch(Hole.circle(2 * UM), stack_with(1.1 * UM), p, 7 * MINUTE)
        assert u == pytest.approx(14 * UM, rel=1e-9)

    @pytest.mark.parametrize("d_um,h_um,t_min", [(2, 1.1, 2), (9, 3.3, 2), (4, 1.1, 16)])
    def test_matches_fine_step_euler(self, d_um, h_um, t_min):
        hole, stack = Hole.circle(d_um * UM), stack_with(h_um * UM)
        u = underetch(hole, stack, PARAMS, t_min * MINUTE)
        ref = euler_underetch(hole, stack, PARAMS, t_min * MINUTE)
        assert u == pytest.approx(ref, rel=0.005)

    @pytest.mark.parametrize("d_um,h_um,t_min", [(2, 1.1, 2), (6, 3.3, 5)])
    def test_matches_closed_form(self, d_um, h_um, t_min):
        hole, stack = Hole.circle(d_um * UM), stack_with(h_um * UM)
        u = underetch(hole, stack, PARAMS, t_min * MINUTE)
        assert u == pytest.approx(closed_form_underetch(hole, stack, PARAMS, t_min * MINUTE), rel=1e-7)

    def test_semigroup_resume(self):
        hole, stack = Hole.circle(3 * UM), stack_with(1.1 * UM)
        u1 = underetch(hole, stack, PARAMS, 1.7 * MINUTE)
        resumed = underetch(hole, stack, PARAMS, 2.6 * MINUTE, start=u1)
        direct = underetch(hole, stack, PARAMS, 4.3 * MINUTE)
        assert resumed == pytest.approx(direct, rel=1e-12)

    def test_returns_a_python_float(self):
        u = underetch(Hole.circle(2 * UM), stack_with(1.1 * UM), PARAMS, 2 * MINUTE)
        assert type(u) is float

    @pytest.mark.parametrize("t_min", [0.0, 0.37, 2.0, 96.5, 1e9])
    def test_array_path_equals_scalar_path_exactly(self, t_min):
        # time_to_release moves every hole's front at once; each must be
        # the very float underetch gives for that hole alone
        stack = stack_with(1.1 * UM)
        holes = [
            Hole.circle(2 * UM),
            Hole.square(3.7 * UM),
            Hole.rectangle(1.3 * UM, 9 * UM),
            Hole.circle(40 * UM),
        ]
        h_s = stack.sacrificial_thickness
        feed = np.array([release_mod._feed(PARAMS, h_s, h) for h in holes])
        fronts = release_mod._front(PARAMS, feed, h_s, t_min * MINUTE)
        assert fronts.tolist() == [underetch(h, stack, PARAMS, t_min * MINUTE) for h in holes]

    @pytest.mark.parametrize("t_min", [0.37, 2.0, 96.5, 1e9])
    def test_arrival_inverts_the_front(self, t_min):
        stack = stack_with(1.1 * UM)
        holes = [Hole.circle(2 * UM), Hole.rectangle(1.3 * UM, 9 * UM), Hole.circle(40 * UM)]
        h_s = stack.sacrificial_thickness
        feed = np.array([release_mod._feed(PARAMS, h_s, h) for h in holes])
        fronts = release_mod._front(PARAMS, feed, h_s, t_min * MINUTE)
        times = release_mod._arrival(PARAMS, feed, h_s, fronts)
        assert times == pytest.approx(t_min * MINUTE, rel=1e-12)

    @pytest.mark.filterwarnings("error")  # a time past the float range is inf, not a warning
    def test_arrival_is_zero_inside_the_hole_and_inf_past_the_float_range(self):
        params = EtchParams(1e-300, 0.0, 0.32)
        times = release_mod._arrival(params, 0.0, 1e-300, np.array([-1.0, 0.0, 1.0]))
        assert times.tolist() == [0.0, 0.0, math.inf]

    @pytest.mark.parametrize(
        "params, duration",
        [
            (EtchParams(1e300, 0.0, 0.32), 1e4),  # only the discriminant overflows
            (EtchParams(1e300, 0.0, 0.32), 1e300),  # rhs overflows too
            (EtchParams(1e300, 0.0, 0.0), 1e300),  # rhs overflows with b = 0
            (EtchParams(1e300, 0.0, 0.0), 1.5e8),  # only 2 rhs overflows
        ],
    )
    @pytest.mark.filterwarnings("error")  # an overflow is raised, never warned
    def test_overflow_is_an_error_not_a_front(self, params, duration):
        with pytest.raises(ValueError, match="overflows"):
            release_mod._front(params, 0.0, 1 * UM, duration)
        with pytest.raises(ValueError, match="overflows"):
            release_mod._front(params, np.array([0.0, 1.0]), 1 * UM, duration)


class TestCalibration:
    def synthetic_observations(self, params, noise=0.0):
        obs = []
        for d in (2, 4, 6, 9):
            for h_s in (1.1, 3.3):
                hole = Hole.circle(d * UM)
                stack = stack_with(h_s * UM)
                u = underetch(hole, stack, params, 2 * MINUTE)
                obs.append(EtchObservation(hole, h_s * UM, 2 * MINUTE, u * (1 + noise)))
        return obs

    def test_round_trip_recovers_known_params(self):
        result = calibrate_etch(self.synthetic_observations(PARAMS))
        assert result.params.intrinsic_rate == pytest.approx(PARAMS.intrinsic_rate, rel=0.01)
        assert result.params.aperture_factor == pytest.approx(PARAMS.aperture_factor, rel=0.01)
        assert result.params.channel_factor == pytest.approx(PARAMS.channel_factor, rel=0.01)
        assert result.residual < 1 * NM

    def test_single_observation_with_frozen_transport(self):
        obs = [EtchObservation(Hole.circle(2 * UM), 1.1 * UM, 2 * MINUTE, 0.8 * UM)]
        result = calibrate_etch(
            obs, fixed={"aperture_factor": 0.0, "channel_factor": 0.0}
        )
        assert result.params.intrinsic_rate == pytest.approx(0.4 * UM / MINUTE, rel=1e-6)

    def test_under_determined_data_rejected(self):
        obs = self.synthetic_observations(PARAMS)[:2]
        with pytest.raises(CalibrationError, match="under-determined"):
            calibrate_etch(obs)

    def test_single_hole_size_rejected_for_full_fit(self):
        hole = Hole.circle(2 * UM)
        obs = [
            EtchObservation(hole, h * UM, 2 * MINUTE, 0.5 * UM) for h in (1.0, 2.0, 3.0)
        ]
        with pytest.raises(CalibrationError, match="hole sizes"):
            calibrate_etch(obs)

    def test_no_free_parameters_rejected(self):
        obs = self.synthetic_observations(PARAMS)
        with pytest.raises(CalibrationError):
            calibrate_etch(
                obs,
                fixed={
                    "intrinsic_rate": 1.0,
                    "aperture_factor": 0.0,
                    "channel_factor": 0.0,
                },
            )

    def test_residual_never_increases_with_model_size(self):
        obs = bundled_observations()
        r1 = calibrate_etch(obs, fixed={"aperture_factor": 0.0, "channel_factor": 0.0})
        r2 = calibrate_etch(obs, fixed={"channel_factor": 0.0})
        r3 = calibrate_etch(obs)
        assert r1.residual >= r2.residual >= r3.residual

    def test_bundled_fit_matches_frozen_defaults(self):
        fitted = calibrate_etch(bundled_observations()).params
        # the frozen constants are printed to 6 significant digits in
        # their working units (um/min, um, -)
        for name, unit in (
            ("intrinsic_rate", UM / MINUTE),
            ("aperture_factor", UM),
            ("channel_factor", 1.0),
        ):
            got = getattr(fitted, name) / unit
            frozen = getattr(DEFAULT_ETCH_PARAMS, name) / unit
            assert f"{got:.6g}" == f"{frozen:.6g}", name

    def test_thin_film_etches_faster_through_small_holes(self):
        params = calibrate_etch(bundled_observations()).params
        ratios = {}
        for d in (2, 4, 6, 9):
            hole = Hole.circle(d * UM)
            thin = underetch(hole, stack_with(1.1 * UM), params, 2 * MINUTE)
            thick = underetch(hole, stack_with(3.3 * UM), params, 2 * MINUTE)
            ratios[d] = thin / thick
        assert ratios[2] == pytest.approx(3.0, rel=0.2)
        assert ratios[9] == pytest.approx(1.3, rel=0.2)
        assert ratios[2] > ratios[4] > ratios[6] > ratios[9]


class TestTimeToRelease:
    def test_hole_covering_footprint_releases_immediately(self, materials):
        fp = Rect(2 * UM, 2 * UM)
        stack = PackageStack(1.1 * UM, 2 * UM, 2.5 * UM, fp)
        # a 3 um opening reaches past the 2 x 2 footprint corners at t = 0
        t, loss = time_to_release(fp, [Hole.circle(3 * UM)], stack, PARAMS, materials["sio2_sputter"])
        assert t == 0.0
        assert loss == 0.0

    def test_matches_time_grid_scan(self, materials):
        fp = Rect(12 * UM, 12 * UM)
        stack = PackageStack(1.1 * UM, 2 * UM, 2.5 * UM, fp)
        holes = [
            Hole.circle(2 * UM, (-3.5 * UM, -3.5 * UM)),
            Hole.circle(2 * UM, (3.5 * UM, -3.5 * UM)),
            Hole.circle(2 * UM, (-3.5 * UM, 3.5 * UM)),
            Hole.circle(2 * UM, (3.5 * UM, 3.5 * UM)),
        ]
        pitch = 0.25 * UM
        t, _ = time_to_release(
            fp, holes, stack, PARAMS, materials["sio2_sputter"], grid_pitch=pitch
        )
        t_scan = scan_release_time(fp, holes, stack, PARAMS, pitch)
        assert abs(t - t_scan) <= 0.01 * MINUTE + 1e-3 * MINUTE

    def test_reference_release_time_is_pinned(self, reference_recipe, monkeypatch):
        queries = []

        def counted(*args):
            queries.append(args)
            return _released(*args)

        monkeypatch.setattr(release_mod, "_released", counted)
        r = reference_recipe
        t, _ = time_to_release(
            r.stack.cavity_footprint,
            r.holes,
            r.stack,
            r.etch,
            r.material("structural"),
            max_time=r.etch_max_time,
            grid_pitch=r.coverage_pitch,
        )
        assert t == 5787.01171875
        # the search runs on the arrival-time estimate; the raster is asked
        # only at the two ends of its final bracket (25 queries when every
        # step of the search asked it)
        assert len(queries) == 2

    @pytest.mark.parametrize(
        "wrong",
        [lambda t: 0.5 * t, lambda t: 2.0 * t, lambda t: 0.0, lambda t: math.inf],
        ids=["too-early", "too-late", "zero", "inf"],
    )
    def test_wrong_estimate_falls_back_to_the_raster_search(
        self, materials, monkeypatch, wrong
    ):
        fp = Rect(12 * UM, 12 * UM)
        stack = PackageStack(1.1 * UM, 2 * UM, 2.5 * UM, fp)
        holes = [Hole.circle(2 * UM, (-3.5 * UM, -3.5 * UM)), Hole.square(2 * UM, (3 * UM, 2 * UM))]
        pitch = 0.5 * UM
        expected = bisect_release_time(fp, holes, stack, PARAMS, pitch, DEFAULT_TIME_CAP)
        assert expected > 0.0
        estimate = release_mod._release_estimate
        queries = 0

        def counted(*args):
            nonlocal queries
            queries += 1
            return _released(*args)

        monkeypatch.setattr(release_mod, "_released", counted)
        monkeypatch.setattr(release_mod, "_release_estimate", lambda *a: wrong(estimate(*a)))
        t, _ = time_to_release(fp, holes, stack, PARAMS, materials["sio2_sputter"], grid_pitch=pitch)
        assert t == expected
        assert queries > 2

    def test_bisection_stops_on_adjacent_floats(self, fast_recipe, monkeypatch):
        # past about 2.7e14 s the float spacing exceeds TIME_TOLERANCE, so
        # the bracket narrows to two adjacent floats and halving stalls
        queries = 0

        def capped(*args):
            nonlocal queries
            queries += 1
            if queries > 200:
                raise AssertionError("the release bisection does not terminate")
            return _released(*args)

        monkeypatch.setattr(release_mod, "_released", capped)
        r = fast_recipe
        slow = replace(r.etch, intrinsic_rate=1e-12 * UM / MINUTE)
        fp = r.stack.cavity_footprint
        t, _ = time_to_release(
            fp, r.holes, r.stack, slow, r.material("structural"), max_time=1e30 * MINUTE
        )
        assert math.ulp(t) > TIME_TOLERANCE
        # the left endpoint is returned: not yet released, one ulp later it is
        pitch = default_coverage_pitch(r.holes)
        verdicts = [
            _released(fp, r.holes, [underetch(h, r.stack, slow, x) for h in r.holes], pitch)
            for x in (t, math.nextafter(t, math.inf))
        ]
        assert verdicts == [False, True]

    def test_reference_release_bracket_agrees_with_dense_oracle(self, reference_recipe):
        r = reference_recipe
        fp = r.stack.cavity_footprint
        # the 36 holes are identical, so one front serves them all
        assert len({(h.shape, h.width) for h in r.holes}) == 1
        pitch = default_coverage_pitch(r.holes)
        verdicts = []
        for t in (5787.01171875, 5787.01171875 + TIME_TOLERANCE):
            u = [underetch(r.holes[0], r.stack, r.etch, t)] * len(r.holes)
            released = _released(fp, r.holes, u, pitch)
            assert released == (dense_release_coverage(fp, r.holes, u, pitch) >= 1.0)
            verdicts.append(released)
        assert verdicts == [False, True]

    def test_structural_loss_tracks_selectivity(self, materials):
        fp = Rect(10 * UM, 10 * UM)
        stack = PackageStack(1.1 * UM, 2 * UM, 2.5 * UM, fp)
        t, loss = time_to_release(
            fp, [Hole.circle(2 * UM)], stack, PARAMS, materials["sio2_sputter"]
        )
        assert t > 0.0
        assert loss == pytest.approx(materials["sio2_sputter"].selectivity_loss * t, rel=1e-12)
        assert loss <= (1 * NM / MINUTE) * t * (1 + 1e-12)

    def test_release_too_slow_raises(self, materials):
        fp = Rect(30 * UM, 30 * UM)
        stack = PackageStack(1.1 * UM, 2 * UM, 2.5 * UM, fp)
        with pytest.raises(ReleaseTooSlowError):
            time_to_release(
                fp,
                [Hole.circle(2 * UM)],
                stack,
                PARAMS,
                materials["sio2_sputter"],
                max_time=1 * MINUTE,
            )

    def test_empty_hole_list_rejected(self, materials):
        fp = Rect(10 * UM, 10 * UM)
        stack = PackageStack(1.1 * UM, 2 * UM, 2.5 * UM, fp)
        with pytest.raises(ValueError):
            time_to_release(fp, [], stack, PARAMS, materials["sio2_sputter"])

    def test_enlarging_or_adding_holes_never_slows_release(self, materials):
        fp = Rect(10 * UM, 10 * UM)
        stack = PackageStack(1.1 * UM, 2 * UM, 2.5 * UM, fp)
        sio2 = materials["sio2_sputter"]
        base = [Hole.circle(2 * UM, (-2 * UM, 0.0))]
        t_base, _ = time_to_release(fp, base, stack, PARAMS, sio2)
        bigger = [Hole.circle(3 * UM, (-2 * UM, 0.0))]
        t_big, _ = time_to_release(fp, bigger, stack, PARAMS, sio2)
        assert t_big <= t_base
        extra = base + [Hole.circle(2 * UM, (3 * UM, 2 * UM))]
        t_extra, _ = time_to_release(fp, extra, stack, PARAMS, sio2)
        assert t_extra <= t_base

    def test_etch_state_snapshot(self, materials):
        fp = Rect(10 * UM, 10 * UM)
        stack = PackageStack(1.1 * UM, 2 * UM, 2.5 * UM, fp)
        state = etch_state(
            fp, [Hole.circle(2 * UM)], stack, PARAMS, materials["sio2_sputter"], 2 * MINUTE
        )
        assert state.underetch[0] == pytest.approx(
            underetch(Hole.circle(2 * UM), stack, PARAMS, 2 * MINUTE)
        )
        assert not state.released
        assert state.structural_loss == pytest.approx(
            materials["sio2_sputter"].selectivity_loss * 2 * MINUTE
        )


class TestObservationFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text(
            "# comment\n"
            "circle, 2, 0, 1.1, 2, 0.4\n"
            "\n"
            "rectangle, 4.13, 7.046, 3.3, 16, 5.1\n"
        )
        obs = load_observations(path)
        assert len(obs) == 2
        assert obs[0].hole.shape == "circle"
        assert obs[0].underetch == pytest.approx(0.4 * UM)
        assert obs[1].hole.width == pytest.approx(4.13 * UM)
        assert obs[1].time == pytest.approx(16 * MINUTE)

    def test_bundled_data_shape(self):
        obs = bundled_observations()
        assert len(obs) == 8
        diameters = {round(o.hole.width / UM, 3) for o in obs}
        assert diameters == {2.0, 4.0, 6.0, 9.0}
        assert {round(o.sacrificial_thickness / UM, 2) for o in obs} == {1.1, 3.3}
        assert all(o.time == 2 * MINUTE for o in obs)

    @pytest.mark.parametrize(
        "line,match",
        [
            ("circle, 2, 0, 1.1, 2", "6 comma-separated"),
            ("circle, x, 0, 1.1, 2, 0.4", "could not convert"),
            ("hexagon, 2, 0, 1.1, 2, 0.4", "unknown shape"),
            ("circle, -2, 0, 1.1, 2, 0.4", "positive"),
        ],
    )
    def test_malformed_lines_rejected(self, tmp_path, line, match):
        path = tmp_path / "bad.csv"
        path.write_text(line + "\n")
        with pytest.raises(DataFileError, match=match):
            load_observations(path)

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# header\ncircle, 2, 0, 1.1, 2, 0.4\nbroken line\n")
        with pytest.raises(DataFileError, match=":3:"):
            load_observations(path)


def test_params_validation():
    with pytest.raises(ValueError):
        EtchParams(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        EtchParams(1.0, -1.0, 0.0)
