import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    closed_form_underetch,
    dense_release_coverage,
    euler_underetch,
    scan_release_time,
)
from zeropack import _trf
from zeropack import release as release_mod
from zeropack.errors import CalibrationError, DataFileError, InputError, ReleaseTooSlowError
from zeropack.geometry import (
    Hole,
    PackageStack,
    Rect,
    _Raster,
    _raster_shape,
    default_coverage_pitch,
    hole_area,
    release_coverage,
)
from zeropack.pipeline import set_param
from zeropack.release import (
    DEFAULT_ETCH_PARAMS,
    EtchObservation,
    EtchParams,
    bundled_observations,
    calibrate_etch,
    etch_rate,
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

    def test_front_at_negative_zero_time_is_positive_zero(self):
        # a probe_time of -0s reaches underetch as -0.0; its front prints 0, not -0
        u = underetch(Hole.circle(2 * UM), stack_with(1.1 * UM), PARAMS, -0.0)
        assert math.copysign(1.0, u) == 1.0

    def test_returns_a_python_float(self):
        u = underetch(Hole.circle(2 * UM), stack_with(1.1 * UM), PARAMS, 2 * MINUTE)
        assert type(u) is float

    @pytest.mark.parametrize("t_min", [0.37, 2.0, 96.5, 1e9])
    def test_arrival_inverts_the_front(self, t_min):
        stack = stack_with(1.1 * UM)
        holes = [Hole.circle(2 * UM), Hole.rectangle(1.3 * UM, 9 * UM), Hole.circle(40 * UM)]
        h_s = stack.sacrificial_thickness
        feed = [release_mod._feed(PARAMS, h_s, hole_area(h)) for h in holes]
        fronts = [release_mod._front(PARAMS, q, h_s, t_min * MINUTE) for q in feed]
        times = release_mod._arrival(PARAMS, np.array(feed), h_s, np.array(fronts))
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
        # an input error, so that a stage and a sweep row name themselves in it
        with pytest.raises(InputError, match="overflows"):
            release_mod._front(params, 0.0, 1 * UM, duration)


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

    @pytest.mark.parametrize(
        "field, name",
        [("time", "time"), ("underetch", "underetch"), ("sacrificial_thickness", "film thickness")],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_observation_rejected(self, field, name, value):
        obs = self.synthetic_observations(PARAMS)
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            replace(obs[2], **{field: value})

    def test_residual_never_increases_with_model_size(self, monkeypatch):
        # each stage of the fit frees one more constant and starts from the
        # last stage's optimum, so its residual can only fall
        port = _trf.least_squares
        norms = []

        def recorded(fun, x0, lb):
            x, f = port(fun, x0, lb)
            norms.append(float(np.linalg.norm(f)))
            return x, f

        monkeypatch.setattr(_trf, "least_squares", recorded)
        result = calibrate_etch(bundled_observations())
        assert len(norms) == 3
        assert norms[0] >= norms[1] >= norms[2]
        assert result.residual == norms[2] * UM

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

    def test_fitted_params_are_python_floats(self):
        fitted = calibrate_etch(bundled_observations()).params
        for name in ("intrinsic_rate", "aperture_factor", "channel_factor"):
            assert type(getattr(fitted, name)) is float, name
        u = underetch(Hole.circle(2 * UM), stack_with(1.1 * UM), fitted, 2 * MINUTE)
        assert type(u) is float

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


# the perturbation seeds the fit is checked on: the first ten
FIDELITY_SEEDS = tuple(range(1, 11))
# with numpy's own SVD the port's parameters drift from scipy's by at most
# 1.3e-6 relative over FIDELITY_SEEDS (seed 8; 2.2e-8 on the bundled
# fit); the bound leaves a factor of about eight
NUMPY_SVD_RTOL = 1e-5


# two data sets of distinct points that still do not fix the three
# constants (a rank-deficient Jacobian): circles in a 1.1 um film, as
# (diameter um, time min, underetch um)
RANK_DEFICIENT = {
    "three-point": [(2, 2, 0.0), (4, 2, 0.0), (6, 2, 0.5)],
    "four-point": [(2, 40, 20.0), (2, 80, 30.0), (4, 40, 30.0), (4, 80, 45.0)],
}


def fidelity_fits(group):
    """The observations of each fit: for ``"bundled"`` the full fit of the
    bundled data; for ``"bound"`` one full fit whose steps meet a bound;
    for a ``RANK_DEFICIENT`` name the full fit of that set; for a seed
    the leave-one-out fits of the bundled data with each underetch scaled
    by a factor drawn from 1 +- 5 %."""
    if group in RANK_DEFICIENT:
        rows = RANK_DEFICIENT[group]
        return [
            [EtchObservation(Hole.circle(d * UM), 1.1 * UM, t * MINUTE, u * UM) for d, t, u in rows]
        ]
    obs = bundled_observations()
    if group == "bundled":
        return [obs]
    if group == "bound":
        # the bundled holes and times, with the underetch of a model with
        # no channel resistance scaled by 1 +- 3 %: on the second draw of
        # seed 3 a trust-region step of the last stage crosses the
        # channel factor's bound of 0
        rng = random.Random(3)
        truth = EtchParams(1.8 * UM / MINUTE, 20 * UM, 0.0)
        for _ in range(2):
            drawn = [
                replace(
                    o,
                    underetch=underetch(o.hole, stack_with(o.sacrificial_thickness), truth, o.time)
                    * (1.0 + rng.uniform(-0.03, 0.03)),
                )
                for o in obs
            ]
        return [drawn]
    rng = random.Random(group)
    obs = [replace(o, underetch=o.underetch * (1.0 + rng.uniform(-0.05, 0.05))) for o in obs]
    return [obs[:i] + obs[i + 1 :] for i in range(len(obs))]


def fitted(observations):
    p = calibrate_etch(observations).params
    return np.array([p.intrinsic_rate, p.aperture_factor, p.channel_factor])


# stages per group of fidelity_fits: three per fit
FIT_STAGES = {"bundled": 3, "bound": 3, **dict.fromkeys(RANK_DEFICIENT, 3)}


@pytest.mark.parametrize("group", ["bundled", "bound", *RANK_DEFICIENT, *FIDELITY_SEEDS])
def test_fit_equals_scipy_least_squares_bit_for_bit(monkeypatch, group):
    # with scipy's SVD the port takes scipy's steps: every stage of every
    # fit returns the same x and residuals as scipy.optimize.least_squares
    monkeypatch.setattr(_trf, "svd", scipy.linalg.svd)
    port = _trf.least_squares
    stages = []
    step_to_bound = _trf._step_to_bound
    bound_steps = 0

    def counted_step_to_bound(*args):
        nonlocal bound_steps
        bound_steps += 1
        return step_to_bound(*args)

    monkeypatch.setattr(_trf, "_step_to_bound", counted_step_to_bound)

    def compared(fun, x0, lb):
        trials = {"port": [], "scipy": []}

        def traced(name):
            def traced_fun(x):
                trials[name].append(x.tobytes())
                return fun(x)

            return traced_fun

        x, f = port(traced("port"), x0, lb)
        want = scipy.optimize.least_squares(
            traced("scipy"), x0, bounds=(lb, np.inf), method="trf", x_scale="jac"
        )
        # the same trial points in the same order; scipy then differences
        # the final point once more for the Jacobian it returns
        path = trials["scipy"][: len(trials["port"])] == trials["port"]
        same = path and np.array_equal(x, want.x) and np.array_equal(f, want.fun)
        stages.append((x0, same))
        return x, f

    monkeypatch.setattr(_trf, "least_squares", compared)
    for observations in fidelity_fits(group):
        calibrate_etch(observations)
    assert len(stages) == FIT_STAGES.get(group, 24)
    assert [x0 for x0, same in stages if not same] == []
    if group == "bound":
        # the step cut at the bound, its reflection and the Cauchy step
        # were weighed, as scipy weighs them
        assert bound_steps > 0


@pytest.mark.parametrize("group", ["bundled", *FIDELITY_SEEDS])
def test_fit_with_numpy_svd_stays_close_to_scipy(monkeypatch, group):
    fits = fidelity_fits(group)
    ours = [fitted(fit) for fit in fits]
    monkeypatch.setattr(_trf, "svd", scipy.linalg.svd)
    for got, fit in zip(ours, fits):
        np.testing.assert_allclose(got, fitted(fit), rtol=NUMPY_SVD_RTOL, atol=0.0)


def test_select_step_equals_scipy_bit_for_bit():
    # a trust-region step that crosses a lower bound is weighed against its
    # cut at the bound, its reflection and the Cauchy step as scipy weighs
    # them; taking the model's minimiser as the step lets the cut one win
    from scipy.optimize._lsq.trf import select_step

    rng = np.random.default_rng(0)
    n, m = 2, 4
    draws = cut_wins = 0
    while draws < 1000:
        lb = rng.normal(size=n)
        x = lb + rng.exponential(size=n)
        d = rng.uniform(0.1, 2.0, size=n)
        J_h = rng.normal(size=(m, n))
        g_h = rng.normal(size=n)
        diag_h = rng.uniform(0.0, 1.0, size=n)
        p_h = -np.linalg.solve(J_h.T @ J_h + np.diag(diag_h), g_h)
        p = d * p_h
        if (x + p >= lb).all():
            continue
        Delta = np.linalg.norm(p_h) * rng.uniform(1.0, 1.5)
        theta = rng.uniform(0.995, 1.0)
        ours = p.copy()
        got = _trf._select_step(x, J_h, diag_h, g_h, ours, p_h.copy(), d, Delta, lb, theta)
        ub = np.full(n, np.inf)
        want = select_step(x, J_h, diag_h, g_h, p.copy(), p_h.copy(), d, Delta, lb, ub, theta)
        assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in want]
        draws += 1
        cut_wins += got[0] is ours
    assert cut_wins > 0


def test_non_finite_trial_only_shrinks_the_trust_region(monkeypatch):
    # the step from x = 2 lands in a band where the residual is nan: the
    # fit shrinks its region, steps past the band and reaches the root,
    # as scipy's does
    monkeypatch.setattr(_trf, "svd", scipy.linalg.svd)
    trials = []

    def fun(x):
        trials.append(x[0])
        return np.where((x > 3.5) & (x < 3.7), np.nan, np.arctan(x - 10.0))

    x, f = _trf.least_squares(fun, [1.0], [0.0])
    assert any(3.5 < t < 3.7 for t in trials)
    assert x == pytest.approx([10.0])
    want = scipy.optimize.least_squares(
        fun, [1.0], bounds=([0.0], np.inf), method="trf", x_scale="jac"
    )
    assert np.array_equal(x, want.x) and np.array_equal(f, want.fun)


def test_each_residual_is_the_underetch_error(monkeypatch):
    # the fit reads each observation's floats and hole area once, yet
    # every residual it computes is the very float of the public model
    obs = bundled_observations()
    made = []

    class Recorded(EtchParams):
        def __post_init__(self):
            super().__post_init__()
            made.append(self)

    port = _trf.least_squares
    checked = 0

    def checking(fun, x0, lb):
        def checked_fun(x):
            nonlocal checked
            f = fun(x)
            p = made[-1]
            want = [
                (underetch(o.hole, stack_with(o.sacrificial_thickness), p, o.time) - o.underetch)
                / UM
                for o in obs
            ]
            assert [v.hex() for v in f.tolist()] == [v.hex() for v in want]
            checked += 1
            return f

        return port(checked_fun, x0, lb)

    monkeypatch.setattr(release_mod, "EtchParams", Recorded)
    monkeypatch.setattr(_trf, "least_squares", checking)
    calibrate_etch(obs)
    assert checked == 71


def test_bundled_fit_work_is_pinned(monkeypatch):
    # residual evaluations and SVDs per stage of the bundled full fit, as
    # scipy's steps take them: a change that adds a step shows here
    evals, svds = [], []
    port, numpy_svd = _trf.least_squares, _trf.svd

    def counted_svd(*args, **kwargs):
        svds[-1] += 1
        return numpy_svd(*args, **kwargs)

    def counted(fun, x0, lb):
        evals.append(0)
        svds.append(0)

        def counted_fun(x):
            evals[-1] += 1
            return fun(x)

        return port(counted_fun, x0, lb)

    monkeypatch.setattr(_trf, "svd", counted_svd)
    monkeypatch.setattr(_trf, "least_squares", counted)
    calibrate_etch(bundled_observations())
    assert evals == [15, 26, 30]
    assert svds == [7, 7, 6]


EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1e308, -1e308]


@given(
    st.lists(
        st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)), min_size=1, max_size=9
    )
)
def test_trf_norms_equal_numpy_norm_bit_for_bit(values):
    # _trf writes numpy.linalg.norm of a 1-D array as numpy's own
    # expressions for it: the same bits, and a numpy scalar as well
    x = np.array(values)
    with np.errstate(all="ignore"):
        for got, want in (
            (_trf._norm(x), np.linalg.norm(x)),
            (_trf._norm_inf(x), np.linalg.norm(x, ord=np.inf)),
        ):
            assert type(got) is type(want)
            assert got.tobytes() == want.tobytes()


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
            return release_coverage(*args)

        monkeypatch.setattr(release_mod, "release_coverage", counted)
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
        assert t == 5787.063445527196
        # read off the arrival times: the raster is never asked
        assert queries == []

    def test_reference_subsamples_the_latest_cell_then_one_band(
        self, reference_recipe, monkeypatch
    ):
        # the cell with the largest upper bound alone, then in one pass
        # the 48 cells whose bound exceeds its time, of 160^2
        calls = []
        subsample_min = _Raster.subsample_min

        def counted(self, windows, rows, cols, field):
            calls.append(rows.size)
            return subsample_min(self, windows, rows, cols, field)

        monkeypatch.setattr(_Raster, "subsample_min", counted)
        r = reference_recipe
        time_to_release(
            r.stack.cavity_footprint,
            r.holes,
            r.stack,
            r.etch,
            r.material("structural"),
            max_time=r.etch_max_time,
            grid_pitch=r.coverage_pitch,
        )
        assert calls == [1, 48]

    def test_reference_release_peak_memory_per_cell(self, reference_recipe):
        # the estimate holds one raster-sized float map of upper bounds
        # (8 B/cell), rewritten in place when t_up moves, and subsamples
        # only the cells past one exact time; it peaks at about 10 B/cell
        r = set_param(reference_recipe, "release.coverage_pitch", 58.59375 * NM)
        cells = 512 * 512
        assert math.prod(_raster_shape(r.stack.cavity_footprint, r.coverage_pitch)) == cells
        tracemalloc.start()
        try:
            time_to_release(
                r.stack.cavity_footprint,
                r.holes,
                r.stack,
                r.etch,
                r.material("structural"),
                max_time=r.etch_max_time,
                grid_pitch=r.coverage_pitch,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / cells <= 14.0

    def test_reference_release_time_is_where_the_raster_covers(self, reference_recipe):
        # independent of the arrival times: the coverage raster, and the
        # dense coverage oracle with it, reads 1 at the release time and
        # below 1 a relative 1e-9 earlier
        r = reference_recipe
        fp = r.stack.cavity_footprint
        t, _ = time_to_release(
            fp, r.holes, r.stack, r.etch, r.material("structural"), grid_pitch=r.coverage_pitch
        )
        # the 36 holes are identical, so one front serves them all
        assert len({(h.shape, h.width) for h in r.holes}) == 1
        pitch = r.coverage_pitch or default_coverage_pitch(r.holes)
        coverage = []
        for x in (t, t * (1 - 1e-9)):
            u = [underetch(r.holes[0], r.stack, r.etch, x)] * len(r.holes)
            covered = release_coverage(fp, r.holes, u, pitch)
            assert covered == dense_release_coverage(fp, r.holes, u, pitch)
            coverage.append(covered)
        assert coverage[0] == 1.0
        assert coverage[1] < 1.0

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

    def test_non_positive_cap_rejected(self, materials):
        fp = Rect(10 * UM, 10 * UM)
        stack = PackageStack(1.1 * UM, 2 * UM, 2.5 * UM, fp)
        with pytest.raises(ValueError, match="max_time must be > 0"):
            time_to_release(
                fp, [Hole.circle(2 * UM)], stack, PARAMS, materials["sio2_sputter"], max_time=0.0
            )

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
            ("circle, 2, 0, 1.1, 2, nan", ":1: underetch must be finite"),
            ("circle, 2, 0, inf, 2, 0.4", ":1: film thickness must be finite"),
            ("circle, 2, 0, 1.1, 1e308, 0.4", ":1: time must be finite"),
            ("circle, 2, 0, 1.1, 0, 0.4", ":1: time must be > 0"),
            ("circle, 2, 0, 1.1, 2, -0.4", ":1: underetch must be >= 0"),
            ("circle, 2, 0, 0, 2, 0.4", ":1: film thickness must be > 0"),
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
