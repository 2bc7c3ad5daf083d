"""Trajectories, hump location, sweeps, and figure datasets."""

import time
from fractions import Fraction

import pytest

import capmodel as cm
from capmodel import EXACT, LOGFLOAT, ModelParams, Stage, UNBOUNDED, core
from capmodel.cli import main

HALF = Fraction(1, 2)


class TestRunTrajectory:
    def test_rho_one_strictly_increasing_no_hump(self):
        traj = cm.run_trajectory(ModelParams(1, 5), n_max=15)
        varieties = [p.variety for p in traj.points]
        assert all(b > a for a, b in zip(varieties, varieties[1:]))
        assert traj.hump_onset_at is None
        assert traj.non_monotone_flag is False

    def test_tight_range_hump_at_two(self):
        traj = cm.run_trajectory(ModelParams(HALF, 1), n_max=10)
        assert traj.hump_onset_at == 2
        assert traj.transition_constrained_at == 2
        assert traj.points[2].stage is Stage.DEVELOPED

    def test_wide_range_hump_past_the_binding_point(self):
        traj = cm.run_trajectory(ModelParams(HALF, 30), n_max=90)
        assert traj.transition_constrained_at == 31
        assert traj.hump_onset_at is not None
        assert traj.hump_onset_at > 31
        assert traj.non_monotone_flag is False

    def test_points_match_pointwise_evaluation(self):
        params = ModelParams(HALF, 3)
        traj = cm.run_trajectory(params, n_max=12)
        for point in traj.points:
            assert point == cm.evaluate_point(params, point.n) == traj.point(point.n)
            assert point.stage is cm.classify_stage(point.n, HALF, 3)
            assert point.constrained == (3 < point.n)

    def test_delta_consistent_with_next_point(self):
        traj = cm.run_trajectory(ModelParams(Fraction(3, 4), 6), n_max=25)
        for a, b in zip(traj.points, traj.points[1:]):
            assert a.delta_variety == b.variety - a.variety

    def test_stage_developing_exactly_while_range_covers_n(self):
        traj = cm.run_trajectory(ModelParams(HALF, 7), n_max=40)
        for point in traj.points:
            assert (point.stage is Stage.DEVELOPING) == (point.n <= 7)

    def test_unbounded_never_constrained(self):
        traj = cm.run_trajectory(ModelParams(HALF, UNBOUNDED), n_max=12)
        assert traj.transition_constrained_at is None
        assert all(p.stage is Stage.DEVELOPING for p in traj.points)
        assert all(not p.constrained for p in traj.points)

    def test_default_n_max(self):
        assert cm.default_n_max(UNBOUNDED) == 50
        assert cm.default_n_max(5) == 50
        assert cm.default_n_max(30) == 90
        # run_trajectory with no n_max ends there
        assert cm.run_trajectory(ModelParams(HALF, 30)).points[-1].n == 90
        assert cm.run_trajectory(ModelParams(HALF, UNBOUNDED)).points[-1].n == 50

    @pytest.mark.parametrize("r", [-1, 100.5, "x", True])
    def test_default_n_max_checks_r(self, r):
        with pytest.raises(cm.DomainError):
            cm.default_n_max(r)

    def test_n_max_zero_gives_single_point(self):
        traj = cm.run_trajectory(ModelParams(1, UNBOUNDED), n_max=0)
        assert len(traj.points) == 1
        assert traj.points[0].variety == 1

    def test_hump_never_reverts_on_a_grid(self):
        # the theorem in core._first_hump's docstring: stages come from the bisected
        # onset, and each binding point is DEVELOPED exactly where its exact delta,
        # read off the walk and not from _hump, is negative
        started = time.perf_counter()
        rhos = {Fraction(p, q) for q in range(1, 13) for p in range(1, q + 1)}
        humps = 0
        for rho in sorted(rhos):
            for r in (0, 1, 2, 3, 5, 8, 13, 21, 40):
                traj = cm.run_trajectory(ModelParams(rho, r), n_max=max(3 * r, 50) + 50)
                for point in traj.points[r + 1 :]:
                    developed = point.stage is Stage.DEVELOPED
                    assert developed == (point.delta_variety < 0), (rho, r, point.n)
                humps += traj.hump_onset_at is not None
        assert humps > 0.8 * 9 * len(rhos)  # most paths pass the hump and go on
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0, f"grid took {elapsed:.2f}s, budget 2s"

    def test_onset_bisected_once_per_trajectory(self, monkeypatch, tmp_path):
        # the walk decides no stage itself: every _hump test is find_hump_onset's,
        # and the CLI's --backend both bisects once, as --backend exact does
        calls, hump, onset = [], core._hump, cm.find_hump_onset(400, "3/4", 1600)

        def counting(*args):
            calls.append(args)
            return hump(*args)

        monkeypatch.setattr(core, "_hump", counting)
        assert cm.run_trajectory(ModelParams("3/4", 400), 1600).hump_onset_at == onset
        assert 0 < len(calls) <= 12  # a test per binding point would make 1,200
        tests = len(calls)
        args = ["trajectory", "--rho", "3/4", "--r", "400", "--n-max", "1600"]
        for backend in (EXACT, "both"):
            calls.clear()
            assert main([*args, "--backend", backend, "--out", str(tmp_path / "out.csv")]) == 0
            assert len(calls) == tests, backend

    @pytest.mark.parametrize("n", [-1, True, False, 13, 2.0, "x", None])
    def test_point_rejects_anything_but_an_index(self, n):
        traj = cm.run_trajectory(ModelParams(HALF, 3), n_max=12)
        with pytest.raises(cm.DomainError):
            traj.point(n)
        assert traj.point(0).n == 0 and traj.point(12).n == 12

    def test_log_backend_trajectory(self):
        exact = cm.run_trajectory(ModelParams(HALF, 8, EXACT), n_max=40)
        logged = cm.run_trajectory(ModelParams(HALF, 8, LOGFLOAT), n_max=40)
        assert logged.hump_onset_at == exact.hump_onset_at
        for pe, pl in zip(exact.points, logged.points):
            assert pl.stage is pe.stage
            assert pl.variety.to_float() == pytest.approx(float(pe.variety), rel=1e-9)


class TestFindHumpOnset:
    def test_examples(self):
        assert cm.find_hump_onset(1, HALF, 50) == 2
        assert cm.find_hump_onset(4, 1, 200) is None

    def test_wide_range_onset_matches_log_backend_scan(self):
        onset = cm.find_hump_onset(30, HALF, 500)
        assert onset is not None and onset > 31
        points = cm.run_trajectory(ModelParams(HALF, 30), n_max=500).points
        first_decline = next(p.n for p in points if p.constrained and p.delta_variety < 0)
        assert first_decline == onset

    def test_onset_is_first_true(self):
        onset = cm.find_hump_onset(9, HALF, 400)
        assert cm.hump_condition(onset, HALF, 9)
        assert not cm.hump_condition(onset - 1, HALF, 9)

    @pytest.mark.parametrize("rho", ["1/10", "1/8", "1/3", "1/2", "2/3", "3/4", "7/8", "9/10"])
    def test_onset_within_the_tail_bound_bracket(self, rho):
        # S(n) <= rho / (1 - t) with t = r*rho / (n-r+1) puts the onset at or
        # below n_hi = max(r + 1, floor(r*q / (q-p)))
        p, q = Fraction(rho).numerator, Fraction(rho).denominator
        for r in range(0, 3000, 29):
            n_hi = max(r + 1, r * q // (q - p))
            onset = cm.find_hump_onset(r, rho, n_hi)
            assert onset is not None and r + 1 <= onset <= n_hi, (r, onset, n_hi)

    def test_onset_closed_form(self):
        # floor(r*q/(q - p)) - 2 is the onset only for rho = (q - 1)/q, as on this
        # grid; it is not the general onset, and at rho = 1/10 it is too high
        started = time.perf_counter()
        for rho in ("1/2", "2/3", "3/4", "9/10"):
            p, q = Fraction(rho).numerator, Fraction(rho).denominator
            for r in range(4, 3000, 7):
                assert cm.find_hump_onset(r, rho, 10 * r) == r * q // (q - p) - 2, (rho, r)
        for r, onset, formula in ((100, 107, 109), (1000, 1104, 1109), (2000, 2214, 2220)):
            assert r * 10 // 9 - 2 == formula
            assert cm.find_hump_onset(r, "1/10", 10 * r) == onset, r
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"onsets took {elapsed:.2f}s, budget 1s"

    def test_onset_rises_strictly_with_r(self):
        # the paper's claim that a wider range delays the hump; 10r + 20 bounds every onset here
        for rho in ("1/10", "1/2", "3/4", "9/10"):
            onsets = [cm.find_hump_onset(r, rho, 10 * r + 20) for r in range(202)]
            assert all(a < b for a, b in zip(onsets, onsets[1:])), rho
        for rho in ("1/2", "3/4"):
            for r in (10**3, 10**4, 10**5):
                n_max = 10 * r + 20
                assert cm.find_hump_onset(r + 1, rho, n_max) > cm.find_hump_onset(r, rho, n_max)

    def test_requires_scan_room(self):
        with pytest.raises(cm.DomainError):
            cm.find_hump_onset(10, HALF, 10)
        with pytest.raises(cm.DomainError):
            cm.find_hump_onset(UNBOUNDED, HALF, 50)

    def test_bool_bound_rejected(self):
        with pytest.raises(cm.DomainError):
            cm.find_hump_onset(0, HALF, True)


class TestSweepRange:
    def test_onsets_ordered_in_r(self):
        trajectories = cm.sweep_range(HALF, [10, 20, 30], n_max=120)
        onsets = [t.hump_onset_at for t in trajectories]
        assert all(o is not None for o in onsets)
        assert onsets == sorted(onsets)
        assert cm.hump_onsets_nondecreasing(trajectories)
        # any iterable of trajectories, in any order: they are compared in order of r
        assert cm.hump_onsets_nondecreasing(reversed(trajectories))

    def test_no_hump_anywhere_at_rho_one(self):
        trajectories = cm.sweep_range(1, [5], n_max=15)
        assert trajectories[0].hump_onset_at is None

    def test_single_sweep_equals_run(self):
        [swept] = cm.sweep_range(HALF, [1], n_max=10)
        direct = cm.run_trajectory(ModelParams(HALF, 1), n_max=10)
        assert swept == direct

    def test_empty_r_values_rejected(self):
        with pytest.raises(cm.DomainError):
            cm.sweep_range(HALF, [], n_max=10)

    @pytest.mark.parametrize("r_values", [5, "5", ["x"], None])
    def test_r_values_must_be_a_list_of_ranges(self, r_values):
        with pytest.raises(cm.DomainError):
            cm.sweep_range(HALF, r_values)

    def test_missing_onset_for_larger_r_counts_as_later(self):
        trajectories = cm.sweep_range(HALF, [1, 30], n_max=40)  # r=30 onset is at 58
        assert trajectories[1].hump_onset_at is None
        assert cm.hump_onsets_nondecreasing(trajectories)


class TestFigureDatasets:
    def test_figure_one_basic_rows(self):
        fig = cm.figure_dataset(1)
        assert fig.rho == 1
        unconstrained = fig.series[0]
        assert unconstrained.name == "unconstrained"
        point = unconstrained.points[3]
        assert point.variety == 8
        assert point.avg_length == Fraction(3, 2)
        assert fig.markers == {"constrained_from": 6}

    def test_figure_two_markers(self):
        fig = cm.figure_dataset(2)
        assert fig.markers["constrained_from"] == 31
        assert fig.markers["hump_onset"] == cm.find_hump_onset(30, HALF, 90)
        names = [series.name for series in fig.series]
        assert names == ["unconstrained", "r=30"]

    def test_figure_three_onsets_strictly_increasing(self):
        fig = cm.figure_dataset(3)
        onsets = [fig.markers[f"hump_onset_r={r}"] for r in (5, 10, 20, 30)]
        assert all(a < b for a, b in zip(onsets, onsets[1:]))

    def test_deterministic(self):
        assert cm.figure_dataset(2) == cm.figure_dataset(2)

    def test_invalid_id(self):
        with pytest.raises(cm.DomainError):
            cm.figure_dataset(4)

    @pytest.mark.parametrize("figure_id", [True, 1.0, 2.0])
    def test_id_must_be_an_int(self, figure_id):
        # each equals a valid id, and would otherwise be stamped into the record
        with pytest.raises(cm.DomainError):
            cm.figure_dataset(figure_id)
