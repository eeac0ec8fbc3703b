import math

import numpy as np
import pytest

from grasplab import (
    DEFAULT_POLICY,
    AnalyticPolicy,
    Grasp,
    LinearFit,
    ScoredGrasp,
    SigmoidFit,
    analytic_select,
    fit_linear,
    fit_sigmoid,
    grasp_probability,
    heuristic_select,
    pearson,
    vertical_score,
)
from grasplab.policy import policy_from_mapping


def _sg(s_q, theta):
    return ScoredGrasp(Grasp((0, 0, 0), (0, 1, 0), theta), s_q)


class TestHeuristicSelect:
    def test_vertical_score_can_dominate(self):
        grasps = [_sg(0.9, -math.pi / 2), _sg(0.5, math.pi / 2)]
        assert heuristic_select(grasps) == 1  # 0.9 + 0 < 0.5 + 1

    def test_single_grasp(self):
        assert heuristic_select([_sg(0.2, 0.0)]) == 0

    def test_permutation_equivariance(self, rng):
        grasps = [_sg(float(s), float(t)) for s, t in zip(
            rng.uniform(0, 1, 20), rng.uniform(-math.pi / 2, math.pi / 2, 20)
        )]
        best = heuristic_select(grasps)
        perm = rng.permutation(20)
        assert perm[heuristic_select([grasps[i] for i in perm])] == best

    def test_selected_score_is_maximal(self, rng):
        grasps = [_sg(float(s), float(t)) for s, t in zip(
            rng.uniform(0, 1, 30), rng.uniform(-math.pi / 2, math.pi / 2, 30)
        )]
        idx = heuristic_select(grasps)
        totals = [sg.s_q + vertical_score(sg.grasp) for sg in grasps]
        assert totals[idx] == max(totals)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            heuristic_select([])


class TestGraspProbability:
    def test_best_case_value(self):
        assert grasp_probability(1.0, 1.0) == pytest.approx(0.80405, abs=1e-4)

    def test_sigmoid_midpoint_identity(self):
        for s_q in np.linspace(0, 1, 21):
            expected = (0.8783 * s_q - 0.0587) / 2.0
            assert grasp_probability(float(s_q), 0.6103) == pytest.approx(expected, abs=1e-12)

    def test_zero_at_linear_root(self):
        root = 0.0587 / 0.8783
        assert grasp_probability(root, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_monotone_in_both_arguments(self, rng):
        for _ in range(200):
            s_q, s_v = rng.uniform(0, 1, 2)
            up_q = grasp_probability(min(s_q + 0.01, 1.0), s_v)
            up_v = grasp_probability(s_q, min(s_v + 0.01, 1.0))
            base = grasp_probability(s_q, s_v)
            assert up_q >= base - 1e-15
            assert up_v >= base - 1e-15 or base < 0  # negative numerator flips s_v monotonicity

    def test_not_clamped_below_zero(self):
        assert grasp_probability(0.0, 1.0) < 0.0


class TestAnalyticSelect:
    def test_single(self):
        assert analytic_select([_sg(0.1, 0.0)]) == 0

    def test_equal_verticality_larger_quality_wins(self):
        assert analytic_select([_sg(0.4, 0.3), _sg(0.6, 0.3)]) == 1

    def test_ties_break_to_lowest_index(self):
        grasps = [_sg(0.5, 0.2), _sg(0.5, 0.2), _sg(0.5, 0.2)]
        assert analytic_select(grasps) == 0

    def test_selected_probability_is_maximal(self, rng):
        grasps = [_sg(float(s), float(t)) for s, t in zip(
            rng.uniform(0, 1, 30), rng.uniform(-math.pi / 2, math.pi / 2, 30)
        )]
        idx = analytic_select(grasps)
        probs = [grasp_probability(sg.s_q, vertical_score(sg.grasp)) for sg in grasps]
        assert probs[idx] == max(probs)


class TestFitLinear:
    def test_recovers_noiseless_line(self):
        x = np.linspace(0, 1, 10)
        fit = fit_linear(x, 0.8783 * x - 0.0587)
        assert fit.slope == pytest.approx(0.8783, abs=1e-12)
        assert fit.intercept == pytest.approx(-0.0587, abs=1e-12)

    def test_constant_ys_zero_slope(self):
        fit = fit_linear([0.0, 1.0, 2.0], [3.0, 3.0, 3.0])
        assert fit.slope == 0.0
        assert fit.intercept == pytest.approx(3.0)

    def test_two_points_interpolate(self):
        fit = fit_linear([0.0, 2.0], [1.0, 5.0])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)

    def test_degenerate_xs_rejected(self):
        with pytest.raises(ValueError):
            fit_linear([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestFitSigmoid:
    def test_recovers_published_parameters(self):
        x = np.linspace(0, 1, 50)
        y = 1.0 / (1.0 + np.exp(-10.1244 * (x - 0.6103)))
        fit = fit_sigmoid(x, y)
        assert abs(fit.a - 10.1244) < 1e-6
        assert abs(fit.b - 0.6103) < 1e-6

    def test_symmetric_step_centers_at_half(self):
        x = np.linspace(0, 1, 41)
        y = 1.0 / (1.0 + np.exp(-8.0 * (x - 0.5)))
        fit = fit_sigmoid(x, y)
        assert fit.b == pytest.approx(0.5, abs=1e-8)

    def test_fixed_point_at_optimum(self):
        x = np.linspace(0, 1, 30)
        y = 1.0 / (1.0 + np.exp(-6.0 * (x - 0.4)))
        fit = fit_sigmoid(x, y, init=SigmoidFit(a=6.0, b=0.4))
        assert fit.a == pytest.approx(6.0, abs=1e-9)
        assert fit.b == pytest.approx(0.4, abs=1e-9)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_sigmoid([0.0, 1.0], [0.0, 1.0])


class TestPearson:
    def test_identity(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_negation(self):
        assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)

    def test_affine_invariance(self):
        x = np.linspace(0, 1, 10)
        assert pearson(x, 2 * x + 3) == pytest.approx(1.0, abs=1e-12)

    def test_affine_transforms_preserve_r(self, rng):
        x = rng.uniform(0, 1, 40)
        y = rng.uniform(0, 1, 40)
        base = pearson(x, y)
        assert pearson(3 * x + 1, y) == pytest.approx(base, abs=1e-12)
        assert pearson(x, 0.5 * y - 7) == pytest.approx(base, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            pearson([1.0, 1.0], [0.0, 1.0])


class TestPolicySerialization:
    def test_missing_keys_fall_back_to_defaults(self):
        policy = policy_from_mapping({"a": 5.0})
        assert policy.sigmoid.a == 5.0
        assert policy.sigmoid.b == DEFAULT_POLICY.sigmoid.b
        assert policy.linear.slope == DEFAULT_POLICY.linear.slope

    def test_default_policy_constants(self):
        assert DEFAULT_POLICY.sigmoid == SigmoidFit(10.1244, 0.6103)
        assert DEFAULT_POLICY.linear == LinearFit(0.8783, -0.0587)
        assert isinstance(DEFAULT_POLICY, AnalyticPolicy)
