import math

import numpy as np
import pytest

from grasplab import (
    Grasp,
    anchor_set,
    assign_anchor_labels,
    assign_refine_labels,
    binary_cross_entropy,
    focal_loss,
    gradient_check,
    grn_loss,
    mse_loss,
    rn_loss,
    smooth_l1,
)
from grasplab.anchors import NEGATIVE, POSITIVE, RefineLabel, complete_label

ANCHORS = anchor_set(4)


def _complete_anchor_label(rng, quality=0.5):
    r = rng.normal(size=3)
    r /= np.linalg.norm(r)
    gt = Grasp(rng.uniform(-0.1, 0.1, 3), r, float(rng.uniform(-1.5, 1.5)), quality)
    label = assign_anchor_labels(gt, ANCHORS)
    return complete_label(label, gt, ANCHORS, rng.uniform(-0.1, 0.1, 3))


class TestMse:
    def test_perfect_prediction(self):
        out = mse_loss([1.0, 2.0], [1.0, 2.0])
        assert out.value == 0.0
        np.testing.assert_array_equal(out.gradients, [0.0, 0.0])

    def test_hand_example(self):
        out = mse_loss([0.0], [1.0])
        assert out.value == 1.0
        np.testing.assert_allclose(out.gradients, [-2.0])

    def test_gradient_matches_fd(self, rng):
        gt = rng.uniform(-1, 1, size=5)
        err = gradient_check(lambda x: mse_loss(x, gt), rng.uniform(-1, 1, size=5))
        assert err < 1e-6

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss([1.0], [1.0, 2.0])


class TestSmoothL1:
    @pytest.mark.parametrize("x,expected", [(0.5, 0.125), (2.0, 1.5), (0.0, 0.0), (-2.0, 1.5)])
    def test_values(self, x, expected):
        assert smooth_l1(x, 0.0).value == pytest.approx(expected)

    def test_zero_gradient_at_zero(self):
        assert smooth_l1(0.0, 0.0).gradient == 0.0

    def test_gradient_matches_fd_away_from_knee(self, rng):
        for _ in range(50):
            x = float(rng.uniform(-3, 3))
            if abs(abs(x) - 1.0) < 1e-4:
                continue
            err = gradient_check(lambda v: smooth_l1(float(v[0]), 0.0), np.array([x]))
            assert err < 1e-6


class TestFocal:
    def test_hand_value(self):
        # alpha * (1-p)^gamma * (-log p) at p = 0.5, y = 1
        expected = 0.25 * 0.25 * math.log(2.0)
        assert focal_loss(0.5, 1).value == pytest.approx(expected, rel=1e-12)

    def test_confident_correct_prediction_vanishes(self):
        assert focal_loss(1.0 - 1e-9, 1).value < 1e-12
        assert focal_loss(1e-9, 0).value < 1e-12

    def test_gradient_matches_fd_over_grid(self):
        for p in np.linspace(0.05, 0.95, 19):
            for y in (0, 1):
                err = gradient_check(lambda v, y=y: focal_loss(float(v[0]), y), np.array([p]))
                assert err < 1e-5

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            focal_loss(0.5, 2)


class TestBce:
    def test_half_probability_gives_log_two(self):
        assert binary_cross_entropy(0.5, 0).value == pytest.approx(math.log(2.0))
        assert binary_cross_entropy(0.5, 1).value == pytest.approx(math.log(2.0))

    def test_correct_prediction_limit(self):
        assert binary_cross_entropy(1.0, 1).value < 1e-6
        assert binary_cross_entropy(0.0, 0).value < 1e-6

    def test_gradient_matches_fd(self):
        for p in np.linspace(0.05, 0.95, 19):
            for y in (0, 1):
                err = gradient_check(
                    lambda v, y=y: binary_cross_entropy(float(v[0]), y), np.array([p])
                )
                assert err < 1e-5


class TestGrnLoss:
    def _perfect_inputs(self, label):
        probs = np.zeros((1, 4)) + 1e-12
        if label.positive_index is not None:
            probs[0, label.positive_index] = 1.0 - 1e-12
        res = np.zeros((1, 8))
        if label.residuals is not None:
            res[0] = label.residuals
        return probs, res

    def test_perfect_prediction_near_zero(self, rng):
        label = _complete_anchor_label(rng)
        probs, res = self._perfect_inputs(label)
        assert grn_loss(probs, res, [label]).value < 1e-6

    def test_single_residual_component_off_by_half(self, rng):
        label = _complete_anchor_label(rng)
        assert label.positive_index is not None
        probs, res = self._perfect_inputs(label)
        res[0, 2] += 0.5
        assert grn_loss(probs, res, [label]).value == pytest.approx(0.125, abs=1e-6)

    def test_classification_term_scales_with_k1(self, rng):
        label = _complete_anchor_label(rng)
        probs = np.full((1, 4), 0.4)
        res = label.residuals[None, :]
        a = grn_loss(probs, res, [label], k1=1).value
        b = grn_loss(probs, res, [label], k1=4).value
        # regression term is exactly zero here, so the whole loss is the
        # classification average and scales inversely with k1
        assert a == pytest.approx(4.0 * b, rel=1e-12)

    def test_additive_over_batches_with_fixed_k1(self, rng):
        labels = [_complete_anchor_label(rng) for _ in range(4)]
        probs = rng.uniform(0.1, 0.9, size=(4, 4))
        res = rng.uniform(-0.5, 0.5, size=(4, 8))
        whole = grn_loss(probs, res, labels, k1=8).value
        parts = (
            grn_loss(probs[:2], res[:2], labels[:2], k1=8).value
            + grn_loss(probs[2:], res[2:], labels[2:], k1=8).value
        )
        assert whole == pytest.approx(parts, rel=1e-12)

    def test_ignored_anchor_has_zero_gradient(self, rng):
        label = _complete_anchor_label(rng)
        ignored = np.flatnonzero(label.classes == -1)
        if ignored.size == 0:
            pytest.skip("no ignored anchor in this draw")
        probs = rng.uniform(0.2, 0.8, size=(1, 4))
        res = label.residuals[None, :]
        out = grn_loss(probs, res, [label])
        for j in ignored:
            assert out.gradients[j] == 0.0

    def test_gradient_matches_fd(self, rng):
        for _ in range(20):
            labels = [_complete_anchor_label(rng) for _ in range(2)]
            probs = rng.uniform(0.1, 0.9, size=(2, 4))
            res = rng.uniform(-0.5, 0.5, size=(2, 8))
            x0 = np.concatenate([probs.ravel(), res.ravel()])

            def fn(x):
                return grn_loss(x[:8].reshape(2, 4), x[8:].reshape(2, 8), labels)

            assert gradient_check(fn, x0) < 1e-5

    def test_shape_mismatch_rejected(self, rng):
        label = _complete_anchor_label(rng)
        with pytest.raises(ValueError):
            grn_loss(np.zeros((1, 3)), np.zeros((1, 8)), [label])

    def test_labels_with_different_class_counts_rejected(self, rng):
        four = _complete_anchor_label(rng)
        gt = Grasp((0, 0, 0), (1, 0, 0), 0.0, 0.5)
        for m in (3, 5):
            other = assign_anchor_labels(gt, anchor_set(m))
            with pytest.raises(ValueError, match=f"^label 1 has {m} anchor classes, label 0 has 4$"):
                grn_loss(np.full((2, 4), 0.5), np.zeros((2, 8)), [four, other])


class TestRnLoss:
    def _labels(self, rng, n=3):
        out = []
        gt = Grasp((0, 0, 0), (0, 1, 0), 0.2, 0.7)
        for _ in range(n):
            prop = Grasp(rng.uniform(-0.01, 0.01, 3), (0, 1, 0), 0.2, 0.3)
            out.append(assign_refine_labels(gt, prop))
        return out

    def test_no_positives_perfect_classification(self):
        labels = [RefineLabel(NEGATIVE, None), RefineLabel(NEGATIVE, None)]
        probs = np.array([1e-12, 1e-12])
        assert rn_loss(probs, np.zeros((2, 8)), labels).value < 1e-6

    def test_theta_residual_error_of_two(self, rng):
        labels = self._labels(rng, n=1)
        assert labels[0].y == 1
        probs = np.array([1.0 - 1e-12])
        res = labels[0].residuals[None, :].copy()
        res[0, 6] += 2.0
        assert rn_loss(probs, res, labels).value == pytest.approx(1.5, abs=1e-6)

    def test_all_ignored_rejected(self):
        labels = [RefineLabel(-1, None)]
        with pytest.raises(ValueError):
            rn_loss(np.array([0.5]), np.zeros((1, 8)), labels)

    def test_positive_without_residuals_rejected(self, rng):
        labels = self._labels(rng, n=1) + [RefineLabel(POSITIVE, None)]
        with pytest.raises(ValueError, match="^label 1 is positive but has no residuals$"):
            rn_loss(np.array([0.5, 0.5]), np.zeros((2, 8)), labels)

    def test_ignored_entries_zero_gradient(self, rng):
        labels = self._labels(rng, n=2) + [RefineLabel(-1, None)]
        probs = rng.uniform(0.2, 0.8, size=3)
        res = rng.uniform(-0.5, 0.5, size=(3, 8))
        out = rn_loss(probs, res, labels)
        assert out.gradients[2] == 0.0
        np.testing.assert_array_equal(out.gradients[3 + 16:], np.zeros(8))

    def test_gradient_matches_fd(self, rng):
        for _ in range(20):
            labels = self._labels(rng, n=3)
            probs = rng.uniform(0.1, 0.9, size=3)
            res = rng.uniform(-0.5, 0.5, size=(3, 8))
            x0 = np.concatenate([probs, res.ravel()])

            def fn(x):
                return rn_loss(x[:3], x[3:].reshape(3, 8), labels)

            assert gradient_check(fn, x0) < 1e-5

    def test_normalizers_checked_explicitly(self, rng):
        labels = self._labels(rng, n=4)
        probs = rng.uniform(0.2, 0.8, size=4)
        res = rng.uniform(-0.5, 0.5, size=(4, 8))
        n_cls = sum(1 for lb in labels if lb.y != -1)
        n_reg = sum(1 for lb in labels if lb.y == 1)
        cls_sum = sum(
            binary_cross_entropy(probs[i], labels[i].y).value
            for i in range(4)
            if labels[i].y != -1
        )
        reg_sum = 0.0
        for i, lb in enumerate(labels):
            if lb.y == 1:
                diff = res[i] - lb.residuals
                reg_sum += float(
                    np.sum(np.where(np.abs(diff) < 1, 0.5 * diff**2, np.abs(diff) - 0.5))
                )
        expected = 0.2 / n_cls * cls_sum + (1.0 / n_reg * reg_sum if n_reg else 0.0)
        assert rn_loss(probs, res, labels).value == pytest.approx(expected, rel=1e-12)


class TestNonNegativity:
    def test_all_losses_non_negative_on_random_inputs(self, rng):
        for _ in range(100):
            assert mse_loss(rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4)).value >= 0.0
            assert smooth_l1(float(rng.uniform(-5, 5)), 0.0).value >= 0.0
            p = float(rng.uniform(0, 1))
            y = int(rng.integers(0, 2))
            assert focal_loss(p, y).value >= 0.0
            assert binary_cross_entropy(p, y).value >= 0.0
        labels = [_complete_anchor_label(rng) for _ in range(3)]
        probs = rng.uniform(0.01, 0.99, size=(3, 4))
        res = rng.uniform(-2, 2, size=(3, 8))
        assert grn_loss(probs, res, labels).value >= 0.0


class TestGradientCheck:
    def test_reports_analytic_bug(self):
        from grasplab.losses import LossResult

        def broken(x):
            return LossResult(float(x[0] ** 2), np.array([3.0 * x[0]]))  # wrong slope

        assert gradient_check(broken, np.array([1.5])) > 0.1

    def test_accepts_matching_gradient(self):
        from grasplab.losses import LossResult

        def quad(x):
            return LossResult(float(np.sum(x**2)), 2.0 * x)

        assert gradient_check(quad, np.array([0.3, -0.7, 2.0])) < 1e-8


class TestLosscheckStream:
    # sha256 of criterion 3's 200 configurations: case names, inputs and
    # analytic gradients, in the order the losscheck subcommand draws them
    STREAM_SHA256 = "04f0387fa791e0ffc4bcc33d6508eff07ae9c064e6d54a06246093d2a768c0b4"

    def test_criterion_3_configurations_are_pinned(self):
        import hashlib
        import itertools

        from grasplab.losses import _losscheck_cases

        cases = list(itertools.islice(_losscheck_cases(np.random.default_rng(2024), trials=40), 200))
        digest = hashlib.sha256()
        for name, fn, x0 in cases:
            x = np.asarray(x0, dtype=np.float64)
            grads = np.asarray(fn(x).gradients, dtype=np.float64)
            digest.update(name.encode() + x.tobytes() + grads.tobytes())
        assert len(cases) == 200
        assert digest.hexdigest() == self.STREAM_SHA256

    # sha256 of `grasplab losscheck --seed 0` stdout: the worst relative error of each loss over the default
    # 25 trials, so a change to any loss value or gradient bit that moves a printed digit shows here
    STDOUT_SHA256 = "305a2fb18ad44a236129d242f04e11b28c09a4bbddadcd6fc997bc6eecc57684"

    def test_losscheck_seed_0_stdout_is_pinned(self, capsys):
        import hashlib

        from grasplab.cli import main

        assert main(["losscheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("bce: max relative error ")
        assert hashlib.sha256(out.encode()).hexdigest() == self.STDOUT_SHA256
