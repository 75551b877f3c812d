import json
import math
import re

import numpy as np
import pytest

from griddistill import tinynet
from griddistill.checks import finite_diff_grad, max_rel_err
from griddistill.datasets import SchemaError
from griddistill.rng import derive_stream
from griddistill.tinynet import NetShape, PolicyParams


def hand_params():
    """2-2-2 net small enough to trace with scalar arithmetic."""
    shape = NetShape(in_dim=2, hidden=2, out_dim=2)
    w1 = np.array([[1.0, -1.0], [0.5, 0.0]])
    b1 = np.array([0.1, -0.2])
    w2 = np.array([[1.0, 2.0], [-1.0, 0.5]])
    b2 = np.array([0.05, -0.05])
    return PolicyParams(theta=tinynet.pack(w1, b1, w2, b2), shape=shape)


class TestShapes:
    def test_param_count_formula(self):
        shape = NetShape(in_dim=144, hidden=32, out_dim=5)
        assert shape.param_count == 144 * 32 + 32 + 32 * 5 + 5

    def test_bad_theta_rejected(self):
        shape = NetShape(in_dim=2, hidden=2, out_dim=2)
        with pytest.raises(ValueError):
            PolicyParams(theta=np.zeros(3), shape=shape)
        bad = np.zeros(shape.param_count)
        bad[0] = np.nan
        with pytest.raises(ValueError):
            PolicyParams(theta=bad, shape=shape)

    def test_pack_unpack_round_trip(self):
        params = hand_params()
        w1, b1, w2, b2 = tinynet.unpack(params)
        assert np.array_equal(tinynet.pack(w1, b1, w2, b2), params.theta)


class TestInit:
    def test_biases_zero_and_bounds(self):
        shape = NetShape(in_dim=144, hidden=32, out_dim=5)
        params = tinynet.init_params(shape, derive_stream(0, "init"))
        w1, b1, w2, b2 = tinynet.unpack(params)
        assert np.all(b1 == 0.0) and np.all(b2 == 0.0)
        assert np.all(np.abs(w1) <= math.sqrt(6.0 / 144))
        assert np.all(np.abs(w2) <= math.sqrt(6.0 / 32))

    def test_same_stream_state_same_init(self):
        shape = NetShape(in_dim=8, hidden=4, out_dim=3)
        a = tinynet.init_params(shape, derive_stream(5, "x"))
        b = tinynet.init_params(shape, derive_stream(5, "x"))
        assert np.array_equal(a.theta, b.theta)


class TestForward:
    def test_zero_params_uniform(self):
        shape = NetShape(in_dim=6, hidden=4, out_dim=5)
        params = PolicyParams(theta=np.zeros(shape.param_count), shape=shape)
        p = tinynet.forward(params, np.ones(6))
        assert np.allclose(p, 0.2)

    def test_hand_computed_2_2_2(self):
        params = hand_params()
        p = tinynet.forward(params, np.array([1.0, 0.0]))
        # u = [1.1, 0.3], h = [1.1, 0.3], z = [1.75, -1.0]
        e0, e1 = math.exp(1.75), math.exp(-1.0)
        assert p[0] == pytest.approx(e0 / (e0 + e1), rel=1e-12)
        assert p[1] == pytest.approx(e1 / (e0 + e1), rel=1e-12)

    def test_probabilities_sum_to_one(self):
        shape = NetShape(in_dim=10, hidden=7, out_dim=5)
        rng = derive_stream(3, "fwd")
        for _ in range(20):
            params = tinynet.init_params(shape, rng)
            x = np.array([rng.next_gauss() for _ in range(10)])
            p = tinynet.forward(params, x)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p > 0.0)

    def test_extreme_logits_stable(self):
        shape = NetShape(in_dim=2, hidden=2, out_dim=2)
        theta = np.zeros(shape.param_count)
        params = PolicyParams(theta=theta, shape=shape)
        p = tinynet.forward(params, np.array([1e6, -1e6]))
        assert np.all(np.isfinite(p)) and abs(p.sum() - 1.0) < 1e-12

    def test_batched_forward_matches_single(self):
        params = hand_params()
        xs = np.array([[1.0, 0.0], [0.3, -0.7]])
        batched = tinynet.forward(params, xs)
        for i in range(2):
            assert np.allclose(batched[i], tinynet.forward(params, xs[i]))

    def test_stacked_forward_matches_each_slice(self):
        # evaluation stacks maps as (maps, cells, in_dim): each slice must be
        # the bytes of the 2-D forward on that map's 36 cell observations
        shape = NetShape(in_dim=144)
        rng = derive_stream(4, "stack")
        params = tinynet.init_params(shape, rng)
        xs = (rng.next_uniform_array(8 * 36 * 144) < 0.1).astype(np.float64).reshape(8, 36, 144)
        stacked = tinynet.forward(params, xs)
        assert stacked.shape == (8, 36, 5)
        for x, p in zip(xs, stacked):
            assert p.tobytes() == tinynet.forward(params, x).tobytes()


class TestBcLoss:
    def test_zero_params_log5(self):
        shape = NetShape(in_dim=4, hidden=3, out_dim=5)
        params = PolicyParams(theta=np.zeros(shape.param_count), shape=shape)
        xs = np.ones((3, 4))
        labels = np.array([0, 2, 4])
        loss = tinynet.bc_loss(params, xs, labels, np.ones(3))
        assert loss == pytest.approx(math.log(5.0), rel=1e-12)

    def test_soft_label_equal_to_forward_gives_entropy(self):
        params = hand_params()
        x = np.array([[1.0, 0.0]])
        p = tinynet.forward(params, x[0])
        loss = tinynet.bc_loss(params, x, p[None, :], np.ones(1))
        entropy = -(p * np.log(p)).sum()
        assert loss == pytest.approx(entropy, rel=1e-12)

    def test_weighted_two_example_hand_oracle(self):
        params = hand_params()
        xs = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1])
        weights = np.array([0.3, 0.7])
        # example 0: z = [1.75, -1.0]; example 1: u = [-0.9, -0.2] -> h = 0
        # so z = b2 = [0.05, -0.05]
        def ce(z, a):
            denom = math.log(math.exp(z[0]) + math.exp(z[1]))
            return -(z[a] - denom)

        expected = (0.3 * ce([1.75, -1.0], 0) + 0.7 * ce([0.05, -0.05], 1)) / 1.0
        loss = tinynet.bc_loss(params, xs, labels, weights)
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_batch_permutation_invariance(self):
        shape = NetShape(in_dim=5, hidden=4, out_dim=3)
        rng = derive_stream(11, "perm")
        params = tinynet.init_params(shape, rng)
        xs = np.array([[rng.next_gauss() for _ in range(5)] for _ in range(6)])
        labels = np.array([rng.next_int(3) for _ in range(6)], dtype=np.int64)
        weights = np.array([rng.next_uniform() + 0.1 for _ in range(6)])
        perm = np.array(rng.shuffle(6))
        a = tinynet.bc_loss(params, xs, labels, weights)
        b = tinynet.bc_loss(params, xs[perm], labels[perm], weights[perm])
        assert a == pytest.approx(b, rel=1e-12)

    def test_all_zero_weights_rejected(self):
        params = hand_params()
        with pytest.raises(ValueError):
            tinynet.bc_loss(params, np.ones((2, 2)), np.array([0, 1]), np.zeros(2))

    def test_bad_soft_labels_rejected(self):
        params = hand_params()
        with pytest.raises(ValueError):
            tinynet.bc_loss(params, np.ones((1, 2)), np.array([[0.6, 0.6]]), np.ones(1))
        with pytest.raises(ValueError):
            tinynet.bc_loss(params, np.ones((1, 2)), np.array([[-0.1, 1.1]]), np.ones(1))


class TestBcGrad:
    def test_matches_finite_differences(self):
        # 20 random instances, step 1e-5, rel err <= 1e-4 with 1e-8 floor
        rng = derive_stream(40, "fd")
        worst = 0.0
        for _ in range(20):
            in_dim = 2 + rng.next_int(5)
            hidden = 2 + rng.next_int(4)
            out_dim = 2 + rng.next_int(4)
            m = 1 + rng.next_int(3)
            shape = NetShape(in_dim=in_dim, hidden=hidden, out_dim=out_dim)
            params = tinynet.init_params(shape, rng)
            xs = np.array([[rng.next_gauss() for _ in range(in_dim)] for _ in range(m)])
            labels = np.array([rng.next_int(out_dim) for _ in range(m)], dtype=np.int64)
            weights = np.array([0.2 + rng.next_uniform() for _ in range(m)])
            analytic = tinynet.bc_grad(params, xs, labels, weights)
            numeric = finite_diff_grad(
                lambda th: tinynet.bc_loss(
                    PolicyParams(theta=th, shape=shape), xs, labels, weights
                ),
                params.theta.copy(),
                eps=1e-5,
            )
            worst = max(worst, max_rel_err(analytic, numeric))
        assert worst <= 1e-4

    def test_zero_params_single_example_finite(self):
        shape = NetShape(in_dim=3, hidden=2, out_dim=5)
        params = PolicyParams(theta=np.zeros(shape.param_count), shape=shape)
        xs = np.array([[1.0, 0.0, 1.0]])
        g = tinynet.bc_grad(params, xs, np.array([2]), np.ones(1))
        assert np.all(np.isfinite(g))
        numeric = finite_diff_grad(
            lambda th: tinynet.bc_loss(PolicyParams(theta=th, shape=shape), xs, np.array([2]), np.ones(1)),
            params.theta.copy(),
            eps=1e-5,
        )
        assert max_rel_err(g, numeric) <= 1e-6

    def test_perfect_soft_labels_zero_gradient(self):
        params = hand_params()
        xs = np.array([[1.0, 0.0], [0.2, 0.4]])
        p = tinynet.forward(params, xs)
        g = tinynet.bc_grad(params, xs, p, np.ones(2))
        assert np.linalg.norm(g) < 1e-14

    def test_linearity_over_batch(self):
        shape = NetShape(in_dim=4, hidden=3, out_dim=3)
        rng = derive_stream(41, "lin")
        params = tinynet.init_params(shape, rng)
        xs = np.array([[rng.next_gauss() for _ in range(4)] for _ in range(2)])
        labels = np.array([0, 2])
        g_batch = tinynet.bc_grad(params, xs, labels, np.ones(2))
        g0 = tinynet.bc_grad(params, xs[:1], labels[:1], np.ones(1))
        g1 = tinynet.bc_grad(params, xs[1:], labels[1:], np.ones(1))
        assert np.allclose(g_batch, 0.5 * (g0 + g1), atol=1e-15)


def plain_grad_kernel(theta, shape, xs, y, coef):
    """The cloning gradient of one flat parameter vector, written with 2-D
    products only: the formula the block kernel stacks."""
    w1, b1, w2, b2 = tinynet._split(theta, shape)
    u = xs @ w1.T + b1
    h = np.maximum(u, 0.0)
    p = np.exp(tinynet._log_softmax(h @ w2.T + b2))
    delta = (p - y) * coef[:, None]
    e = (delta @ w2) * (u > 0.0)
    return np.concatenate(
        [(e.T @ xs).ravel(), e.sum(axis=0), (delta.T @ h).ravel(), delta.sum(axis=0)]
    )


class TestGradKernelBlock:
    SHAPE = NetShape(in_dim=144)

    def block_and_batch(self, students, m, soft):
        rng = derive_stream(m, "block")
        theta = np.stack(
            [tinynet.init_params(self.SHAPE, rng).theta for _ in range(students)]
        )
        xs = (rng.next_uniform_array(m * 144).reshape(m, 144) < 0.1).astype(np.float64)
        if soft:
            w = rng.next_uniform_array(m * 5).reshape(m, 5) + 0.01
            labels = w / w.sum(axis=1, keepdims=True)
        else:
            labels = rng.next_int_array(5, m)
        weights = rng.next_int_array(4, students * m).reshape(students, m) + 1.0
        return theta, xs, labels, weights

    def test_pack_and_split_round_trip_a_block(self):
        theta, *_ = self.block_and_batch(3, 1, False)
        parts = tinynet._split(theta, self.SHAPE)
        assert [p.shape[0] for p in parts] == [3] * 4
        assert tinynet.pack(*parts).tobytes() == theta.tobytes()
        for i in range(3):
            row = tinynet._split(theta[i], self.SHAPE)
            assert all(np.array_equal(a[i], b) for a, b in zip(parts, row))

    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    @pytest.mark.parametrize("m", [1, 9, 256])
    def test_block_rows_equal_bc_grad(self, m, soft):
        theta, xs, labels, weights = self.block_and_batch(4, m, soft)
        y = tinynet._as_label_matrix(labels, 5)
        coef = weights / weights.sum(axis=1, keepdims=True)
        shared = tinynet._grad_kernel(theta, self.SHAPE, xs, y, coef)
        # per-row rows: each student reads the batch in another order
        order = np.stack([np.roll(np.arange(m), i) for i in range(4)])
        per_row = tinynet._grad_kernel(theta, self.SHAPE, xs[order], y[order], coef)
        for i in range(4):
            params = PolicyParams(theta=theta[i], shape=self.SHAPE)
            want = tinynet.bc_grad(params, xs, labels, weights[i])
            assert shared[i].tobytes() == want.tobytes(), i
            want = tinynet.bc_grad(params, xs[order[i]], labels[order[i]], weights[i])
            assert per_row[i].tobytes() == want.tobytes(), i

    @pytest.mark.parametrize("m", [1, 9, 256])
    def test_bc_grad_equals_the_plain_kernel(self, m):
        theta, xs, labels, weights = self.block_and_batch(1, m, False)
        params = PolicyParams(theta=theta[0], shape=self.SHAPE)
        y = tinynet._as_label_matrix(labels, 5)
        want = plain_grad_kernel(theta[0], self.SHAPE, xs, y, weights[0] / weights[0].sum())
        assert tinynet.bc_grad(params, xs, labels, weights[0]).tobytes() == want.tobytes()


class TestMatchingGrad:
    def test_stationary_at_identical_batches(self):
        shape = NetShape(in_dim=5, hidden=4, out_dim=3)
        rng = derive_stream(50, "stat")
        params = tinynet.init_params(shape, rng)
        xs = np.array([[rng.next_gauss() for _ in range(5)] for _ in range(3)])
        labels = np.array([0, 1, 2])
        g_real = tinynet.bc_grad(params, xs, labels, np.ones(3))
        res = tinynet.matching_grad_wrt_examples(params, g_real, xs, labels)
        assert np.linalg.norm(res.grad_x) <= 1e-10
        assert res.loss <= 1e-30  # summation-order ulps only

    def test_matches_finite_differences(self):
        # 10 small random instances, step 1e-4, rel err <= 1e-3
        rng = derive_stream(51, "mfd")
        worst = 0.0
        for case in range(10):
            shape = NetShape(in_dim=4, hidden=3, out_dim=2)
            params = tinynet.init_params(shape, rng)
            m = 2
            xs = np.array([[rng.next_gauss() for _ in range(4)] for _ in range(m)])
            labels = np.array([rng.next_int(2) for _ in range(m)], dtype=np.int64)
            real_xs = np.array([[rng.next_gauss() for _ in range(4)] for _ in range(3)])
            real_labels = np.array([rng.next_int(2) for _ in range(3)], dtype=np.int64)
            g_real = tinynet.bc_grad(params, real_xs, real_labels, np.ones(3))
            res = tinynet.matching_grad_wrt_examples(params, g_real, xs, labels)

            def dist(flat):
                g_syn = tinynet.bc_grad(params, flat.reshape(m, 4), labels, np.ones(m))
                r = g_syn - g_real
                return r @ r

            numeric = finite_diff_grad(dist, xs.ravel().copy(), eps=1e-4)
            worst = max(worst, max_rel_err(res.grad_x.ravel(), numeric))
        assert worst <= 1e-3

    def test_zero_real_grad_special_case(self):
        shape = NetShape(in_dim=4, hidden=3, out_dim=2)
        rng = derive_stream(52, "zero")
        params = tinynet.init_params(shape, rng)
        m = 2
        xs = np.array([[rng.next_gauss() for _ in range(4)] for _ in range(m)])
        labels = np.array([0, 1])
        res = tinynet.matching_grad_wrt_examples(
            params, np.zeros(shape.param_count), xs, labels
        )

        def norm_sq(flat):
            g_syn = tinynet.bc_grad(params, flat.reshape(m, 4), labels, np.ones(m))
            return g_syn @ g_syn

        numeric = finite_diff_grad(norm_sq, xs.ravel().copy(), eps=1e-4)
        assert max_rel_err(res.grad_x.ravel(), numeric) <= 1e-3

    def test_label_logit_gradient_matches_finite_differences(self):
        shape = NetShape(in_dim=4, hidden=3, out_dim=3)
        rng = derive_stream(53, "logits")
        params = tinynet.init_params(shape, rng)
        m = 3
        xs = np.array([[rng.next_gauss() for _ in range(4)] for _ in range(m)])
        logits = np.array([[rng.next_gauss() for _ in range(3)] for _ in range(m)])
        real_xs = np.array([[rng.next_gauss() for _ in range(4)] for _ in range(4)])
        real_labels = np.array([rng.next_int(3) for _ in range(4)], dtype=np.int64)
        g_real = tinynet.bc_grad(params, real_xs, real_labels, np.ones(4))
        res = tinynet.matching_grad_wrt_examples(params, g_real, xs, logits, learn_labels=True)

        def softmax_rows(z):
            zs = z - z.max(axis=1, keepdims=True)
            ez = np.exp(zs)
            return ez / ez.sum(axis=1, keepdims=True)

        def dist(flat):
            y = softmax_rows(flat.reshape(m, 3))
            g_syn = tinynet.bc_grad(params, xs, y, np.ones(m))
            r = g_syn - g_real
            return r @ r

        numeric = finite_diff_grad(dist, logits.ravel().copy(), eps=1e-4)
        assert max_rel_err(res.grad_label_logits.ravel(), numeric) <= 1e-3

    def test_dimension_mismatch_rejected(self):
        shape = NetShape(in_dim=4, hidden=3, out_dim=2)
        params = tinynet.init_params(shape, derive_stream(0, "dm"))
        with pytest.raises(ValueError):
            tinynet.matching_grad_wrt_examples(
                params, np.zeros(7), np.ones((2, 4)), np.array([0, 1])
            )
        with pytest.raises(ValueError):
            tinynet.matching_grad_wrt_examples(
                params, np.zeros(shape.param_count), np.ones((2, 5)), np.array([0, 1])
            )


@pytest.mark.usefixtures("unmemoized")
class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        shape = NetShape(in_dim=6, hidden=4, out_dim=5)
        params = tinynet.init_params(shape, derive_stream(77, "ckpt"))
        path = str(tmp_path / "student_0.json")
        tinynet.save_checkpoint(params, path)
        loaded = tinynet.load_checkpoint(path)
        assert loaded.shape == shape
        assert np.array_equal(loaded.theta, params.theta)

    def test_negative_zero_round_trips(self, tmp_path):
        shape = NetShape(in_dim=2, hidden=2, out_dim=2)
        theta = np.zeros(shape.param_count)
        theta[::2] = -0.0
        path = str(tmp_path / "z.json")
        tinynet.save_checkpoint(PolicyParams(theta=theta, shape=shape), path)
        loaded = tinynet.load_checkpoint(path)
        assert np.array_equal(np.signbit(loaded.theta), np.signbit(theta))
        assert np.signbit(loaded.theta[0]) and not np.signbit(loaded.theta[1])

    def test_format_fields(self, tmp_path):
        params = hand_params()
        path = str(tmp_path / "c.json")
        tinynet.save_checkpoint(params, path)
        obj = json.load(open(path))
        assert set(obj) == {"shape", "theta"}
        assert obj["shape"] == {"in": 2, "hidden": 2, "out": 2}
        assert len(obj["theta"]) == params.shape.param_count

    def test_truncated_file_raises_naming_it(self, tmp_path):
        path = str(tmp_path / "student_0.json")
        tinynet.save_checkpoint(hand_params(), path)
        text = open(path).read()
        with open(path, "w") as fh:
            fh.write(text[: len(text) // 2])
        with pytest.raises(SchemaError, match=f"^{re.escape(path)}: malformed JSON"):
            tinynet.load_checkpoint(path)

    @pytest.mark.parametrize("drop", ["shape", "theta", "hidden"])
    def test_missing_key_raises_naming_it(self, tmp_path, drop):
        path = str(tmp_path / "student_0.json")
        tinynet.save_checkpoint(hand_params(), path)
        obj = json.load(open(path))
        holder = obj["shape"] if drop == "hidden" else obj
        del holder[drop]
        with open(path, "w") as fh:
            json.dump(obj, fh)
        with pytest.raises(SchemaError, match=f"^{re.escape(path)}: expected shape"):
            tinynet.load_checkpoint(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("in", 2.9),
            ("in", 2.0),
            ("hidden", 2.0),
            ("out", "2"),
            ("out", True),
            ("in", 0),
            ("hidden", -1),
        ],
    )
    def test_bad_shape_dimension_raises_naming_it(self, tmp_path, key, value):
        path = str(tmp_path / "student_0.json")
        tinynet.save_checkpoint(hand_params(), path)
        obj = json.load(open(path))
        obj["shape"][key] = value
        with open(path, "w") as fh:
            json.dump(obj, fh)
        if type(value) is int:
            reason = f"shape {key} must be >= 1, not {value}"
        else:
            reason = f"shape {key} {re.escape(repr(value))} is not an integer >= 1"
        with pytest.raises(SchemaError, match=f"^{re.escape(path)}: {reason}"):
            tinynet.load_checkpoint(path)
