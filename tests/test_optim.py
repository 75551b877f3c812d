import numpy as np
import pytest

from griddistill.optim import Adam, SgdMomentum


class TestSgdMomentum:
    def test_zero_grad_zero_velocity_noop(self):
        opt = SgdMomentum(dim=3, lr=0.1, momentum=0.5)
        x = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(opt.step(x, np.zeros(3)), x)

    def test_first_step_plain_sgd(self):
        opt = SgdMomentum(dim=2, lr=0.1, momentum=0.5)
        x = np.zeros(2)
        g = np.array([1.0, -3.0])
        assert np.allclose(opt.step(x, g), -0.1 * g)

    def test_two_steps_constant_grad(self):
        opt = SgdMomentum(dim=1, lr=0.1, momentum=0.5)
        x = np.zeros(1)
        g = np.array([2.0])
        x = opt.step(x, g)
        x = opt.step(x, g)
        # v1 = g, v2 = 0.5 g + g; total = -lr (v1 + v2) = -lr g (1 + 1.5)
        assert x[0] == pytest.approx(-0.1 * 2.0 * 2.5)

    def test_length_mismatch(self):
        opt = SgdMomentum(dim=2)
        with pytest.raises(ValueError):
            opt.step(np.zeros(3), np.zeros(3))


class TestAdam:
    def test_zero_grad_fresh_state_noop(self):
        opt = Adam(shape=2)
        x = np.array([1.0, 2.0])
        assert np.array_equal(opt.step(x, np.zeros(2)), x)

    def test_first_step_signlike(self):
        opt = Adam(shape=3, lr=5e-3)
        x = np.zeros(3)
        g = np.array([0.7, -1.3, 4.0])
        out = opt.step(x, g)
        expected = -5e-3 * g / (np.abs(g) + 1e-8)
        assert np.allclose(out, expected, rtol=1e-9)

    def test_three_steps_hand_unrolled(self):
        lr, b1, b2, eps = 5e-3, 0.9, 0.999, 1e-8
        g = 0.3
        x, m, v = 1.0, 0.0, 0.0
        for t in range(1, 4):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            x = x - lr * m_hat / (v_hat ** 0.5 + eps)
        opt = Adam(shape=1, lr=lr)
        xa = np.array([1.0])
        for _ in range(3):
            xa = opt.step(xa, np.array([g]))
        assert xa[0] == pytest.approx(x, rel=1e-14)

    def test_deterministic_state_machine(self):
        grads = [np.array([0.1, -0.2]), np.array([0.0, 0.5]), np.array([1.0, 1.0])]

        def run():
            opt = Adam(shape=2)
            x = np.zeros(2)
            for g in grads:
                x = opt.step(x, g)
            return x

        assert np.array_equal(run(), run())

    def test_in_place_step_matches_out_of_place_formula(self):
        # the textbook formula, one temporary per operation: the in-place
        # step must reproduce it bit for bit
        lr, b1, b2, eps = 5e-3, 0.9, 0.999, 1e-8
        gen = np.random.default_rng(0)
        dim = 4805
        x_ref = gen.standard_normal(dim)
        m = np.zeros(dim)
        v = np.zeros(dim)
        opt = Adam(shape=dim, lr=lr, beta1=b1, beta2=b2, eps=eps)
        x = x_ref.copy()
        for t in range(1, 501):
            g = gen.standard_normal(dim) * 10.0 ** gen.integers(-6, 3)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            x_ref = x_ref - lr * m_hat / (np.sqrt(v_hat) + eps)
            x = opt.step(x, g)
        assert x.tobytes() == x_ref.tobytes()
        assert opt.m.tobytes() == m.tobytes()
        assert opt.v.tobytes() == v.tobytes()

    def test_no_nan_from_finite_inputs(self):
        opt = Adam(shape=2, lr=1.0)
        x = np.zeros(2)
        for g in (np.array([1e30, -1e30]), np.zeros(2), np.array([1e-300, 0.0])):
            x = opt.step(x, g)
            assert np.all(np.isfinite(x))

    def test_length_mismatch(self):
        opt = Adam(shape=4)
        with pytest.raises(ValueError):
            opt.step(np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="shapes disagree"):
            Adam(shape=(2, 4)).step(np.zeros(8), np.zeros(8))

    def test_block_rows_equal_separate_optimizers(self):
        # an (S, P) Adam steps each row exactly as S separate Adams would
        gen = np.random.default_rng(1)
        students, dim = 3, 97
        block = Adam(shape=(students, dim))
        alone = [Adam(shape=dim) for _ in range(students)]
        x = gen.standard_normal((students, dim))
        xs = list(x.copy())
        for _ in range(500):
            g = gen.standard_normal((students, dim)) * 10.0 ** gen.integers(-6, 3, (students, 1))
            x = block.step(x, g)
            xs = [opt.step(xi, gi) for opt, xi, gi in zip(alone, xs, g)]
        for i, opt in enumerate(alone):
            assert x[i].tobytes() == xs[i].tobytes(), i
            assert block.m[i].tobytes() == opt.m.tobytes(), i
            assert block.v[i].tobytes() == opt.v.tobytes(), i
