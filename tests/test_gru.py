import numpy as np
import pytest

from helpers import fd_grad, gru_forward_oracle, rel_err
from hiergru.errors import (
    DivergenceError,
    EmptyInputError,
    ShapeMismatchError,
)
from hiergru.gru import (
    GruParams,
    OptimState,
    flatten,
    gru_step,
    init_params,
    loss_and_grad,
    optimize,
    predict_batch,
    predict_sequence,
    unflatten,
    zero_params,
)


class TestStep:
    def test_zero_fixed_point(self):
        p = zero_params(hidden=3)
        s = gru_step(p, np.zeros(3), 1.7)
        np.testing.assert_array_equal(s, np.zeros(3))

    def test_zero_params_halve_unit_state(self):
        # z = r = 0.5 and v = 0, so s' = 0.5 * 0 + 0.5 * 1 = 0.5
        p = zero_params(hidden=4)
        s = gru_step(p, np.ones(4), -2.3)
        np.testing.assert_allclose(s, np.full(4, 0.5), atol=1e-15)

    def test_saturated_update_gate_passes_candidate(self):
        # hidden = input_dim = 1: one entry each for u_z, u_r, u_v, w_z,
        # w_r, w_v, b_z, b_r, b_v, readout_w and readout_b, in that order
        vec = np.zeros(11)
        vec[[0, 3, 6]] = 50.0  # u_z, w_z, b_z
        vec[2] = 1.0  # u_v
        p = GruParams(vec, hidden=1)
        s = gru_step(p, np.array([0.2]), 1.0)
        v = np.tanh(1.0 * 1.0 + 0.2 * 0.5 * 0.0)  # r = sigmoid(0) = 0.5, w_v = 0
        assert s[0] == pytest.approx(v, abs=1e-6)

    def test_gate_ranges_bound_state(self):
        rng = np.random.default_rng(0)
        p = init_params(5, rng)

        def gates(s, x):
            xv = np.atleast_1d(x)
            z = 1 / (1 + np.exp(-(xv @ p.u_z + s @ p.w_z + p.b_z)))
            r = 1 / (1 + np.exp(-(xv @ p.u_r + s @ p.w_r + p.b_r)))
            v = np.tanh(xv @ p.u_v + (s * r) @ p.w_v + p.b_v)
            return z, r, v

        # z, r in (0,1) and v in (-1,1), so the state never grows past
        # max(|s_prev|, 1) in any coordinate
        s = rng.uniform(-3, 3, size=5)
        for _ in range(50):
            x = rng.normal() * 10
            z, r, v = gates(s, x)
            assert np.all((z > 0) & (z < 1)) and np.all((r > 0) & (r < 1))
            assert np.all((v > -1) & (v < 1))
            bound = max(1.0, np.max(np.abs(s)))
            s = gru_step(p, s, x)
            assert np.max(np.abs(s)) <= bound + 1e-12


class TestPredict:
    def test_zero_params_predict_zero(self):
        p = zero_params(4)
        assert predict_sequence(p, [1.0, -2.0, 3.0]) == 0.0

    def test_bias_passthrough(self):
        p = zero_params(4)
        vec = flatten(p)
        vec[-1] = 3.25
        p = unflatten(vec, 4)
        assert predict_sequence(p, [0.5, 0.5]) == 3.25

    def test_matches_step_by_step_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            h = int(rng.integers(1, 5))
            rho = int(rng.integers(1, 7))
            p = init_params(h, rng)
            x = rng.normal(size=rho)
            assert predict_sequence(p, x) == pytest.approx(
                gru_forward_oracle(p, x), abs=1e-12
            )

    def test_vector_inputs_match_oracle(self):
        rng = np.random.default_rng(43)
        p = init_params(3, rng, input_dim=4)
        x = rng.normal(size=(5, 4))
        assert predict_sequence(p, x) == pytest.approx(
            gru_forward_oracle(p, x), abs=1e-12
        )

    def test_batch_matches_single(self):
        rng = np.random.default_rng(44)
        p = init_params(4, rng)
        xs = rng.normal(size=(9, 5))
        batch = predict_batch(p, xs)
        singles = [predict_sequence(p, x) for x in xs]
        np.testing.assert_allclose(batch, singles, atol=1e-14)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            predict_sequence(zero_params(2), [])


class TestFlatten:
    def test_bitwise_roundtrip(self):
        rng = np.random.default_rng(7)
        for d in (1, 3):
            p = init_params(4, rng, input_dim=d)
            q = unflatten(flatten(p), 4, d)
            assert flatten(p).tobytes() == flatten(q).tobytes()

    def test_wrong_length_rejected(self):
        with pytest.raises(ShapeMismatchError):
            unflatten(np.zeros(10), hidden=4)

    def test_arrays_are_read_only_views_of_vec(self):
        p = init_params(3, np.random.default_rng(8), input_dim=2)
        names = ("u_z", "u_r", "u_v", "w_z", "w_r", "w_v", "b_z", "b_r", "b_v",
                 "readout_w")
        for name in names:
            assert np.shares_memory(getattr(p, name), p.vec), name
        assert p.readout_b == p.vec[-1]
        for a in (p.vec, *(getattr(p, name) for name in names)):
            with pytest.raises(ValueError):
                a[0] = 1.0
        for fn in (flatten, lambda q: flatten(unflatten(flatten(q), 3, 2))):
            copy = fn(p)
            copy[0] = 1.0
            assert not np.shares_memory(copy, p.vec) and p.vec[0] != 1.0


class TestLossAndGrad:
    def test_perfect_fit_zero_loss_zero_grad(self):
        p = zero_params(3)
        x = np.random.default_rng(0).normal(size=(6, 4))
        y = np.zeros(6)
        loss, grad = loss_and_grad(p, x, y)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(grad))

    def test_anchor_at_params_contributes_nothing(self):
        rng = np.random.default_rng(1)
        p = init_params(3, rng)
        x = rng.normal(size=(5, 4))
        y = rng.normal(size=5)
        l0, g0 = loss_and_grad(p, x, y)
        l1, g1 = loss_and_grad(p, x, y, regularizers=((p, 2.5),))
        assert l1 == pytest.approx(l0, abs=1e-15)
        np.testing.assert_allclose(g1, g0, atol=1e-15)

    def test_zero_coeff_skipped_bitwise(self):
        rng = np.random.default_rng(2)
        p = init_params(3, rng)
        anchor = init_params(3, np.random.default_rng(3))
        x = rng.normal(size=(5, 4))
        y = rng.normal(size=5)
        l0, g0 = loss_and_grad(p, x, y)
        l1, g1 = loss_and_grad(p, x, y, regularizers=((anchor, 0.0),))
        assert l0 == l1
        assert g0.tobytes() == g1.tobytes()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            h = int(rng.integers(1, 5))
            rho = int(rng.integers(1, 7))
            n = int(rng.integers(1, 6))
            p = init_params(h, rng)
            anchor = init_params(h, rng)
            x = rng.normal(size=(n, rho))
            y = rng.normal(size=n)
            regs = ((anchor, float(rng.uniform(0, 3))),)
            _, grad = loss_and_grad(p, x, y, regs)
            fd = fd_grad(
                lambda v: loss_and_grad(unflatten(v, h), x, y, regs)[0],
                flatten(p),
            )
            assert rel_err(grad, fd) < 1e-6

    def test_package_fd_helper_agrees(self):
        rng = np.random.default_rng(6)
        p = init_params(2, rng)
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=4)
        _, grad = loss_and_grad(p, x, y)
        fd = fd_grad(lambda v: loss_and_grad(unflatten(v, 2), x, y)[0], flatten(p))
        assert rel_err(grad, fd) < 1e-6

    def test_shape_mismatch(self):
        p = init_params(2, np.random.default_rng(0))
        other = init_params(3, np.random.default_rng(0))
        x = np.zeros((4, 3))
        with pytest.raises(ShapeMismatchError):
            loss_and_grad(p, x, np.zeros(4), regularizers=((other, 1.0),))
        with pytest.raises(ShapeMismatchError):
            loss_and_grad(p, x, np.zeros(5))

    def test_empty_batch(self):
        p = init_params(2, np.random.default_rng(0))
        with pytest.raises(EmptyInputError):
            loss_and_grad(p, np.zeros((0, 3)), np.zeros(0))


class TestOptimize:
    def _data(self, seed=0, n=12, rho=4):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, rho))
        y = rng.normal(size=n)
        return x, y

    def test_zero_learning_rate_is_identity(self):
        x, y = self._data()
        p = init_params(3, np.random.default_rng(1))
        out, _ = optimize(p, x, y, OptimState(lr=0.0, method="sgd"), epochs=5)
        assert flatten(out).tobytes() == flatten(p).tobytes()

    def test_loss_decreases(self):
        x, y = self._data(seed=2)
        p = init_params(4, np.random.default_rng(3))
        _, losses = optimize(p, x, y, OptimState(lr=0.01), epochs=150)
        assert losses[-1] < losses[0]

    def test_seed_determinism(self):
        x, y = self._data(seed=4)
        runs = []
        for _ in range(2):
            p = init_params(4, np.random.default_rng(5))
            out, _ = optimize(p, x, y, OptimState(lr=0.005), epochs=40)
            runs.append(flatten(out).tobytes())
        assert runs[0] == runs[1]

    def test_epochs_zero_returns_input(self):
        x, y = self._data()
        p = init_params(3, np.random.default_rng(6))
        out, losses = optimize(p, x, y, OptimState(), epochs=0)
        assert out is p
        assert losses == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_carries_last_finite(self):
        x, y = self._data(seed=7)
        p = init_params(3, np.random.default_rng(8))
        with pytest.raises(DivergenceError) as exc:
            optimize(p, x, y, OptimState(lr=1e12, method="sgd"), epochs=50)
        assert exc.value.last_params is not None
        assert np.all(np.isfinite(exc.value.last_params))

    def test_anchored_shrinkage_monotone(self):
        # stronger anchoring never ends farther from the anchor
        x, y = self._data(seed=11, n=20)
        anchor = init_params(3, np.random.default_rng(12))
        dists = []
        for coeff in (0.0, 1.0, 10.0, 100.0):
            p = init_params(3, np.random.default_rng(13))
            out, _ = optimize(
                p, x, y, OptimState(lr=0.01), epochs=400,
                regularizers=((anchor, coeff),),
            )
            dists.append(np.linalg.norm(flatten(out) - flatten(anchor)))
        assert all(a >= b - 1e-9 for a, b in zip(dists, dists[1:]))
