import dataclasses

import numpy as np
import pytest

from conftest import panel_from_rates
from helpers import (
    bptt_oracle,
    fd_grad,
    gru_forward_oracle,
    gru_states_oracle,
    rel_err,
)
from hiergru.errors import (
    DivergenceError,
    EmptyInputError,
    InvalidSpecError,
    ShapeMismatchError,
)
from hiergru import gru
from hiergru.baselines import mlp_unflatten
from hiergru.gru import (
    GruParams,
    OptimState,
    flatten,
    gru_step,
    init_params,
    loss_and_grad,
    optimize,
    optimize_stack,
    predict_batch,
    predict_sequence,
    unflatten,
    zero_params,
)
from hiergru.models import ModelBundle


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

    @pytest.mark.parametrize(
        "state, x, input_dim",
        [
            (np.zeros(3), 1.0, 1),  # state too short
            (np.zeros((2, 4)), 1.0, 1),  # a batch of states
            (np.zeros(4), [1.0, 2.0], 1),  # input too wide
            (np.zeros(4), [1.0, 2.0], 3),  # input too narrow
            (np.zeros(4), np.zeros((1, 3)), 3),  # a batch of inputs
        ],
    )
    def test_bad_shapes_rejected(self, state, x, input_dim):
        p = init_params(4, np.random.default_rng(0), input_dim=input_dim)
        with pytest.raises(ShapeMismatchError, match=r"state of shape .* input of shape"):
            gru_step(p, state, x)

    def test_init_params_names_bad_sizes(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeMismatchError, match="hidden=0, input_dim=1"):
            init_params(0, rng)
        with pytest.raises(ShapeMismatchError, match="hidden=4, input_dim=-2"):
            init_params(4, rng, input_dim=-2)


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

    def test_batch_matches_full_recurrence_bitwise(self):
        # predict_batch skips the zero state's recurrent products, exact zeros
        rng = np.random.default_rng(45)
        for d, rho in ((1, 1), (1, 4), (3, 2)):
            p = init_params(5, rng, input_dim=d)
            x = rng.normal(size=(30, rho, d))
            x.flat[::4] = 0.0
            x.flat[1::6] = -0.0
            want = gru_states_oracle(p, x)[0][rho] @ p.readout_w + p.readout_b
            assert predict_batch(p, x).tobytes() == want.tobytes()

    def test_batch_matches_single(self):
        rng = np.random.default_rng(44)
        p = init_params(4, rng)
        xs = rng.normal(size=(9, 5))
        batch = predict_batch(p, xs)
        singles = [predict_sequence(p, x) for x in xs]
        np.testing.assert_allclose(batch, singles, atol=1e-14)

    def test_empty_input(self):
        """Zero-step windows: prediction and every trainer reject them, at
        zero epochs too."""
        p, windows, targets = zero_params(2), np.zeros((3, 0)), np.zeros(3)
        calls = [
            lambda: predict_sequence(p, []),
            lambda: predict_batch(p, windows),
            lambda: loss_and_grad(p, windows, targets),
        ]
        for epochs in (0, 1):
            calls += [
                lambda e=epochs: optimize(p, windows, targets, OptimState(), epochs=e),
                lambda e=epochs: optimize_stack(
                    [p], [windows], [targets], OptimState(), epochs=e
                ),
            ]
        for call in calls:
            with pytest.raises(EmptyInputError):
                call()


class TestSaturatedGates:
    """Weights of about 1e3 drive ``exp`` in the sigmoid past overflow.
    Every entry point enters ``np.errstate`` itself, so none of them warns
    (pytest turns a RuntimeWarning into a failure), and each returns the
    bits of a reference that computes the sigmoid in full."""

    @staticmethod
    def _saturated(seed, count=1, d=1):
        rng = np.random.default_rng(seed)
        units = [GruParams(init_params(4, rng, input_dim=d).vec * 1e4, 4, d)
                 for _ in range(count)]
        return units, rng

    def test_loss_and_grad(self):
        (p,), rng = self._saturated(60)
        x, y = rng.normal(size=(20, 5)), rng.normal(size=20)
        anchor = init_params(4, rng)
        want_loss, want_grad = bptt_oracle(p, x, y, ((anchor, 0.5),))
        loss, grad = loss_and_grad(p, x, y, ((anchor, 0.5),))
        assert (loss, grad.tobytes()) == (want_loss, want_grad.tobytes())

    def test_predict_batch_and_gru_step(self):
        (p,), rng = self._saturated(61, d=2)
        x = rng.normal(size=(6, 5, 2))
        states = gru_states_oracle(p, x)[0]
        want = states[5] @ p.readout_w + p.readout_b
        assert predict_batch(p, x).tobytes() == want.tobytes()
        for window in x:
            s = np.zeros(4)
            for step in window:
                s = gru_step(p, s, step)
            with np.errstate(over="ignore"):
                want = gru_forward_oracle(p, window)
            assert float(s @ p.readout_w + p.readout_b) == want

    def test_stacked_forecast(self):
        units, rng = self._saturated(62, count=3)
        windows = rng.normal(size=(3, 7, 4))
        stacked = gru.stack_predictor(units)(windows)
        for i, p in enumerate(units):
            assert stacked[i].tobytes() == predict_batch(p, windows[i]).tobytes()
        panel = panel_from_rates({n: rng.normal(size=30) for n in "abc"})
        bundle = ModelBundle(tag="igru", rho=4, models=dict(zip("abc", units)))
        origins = {n: panel.test_origins(n, 4) for n in "abc"}
        for node, preds in bundle.forecast_nodes(panel, origins, 3).items():
            assert preds.tobytes() == bundle.forecast_origins(
                panel, node, origins[node], 3).tobytes()


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
        with pytest.raises(ShapeMismatchError):
            mlp_unflatten(np.zeros(10), (2, 3, 1))  # 2 * 3 + 3 + 3 + 1 = 13

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

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidSpecError, match="'bogus'"):
            OptimState(lr=0.01, method="bogus")

    @pytest.mark.parametrize("lr", [-1, float("nan"), True, "0.1"])
    def test_bad_learning_rate_rejected(self, lr):
        with pytest.raises(InvalidSpecError, match="^lr must be"):
            OptimState(lr=lr)

    def test_fields_cannot_be_assigned(self):
        opt = OptimState()
        with pytest.raises(dataclasses.FrozenInstanceError):
            opt.lr = 0.1

    def test_one_state_serves_runs_as_fresh(self):
        # an earlier run leaves no Adam moments behind: the same value
        # trains a second unit, and a unit of another size, as a fresh one
        x, y = self._data(seed=14)
        opt = OptimState(lr=0.01)
        for hidden, seed in ((3, 15), (3, 16), (5, 17)):
            p = init_params(hidden, np.random.default_rng(seed))
            out, losses = optimize(p, x, y, opt, epochs=8)
            fresh, fresh_losses = optimize(p, x, y, OptimState(lr=0.01), epochs=8)
            assert flatten(out).tobytes() == flatten(fresh).tobytes()
            assert losses == fresh_losses

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


class TestOptimizeStack:
    @staticmethod
    def _units(rng, count, n, rho, d, h):
        """Units of one shape with their own windows and anchor lists of
        different lengths, zero and negative-zero coefficients included."""
        params, inputs, targets, regs = [], [], [], []
        for i in range(count):
            params.append(init_params(h, rng, input_dim=d))
            x = rng.normal(size=(n, rho) if d == 1 else (n, rho, d))
            x.flat[::5] = 0.0
            x.flat[1::7] = -0.0
            inputs.append(x)
            targets.append(rng.normal(size=n))
            coeffs = [0.7, 0.0, 2.5, -0.0][: i % 5]
            regs.append(tuple((init_params(h, rng, input_dim=d), c) for c in coeffs))
        return params, inputs, targets, regs

    @pytest.mark.parametrize(
        "count, n, rho, d, h, method",
        [
            (5, 30, 4, 1, 8, "adam"),
            (4, 7, 12, 1, 8, "sgd"),
            (5, 2, 1, 3, 4, "adam"),
            (3, 1, 3, 1, 5, "adam"),
            (1, 12, 4, 6, 3, "sgd"),
            (7, 100, 4, 1, 8, "adam"),
            (7, 600, 4, 1, 8, "adam"),  # 4,200 windows in one pass
        ],
    )
    def test_each_unit_gets_its_bits_alone(self, count, n, rho, d, h, method):
        rng = np.random.default_rng(count * 100 + n)
        params, inputs, targets, regs = self._units(rng, count, n, rho, d, h)
        trained, losses, failures = optimize_stack(
            params, inputs, targets, OptimState(lr=0.01, method=method),
            epochs=6, regularizers=regs,
        )
        assert failures == {} and len(losses) == 7
        for i in range(count):
            alone, alone_losses = optimize(
                params[i], inputs[i], targets[i], OptimState(lr=0.01, method=method),
                epochs=6, regularizers=regs[i],
            )
            assert flatten(trained[i]).tobytes() == flatten(alone).tobytes()
            assert np.array([loss[i] for loss in losses]).tobytes() == (
                np.array(alone_losses).tobytes()
            )

    @pytest.mark.parametrize(
        "count, n, rho, d, h",
        [(15, 86, 4, 1, 8), (13, 86, 4, 6, 8), (9, 1000, 4, 1, 8),
         (1, 1290, 4, 1, 8), (4, 7, 12, 1, 8), (3, 86, 4, 1, 16),
         (5, 2, 1, 3, 4), (4, 1, 3, 1, 5), (6, 200, 4, 1, 1), (3, 90, 3, 2, 1)],
    )
    def test_kernel_matches_per_unit_oracle(self, count, n, rho, d, h):
        # several units (9 of 1,000 windows, 9,000 windows in one pass),
        # one unit, and hidden 1, whose window sums are np.add.reduce's
        # pairwise ones; the second call on one workspace must keep nothing
        # of the first
        rng = np.random.default_rng(count * 1000 + n)
        first, inputs, targets, regs = self._units(rng, count, n, rho, d, h)
        params = [init_params(h, rng, input_dim=d) for _ in first]
        x, y = gru._batches(params[0], inputs, targets)
        ws = gru._Workspace(*x.shape, h)
        terms = gru._penalty_terms(regs, params[0].size)
        for units in (first, params):
            loss, grad = gru._stack_loss_and_grad(
                ws, np.stack([p.vec for p in units]), x, y, terms
            )
        for i in range(count):
            want_loss, want_grad = bptt_oracle(params[i], inputs[i], targets[i], regs[i])
            assert np.float64(want_loss).tobytes() == loss[i].tobytes()
            assert want_grad.tobytes() == grad[i].tobytes()
            one_loss, one_grad = loss_and_grad(params[i], inputs[i], targets[i], regs[i])
            assert (one_loss, one_grad.tobytes()) == (want_loss, want_grad.tobytes())

    def test_final_loss_is_the_loss_of_loss_and_grad(self):
        # the last loss comes from the same loss-and-gradient kernel as every epoch's
        rng = np.random.default_rng(31)
        for d, coeffs in ((1, ()), (1, (0.5, 2.0)), (3, (1.5,))):
            p = init_params(4, rng, input_dim=d)
            x = rng.normal(size=(9, 5) if d == 1 else (9, 5, d))
            y = rng.normal(size=9)
            regs = tuple((init_params(4, rng, input_dim=d), c) for c in coeffs)
            out, losses = optimize(p, x, y, OptimState(lr=0.01), epochs=3, regularizers=regs)
            want, _ = loss_and_grad(out, x, y, regs)
            assert np.float64(losses[-1]).tobytes() == np.float64(want).tobytes()

    def test_epochs_zero_returns_inputs(self):
        rng = np.random.default_rng(32)
        params, inputs, targets, _ = self._units(rng, 3, 4, 2, 1, 3)
        trained, losses, failures = optimize_stack(
            params, inputs, targets, OptimState(), epochs=0
        )
        assert all(a is b for a, b in zip(trained, params))
        assert (losses, failures) == ([], {})
