import gc
import math

import numpy as np
import pytest

from ctxda import tensor as T
from ctxda.tensor import (
    DimensionError,
    GraphError,
    Parameter,
    Tensor2D,
    backward,
    finite_difference_grad,
)
from gradcheck import max_gradient_error


class TestTensor2D:
    def test_column_promotion_and_values(self):
        t = Tensor2D([1.0, 2.0, 3.0])
        assert t.shape == (3, 1)
        assert t.rows == 3 and t.cols == 1
        assert t.values.tolist() == [1.0, 2.0, 3.0]

    def test_row_major_values(self):
        t = Tensor2D([[1.0, 2.0], [3.0, 4.0]])
        assert t.values.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Tensor2D(np.zeros((0, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Tensor2D([[1.0, np.nan]])
        with pytest.raises(ValueError):
            Tensor2D([[np.inf]])

    def test_parameter_grad_matches_shape_and_resets(self):
        p = Parameter(np.ones((2, 3)), name="w")
        assert p.grad.shape == p.data.shape
        p.grad += 5.0
        p.zero_grad()
        assert np.all(p.grad == 0.0)


class TestMatmul:
    def test_identity(self):
        out = T.matmul(Tensor2D(np.eye(2)), Tensor2D([[3.0], [4.0]]))
        assert out.data.tolist() == [[3.0], [4.0]]

    def test_zero(self):
        out = T.matmul(Tensor2D([[1.0, 2.0], [3.0, 4.0]]), Tensor2D([[0.0], [0.0]]))
        assert out.data.tolist() == [[0.0], [0.0]]

    def test_hand_product(self):
        out = T.matmul(Tensor2D([[1.0, 2.0], [3.0, 4.0]]), Tensor2D([[5.0], [6.0]]))
        # 1*5 + 2*6 = 17; 3*5 + 4*6 = 39
        assert out.data.tolist() == [[17.0], [39.0]]

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 2\).*\(3, 1\)"):
            T.matmul(Tensor2D(np.eye(2)), Tensor2D(np.zeros((3, 1))))

    def test_associativity_on_random_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = Tensor2D(rng.uniform(-1, 1, (4, 3)))
            b = Tensor2D(rng.uniform(-1, 1, (3, 5)))
            c = Tensor2D(rng.uniform(-1, 1, (5, 2)))
            left = T.matmul(T.matmul(a, b), c).data
            right = T.matmul(a, T.matmul(b, c)).data
            assert np.allclose(left, right, rtol=1e-9, atol=1e-12)


class TestSoftmax:
    def test_identical_scores_uniform(self):
        out = T.softmax(Tensor2D([0.0] * 5))
        assert np.allclose(out.data.ravel(), 0.2, atol=1e-12)

    def test_analytic_two_entry(self):
        out = T.softmax(Tensor2D([0.0, math.log(2.0)]))
        assert np.allclose(out.data.ravel(), [1 / 3, 2 / 3], atol=1e-12)

    def test_shift_invariance_large_inputs(self):
        big = T.softmax(Tensor2D([1000.0, 1001.0])).data
        small = T.softmax(Tensor2D([0.0, 1.0])).data
        assert np.isfinite(big).all()
        assert np.allclose(big, small, atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            out = T.softmax(Tensor2D(rng.uniform(-50, 50, rng.integers(1, 9))))
            assert abs(out.data.sum() - 1.0) < 1e-9
            assert (out.data > 0).all()

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            T.softmax(Tensor2D(np.zeros((2, 2))))


class TestElementwise:
    def test_tanh_zero(self):
        assert T.tanh_map(Tensor2D([[0.0]])).item() == 0.0

    def test_sigmoid_zero(self):
        assert T.sigmoid_map(Tensor2D([[0.0]])).item() == 0.5

    def test_tanh_one_reference_value(self):
        assert T.tanh_map(Tensor2D([[1.0]])).item() == pytest.approx(
            0.7615941559557649, abs=1e-15
        )

    def test_ranges(self):
        # float64 tanh saturates to exactly +-1 beyond |x| ~ 19, sigmoid to
        # 0/1 beyond |x| ~ 36; the open-interval claim holds on the
        # representable range.
        x = Tensor2D(np.linspace(-18, 18, 101))
        th = T.tanh_map(x).data
        sg = T.sigmoid_map(x).data
        assert ((th > -1) & (th < 1)).all()
        assert ((sg > 0) & (sg < 1)).all()

    def test_sigmoid_no_overflow_for_large_negative(self):
        out = T.sigmoid_map(Tensor2D([[-1e4], [1e4]]))
        assert np.isfinite(out.data).all()


class TestBackward:
    def test_linear_case_grad_is_input(self):
        # loss = sum(W @ x), x = [1, 1]^T  ->  dloss/dW is all-ones rows
        w = Parameter(np.array([[0.3, -0.2], [1.5, 0.4]]))
        x = Tensor2D([[1.0], [1.0]])
        backward(T.sum_all(T.matmul(w, x)))
        assert w.grad.tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_symmetric_minimum_grad_zero(self):
        w = Parameter([[0.0]])
        t = T.tanh_map(w)
        backward(T.sum_all(T.hadamard(t, t)))
        assert w.grad[0, 0] == 0.0

    def test_random_small_graph_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        params = [Parameter(rng.uniform(-1, 1, (1, 1)), name=f"p{i}") for i in range(5)]

        def loss():
            a = T.hadamard(T.tanh_map(params[0]), params[1])
            b = T.add(T.sigmoid_map(params[2]), T.hadamard(params[3], params[4]))
            return T.sum_all(T.hadamard(a, b))

        assert max_gradient_error(loss, params) < 1e-6

    def test_repeated_backward_accumulates_exactly(self):
        w = Parameter([[2.0]])

        def build():
            return T.sum_all(T.hadamard(w, w))

        root = build()
        backward(root)
        once = w.grad.copy()
        backward(root)
        assert np.allclose(w.grad, 2 * once)

    def test_backward_requires_scalar(self):
        w = Parameter(np.ones((2, 1)))
        with pytest.raises(GraphError):
            backward(T.tanh_map(w))

    def test_backward_before_any_op_raises(self):
        with pytest.raises(GraphError):
            backward(Parameter([[1.0]]))

    def test_reused_node_in_graph(self):
        # y = w*w uses w twice through one intermediate: d(w^4)/dw = 4 w^3
        w = Parameter([[3.0]])
        y = T.hadamard(w, w)
        z = T.hadamard(y, y)
        backward(T.sum_all(z))
        assert w.grad[0, 0] == pytest.approx(4 * 3.0**3)


class TestOpGradients:
    """Every differentiable op against central finite differences."""

    @pytest.mark.parametrize(
        "name,build",
        [
            ("matmul", lambda p: T.sum_all(T.matmul(p[0], p[1]))),
            ("add", lambda p: T.sum_all(T.add(p[0], p[0]))),
            ("hadamard", lambda p: T.sum_all(T.hadamard(p[0], p[1]))),
            ("scale", lambda p: T.sum_all(T.scale(p[0], -1.7))),
            ("tanh", lambda p: T.sum_all(T.tanh_map(p[0]))),
            ("sigmoid", lambda p: T.sum_all(T.sigmoid_map(p[0]))),
            ("transpose", lambda p: T.sum_all(T.matmul(T.transpose(p[0]), p[2]))),
            ("hstack", lambda p: T.sum_all(T.tanh_map(T.hstack([p[0], p[1]])))),
            ("vstack", lambda p: T.sum_all(T.sigmoid_map(T.vstack([p[0], p[1]])))),
            ("pick", lambda p: T.pick(T.hadamard(p[0], p[1]), 1, 2)),
            ("mean_columns", lambda p: T.sum_all(T.mean_columns(T.tanh_map(p[0])))),
        ],
    )
    def test_op_gradcheck(self, name, build):
        rng = np.random.default_rng(hash(name) % 2**32)
        params = [
            Parameter(rng.uniform(-1, 1, (3, 4)), name="a"),
            Parameter(rng.uniform(-1, 1, (3, 4)), name="b"),
            Parameter(rng.uniform(-1, 1, (3, 4)), name="c"),
        ]
        if name == "matmul":
            params[1] = Parameter(rng.uniform(-1, 1, (4, 2)), name="b")
        assert max_gradient_error(lambda: build(params), params) < 1e-4

    def test_softmax_gradcheck(self):
        rng = np.random.default_rng(5)
        p = Parameter(rng.uniform(-1, 1, (6, 1)), name="scores")
        weights = Tensor2D(rng.uniform(-1, 1, (6, 1)))

        def loss():
            return T.sum_all(T.hadamard(T.softmax(p), weights))

        assert max_gradient_error(loss, [p]) < 1e-4

    def test_neg_log_gradcheck(self):
        p = Parameter([[0.3], [0.9]], name="probs")

        def loss():
            return T.sum_all(T.neg_log(p))

        assert max_gradient_error(loss, [p]) < 1e-4

    def test_neg_log_floor_blocks_gradient(self):
        p = Parameter([[0.0]])
        out = T.neg_log(p)
        backward(T.sum_all(out))
        assert out.item() == pytest.approx(-math.log(1e-12))
        assert p.grad[0, 0] == 0.0


class TestColumnOps:
    """The column-wise ops a batch of examples (one per column) runs on."""

    def test_add_bias_broadcasts_over_columns(self):
        out = T.add_bias(Tensor2D([[1.0, 2.0], [3.0, 4.0]]), Tensor2D([[10.0], [20.0]]))
        assert out.data.tolist() == [[11.0, 12.0], [23.0, 24.0]]

    def test_add_bias_rejects_non_column_bias(self):
        with pytest.raises(DimensionError):
            T.add_bias(Tensor2D(np.zeros((2, 3))), Tensor2D(np.zeros((2, 3))))

    def test_add_bias_backward_sums_columns(self):
        t = Parameter(np.zeros((2, 3)))
        b = Parameter(np.zeros((2, 1)))
        backward(T.sum_all(T.add_bias(t, b)))
        assert b.grad.tolist() == [[3.0], [3.0]]
        assert np.all(t.grad == 1.0)

    def test_softmax_columns_each_column_is_its_own_softmax(self):
        rng = np.random.default_rng(22)
        x = rng.uniform(-5, 5, (4, 6))
        out = T.softmax_columns(Tensor2D(x)).data
        for j in range(6):
            e = np.exp(x[:, j] - x[:, j].max())
            assert np.allclose(out[:, j], e / e.sum(), rtol=0, atol=1e-15)

    def test_softmax_columns_mask_renormalises_kept_entries(self):
        rng = np.random.default_rng(23)
        x = rng.uniform(-5, 5, (5, 3))
        keep = np.array([[False, True, False], [True, True, False], [True, True, False],
                         [False, True, False], [True, True, True]])
        out = T.softmax_columns(Tensor2D(x), keep).data
        assert np.all(out[~keep] == 0.0)
        for j in range(3):
            e = np.exp(x[keep[:, j], j] - x[keep[:, j], j].max())
            assert np.allclose(out[keep[:, j], j], e / e.sum(), rtol=0, atol=1e-15)

    def test_softmax_columns_rejects_empty_column(self):
        keep = np.array([[True, False], [True, False]])
        with pytest.raises(ValueError):
            T.softmax_columns(Tensor2D(np.zeros((2, 2))), keep)

    def test_weighted_sum_hand_values(self):
        parts = [Tensor2D([[1.0, 2.0]]), Tensor2D([[10.0, 20.0]])]
        weights = Tensor2D([[0.5, 0.0], [0.25, 1.0]])
        # column 0: 0.5*1 + 0.25*10; column 1: 0*2 + 1*20
        assert T.weighted_sum(parts, weights).data.tolist() == [[3.0, 20.0]]

    def test_reshape_is_row_major(self):
        out = T.reshape(Tensor2D([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]), 2, 3)
        assert out.data.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        with pytest.raises(DimensionError):
            T.reshape(out, 4, 2)

    def test_mean_neg_log_gather_hand_values(self):
        probs = Tensor2D([[0.5, 0.25], [0.5, 0.75]])
        out = T.mean_neg_log_gather(probs, [0, 1])
        assert out.item() == pytest.approx((math.log(2.0) + math.log(4.0 / 3.0)) / 2, abs=1e-15)
        with pytest.raises(ValueError):
            T.mean_neg_log_gather(probs, [0, 2])
        with pytest.raises(DimensionError):
            T.mean_neg_log_gather(probs, [0])

    def test_mean_neg_log_gather_on_one_column_equals_neg_log_pick(self):
        p = Parameter([[0.2], [0.7], [0.1]])
        q = Parameter(p.data)
        gathered = T.mean_neg_log_gather(p, [1])
        picked = T.neg_log(T.pick(q, 1, 0))
        backward(gathered)
        backward(picked)
        assert gathered.item() == picked.item()
        assert np.array_equal(p.grad, q.grad)

    def test_mean_neg_log_gather_floor_blocks_gradient(self):
        p = Parameter([[0.0, 0.5], [1.0, 0.5]])
        backward(T.mean_neg_log_gather(p, [0, 0]))
        assert p.grad[0, 0] == 0.0
        assert p.grad[0, 1] == pytest.approx(-1.0 / (2 * 0.5))


class TestColumnOpGradients:
    """Every column-wise op against central finite differences."""

    def test_add_bias_gradcheck(self):
        rng = np.random.default_rng(31)
        t = Parameter(rng.uniform(-1, 1, (3, 4)), name="t")
        b = Parameter(rng.uniform(-1, 1, (3, 1)), name="b")
        w = Tensor2D(rng.uniform(-1, 1, (3, 4)))

        def loss():
            return T.sum_all(T.hadamard(T.tanh_map(T.add_bias(t, b)), w))

        assert max_gradient_error(loss, [t, b]) < 1e-4

    @pytest.mark.parametrize("masked", [False, True])
    def test_softmax_columns_gradcheck(self, masked):
        rng = np.random.default_rng(32)
        p = Parameter(rng.uniform(-1, 1, (5, 3)), name="scores")
        weights = Tensor2D(rng.uniform(-1, 1, (5, 3)))
        keep = rng.random((5, 3)) < 0.6 if masked else None
        if masked:
            keep[-1] = True

        def loss():
            return T.sum_all(T.hadamard(T.softmax_columns(p, keep), weights))

        assert max_gradient_error(loss, [p]) < 1e-4

    def test_weighted_sum_gradcheck(self):
        rng = np.random.default_rng(33)
        parts = [Parameter(rng.uniform(-1, 1, (3, 4)), name=f"s{k}") for k in range(3)]
        weights = Parameter(rng.uniform(-1, 1, (3, 4)), name="w")
        probe = Tensor2D(rng.uniform(-1, 1, (3, 4)))

        def loss():
            return T.sum_all(T.hadamard(T.tanh_map(T.weighted_sum(parts, weights)), probe))

        assert max_gradient_error(loss, parts + [weights]) < 1e-4

    def test_reshape_gradcheck(self):
        rng = np.random.default_rng(34)
        p = Parameter(rng.uniform(-1, 1, (1, 6)), name="row")
        probe = Tensor2D(rng.uniform(-1, 1, (2, 3)))

        def loss():
            return T.sum_all(T.hadamard(T.tanh_map(T.reshape(p, 2, 3)), probe))

        assert max_gradient_error(loss, [p]) < 1e-4

    def test_mean_neg_log_gather_gradcheck(self):
        rng = np.random.default_rng(35)
        p = Parameter(rng.uniform(-1, 1, (4, 3)), name="logits")

        def loss():
            return T.mean_neg_log_gather(T.softmax_columns(p), [2, 0, 3])

        assert max_gradient_error(loss, [p]) < 1e-4


class TestGraphLifetime:
    def test_dropped_graph_leaves_no_cycle_garbage(self):
        # a graph freed by reference counting leaves nothing for the cyclic
        # collector; DEBUG_SAVEALL keeps whatever the collector does find
        rng = np.random.default_rng(41)
        w = Parameter(rng.uniform(-1, 1, (3, 3)), name="w")
        b = Parameter(rng.uniform(-1, 1, (3, 1)), name="b")
        x = Tensor2D(rng.uniform(-1, 1, (3, 4)))
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            hidden = T.tanh_map(T.add_bias(T.matmul(w, x), b))
            scores = T.reshape(T.matmul(T.transpose(b), T.hstack([hidden, x])), 2, 4)
            mixed = T.weighted_sum([hidden, x], T.softmax_columns(scores))
            loss = T.mean_neg_log_gather(T.softmax_columns(mixed), [0, 1, 2, 0])
            backward(loss)
            del hidden, scores, mixed, loss
            gc.collect()
            leaked = [o for o in gc.garbage if isinstance(o, Tensor2D)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []


class TestFiniteDifference:
    def test_quadratic(self):
        grad = finite_difference_grad(lambda t: t.item() ** 2, Tensor2D([[3.0]]), h=1e-5)
        assert abs(grad[0, 0] - 6.0) < 1e-8

    def test_constant(self):
        grad = finite_difference_grad(lambda t: 42.0, Tensor2D(np.ones((2, 2))), h=1e-5)
        assert np.all(grad == 0.0)

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ValueError):
            finite_difference_grad(lambda t: 0.0, Tensor2D([[1.0]]), h=0.0)
