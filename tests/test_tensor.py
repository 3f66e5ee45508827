import base64
import gc
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ctxda import tensor as T
from ctxda.optim import Adam, cross_entropy
from ctxda.tensor import (
    DimensionError,
    GraphError,
    Parameter,
    Tensor2D,
    backward,
)
from faults import fill_disk, refuse_replace
from gradcheck import finite_difference_grad, max_gradient_error
from reference_ops import (
    add,
    hadamard,
    hstack,
    masked_softmax_columns,
    mean_columns,
    neg_log,
    pick,
    reshape,
    scale,
    sigmoid_map,
    sum_all,
    tanh_map,
    transpose,
    vstack,
    weighted_sum,
)


class TestTensor2D:
    def test_column_promotion_and_values(self):
        t = Tensor2D([1.0, 2.0, 3.0])
        assert t.shape == (3, 1)
        assert t.rows == 3 and t.cols == 1
        assert t.data.ravel().tolist() == [1.0, 2.0, 3.0]

    def test_row_major_values(self):
        t = Tensor2D([[1.0, 2.0], [3.0, 4.0]])
        assert t.data.ravel().tolist() == [1.0, 2.0, 3.0, 4.0]

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
        Adam([p]).zero_grad()
        assert np.all(p.grad == 0.0)

    def test_only_a_parameter_starts_with_a_gradient(self):
        x = Tensor2D([[1.0, 2.0]])
        w = Parameter([[3.0], [4.0]])
        y = T.matmul(x, w)
        assert x.grad is None and y.grad is None
        assert w.grad.tolist() == [[0.0], [0.0]]
        assert not hasattr(Tensor2D, "zero_grad")


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
        out = T.softmax_columns(Tensor2D([0.0] * 5))
        assert np.allclose(out.data.ravel(), 0.2, atol=1e-12)

    def test_analytic_two_entry(self):
        out = T.softmax_columns(Tensor2D([0.0, math.log(2.0)]))
        assert np.allclose(out.data.ravel(), [1 / 3, 2 / 3], atol=1e-12)

    def test_shift_invariance_large_inputs(self):
        big = T.softmax_columns(Tensor2D([1000.0, 1001.0])).data
        small = T.softmax_columns(Tensor2D([0.0, 1.0])).data
        assert np.isfinite(big).all()
        assert np.allclose(big, small, atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            out = T.softmax_columns(Tensor2D(rng.uniform(-50, 50, rng.integers(1, 9))))
            assert abs(out.data.sum() - 1.0) < 1e-9
            assert (out.data > 0).all()


class TestElementwise:
    def test_tanh_zero(self):
        assert tanh_map(Tensor2D([[0.0]])).item() == 0.0

    def test_sigmoid_zero(self):
        assert sigmoid_map(Tensor2D([[0.0]])).item() == 0.5

    def test_tanh_one_reference_value(self):
        assert tanh_map(Tensor2D([[1.0]])).item() == pytest.approx(
            0.7615941559557649, abs=1e-15
        )

    def test_ranges(self):
        # float64 tanh saturates to exactly +-1 beyond |x| ~ 19, sigmoid to
        # 0/1 beyond |x| ~ 36; the open-interval claim holds on the
        # representable range.
        x = Tensor2D(np.linspace(-18, 18, 101))
        th = tanh_map(x).data
        sg = sigmoid_map(x).data
        assert ((th > -1) & (th < 1)).all()
        assert ((sg > 0) & (sg < 1)).all()

    def test_sigmoid_no_overflow_for_large_negative(self):
        out = sigmoid_map(Tensor2D([[-1e4], [1e4]]))
        assert np.isfinite(out.data).all()


class TestStack:
    def test_values_and_mismatches(self):
        a, b = Tensor2D([[1.0], [2.0]]), Tensor2D([[3.0, 4.0], [5.0, 6.0]])
        assert hstack([a, b]).data.tolist() == [[1.0, 3.0, 4.0], [2.0, 5.0, 6.0]]
        assert vstack([b, transpose(a)]).data.tolist() == [[3.0, 4.0], [5.0, 6.0],
                                                              [1.0, 2.0]]
        with pytest.raises(DimensionError):
            hstack([a, Tensor2D([[1.0]])])
        with pytest.raises(DimensionError):
            vstack([a, b])
        with pytest.raises(ValueError):
            hstack([])


class TestBackward:
    def test_linear_case_grad_is_input(self):
        # loss = sum(W @ x), x = [1, 1]^T  ->  dloss/dW is all-ones rows
        w = Parameter(np.array([[0.3, -0.2], [1.5, 0.4]]))
        x = Tensor2D([[1.0], [1.0]])
        backward(sum_all(T.matmul(w, x)))
        assert w.grad.tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_symmetric_minimum_grad_zero(self):
        w = Parameter([[0.0]])
        t = tanh_map(w)
        backward(sum_all(hadamard(t, t)))
        assert w.grad[0, 0] == 0.0

    def test_random_small_graph_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        params = [Parameter(rng.uniform(-1, 1, (1, 1)), name=f"p{i}") for i in range(5)]

        def loss():
            a = hadamard(tanh_map(params[0]), params[1])
            b = add(sigmoid_map(params[2]), hadamard(params[3], params[4]))
            return sum_all(hadamard(a, b))

        assert max_gradient_error(loss, params) < 1e-6

    def test_repeated_backward_accumulates_exactly(self):
        w = Parameter([[2.0]])

        def build():
            return sum_all(hadamard(w, w))

        root = build()
        backward(root)
        once = w.grad.copy()
        backward(root)
        assert np.allclose(w.grad, 2 * once)

    def test_backward_requires_scalar(self):
        w = Parameter(np.ones((2, 1)))
        with pytest.raises(GraphError):
            backward(tanh_map(w))

    def test_backward_before_any_op_raises(self):
        with pytest.raises(GraphError):
            backward(Parameter([[1.0]]))

    def test_reused_node_in_graph(self):
        # y = w*w uses w twice through one intermediate: d(w^4)/dw = 4 w^3
        w = Parameter([[3.0]])
        y = hadamard(w, w)
        z = hadamard(y, y)
        backward(sum_all(z))
        assert w.grad[0, 0] == pytest.approx(4 * 3.0**3)


class TestOpGradients:
    """Every differentiable op against central finite differences."""

    @pytest.mark.parametrize(
        "name,build",
        [
            ("matmul", lambda p: sum_all(T.matmul(p[0], p[1]))),
            ("add", lambda p: sum_all(add(p[0], p[0]))),
            ("hadamard", lambda p: sum_all(hadamard(p[0], p[1]))),
            ("scale", lambda p: sum_all(scale(p[0], -1.7))),
            ("tanh", lambda p: sum_all(tanh_map(p[0]))),
            ("sigmoid", lambda p: sum_all(sigmoid_map(p[0]))),
            ("transpose", lambda p: sum_all(T.matmul(transpose(p[0]), p[2]))),
            ("hstack", lambda p: sum_all(tanh_map(hstack([p[0], p[1]])))),
            ("vstack", lambda p: sum_all(sigmoid_map(vstack([p[0], p[1]])))),
            ("pick", lambda p: pick(hadamard(p[0], p[1]), 1, 2)),
            ("mean_columns", lambda p: sum_all(mean_columns(tanh_map(p[0])))),
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
            return sum_all(hadamard(T.softmax_columns(p), weights))

        assert max_gradient_error(loss, [p]) < 1e-4

    def test_neg_log_gradcheck(self):
        p = Parameter([[0.3], [0.9]], name="probs")

        def loss():
            return sum_all(neg_log(p))

        assert max_gradient_error(loss, [p]) < 1e-4

    def test_neg_log_floor_blocks_gradient(self):
        p = Parameter([[0.0]])
        out = neg_log(p)
        backward(sum_all(out))
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
        backward(sum_all(T.add_bias(t, b)))
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
        out = masked_softmax_columns(Tensor2D(x), keep).data
        assert np.all(out[~keep] == 0.0)
        for j in range(3):
            e = np.exp(x[keep[:, j], j] - x[keep[:, j], j].max())
            assert np.allclose(out[keep[:, j], j], e / e.sum(), rtol=0, atol=1e-15)

    def test_softmax_columns_rejects_empty_column(self):
        keep = np.array([[True, False], [True, False]])
        with pytest.raises(ValueError):
            masked_softmax_columns(Tensor2D(np.zeros((2, 2))), keep)

    def test_weighted_sum_hand_values(self):
        parts = Tensor2D([[1.0, 2.0, 10.0, 20.0]])  # two blocks of two columns
        weights = Tensor2D([[0.5, 0.0], [0.25, 1.0]])
        # column 0: 0.5*1 + 0.25*10; column 1: 0*2 + 1*20
        assert weighted_sum(parts, weights).data.tolist() == [[3.0, 20.0]]
        with pytest.raises(DimensionError):
            weighted_sum(Tensor2D([[1.0, 2.0, 10.0]]), weights)

    def test_reshape_is_row_major(self):
        out = reshape(Tensor2D([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]), 2, 3)
        assert out.data.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        with pytest.raises(DimensionError):
            reshape(out, 4, 2)


class TestSoftmaxProperties:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), masked=st.booleans())
    def test_property_finite_simplex_columns(self, data, masked):
        rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
        entries = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
        x = data.draw(arrays(np.float64, (rows, cols), elements=entries))
        keep = None
        if masked:
            keep = data.draw(arrays(np.bool_, (rows, cols)))
            keep[data.draw(st.lists(st.integers(0, rows - 1), min_size=cols, max_size=cols)),
                 np.arange(cols)] = True  # every column keeps an entry
        y = masked_softmax_columns(Tensor2D(x), keep).data
        assert np.isfinite(y).all() and y.min() >= 0.0
        assert np.abs(y.sum(axis=0) - 1.0).max() <= 1e-12
        if masked:
            assert np.all(y[~keep] == 0.0)


class TestColumnOpGradients:
    """Every column-wise op against central finite differences."""

    def test_add_bias_gradcheck(self):
        rng = np.random.default_rng(31)
        t = Parameter(rng.uniform(-1, 1, (3, 4)), name="t")
        b = Parameter(rng.uniform(-1, 1, (3, 1)), name="b")
        w = Tensor2D(rng.uniform(-1, 1, (3, 4)))

        def loss():
            return sum_all(hadamard(tanh_map(T.add_bias(t, b)), w))

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
            return sum_all(hadamard(masked_softmax_columns(p, keep), weights))

        assert max_gradient_error(loss, [p]) < 1e-4

    def test_weighted_sum_gradcheck(self):
        rng = np.random.default_rng(33)
        parts = Parameter(rng.uniform(-1, 1, (3, 12)), name="s")  # three blocks of four
        weights = Parameter(rng.uniform(-1, 1, (3, 4)), name="w")
        probe = Tensor2D(rng.uniform(-1, 1, (3, 4)))

        def loss():
            return sum_all(hadamard(tanh_map(weighted_sum(parts, weights)), probe))

        assert max_gradient_error(loss, [parts, weights]) < 1e-4

    def test_reshape_gradcheck(self):
        rng = np.random.default_rng(34)
        p = Parameter(rng.uniform(-1, 1, (1, 6)), name="row")
        probe = Tensor2D(rng.uniform(-1, 1, (2, 3)))

        def loss():
            return sum_all(hadamard(tanh_map(reshape(p, 2, 3)), probe))

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
            hidden = tanh_map(T.add_bias(T.matmul(w, x), b))
            stacked = hstack([hidden, x])
            scores = reshape(T.matmul(transpose(b), stacked), 2, 4)
            mixed = weighted_sum(stacked, T.softmax_columns(scores))
            loss = cross_entropy(T.softmax_columns(mixed), [0, 1, 2, 0])
            backward(loss)
            del hidden, stacked, scores, mixed, loss
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


def through_file(obj, object_hook=None):
    """``obj`` as ``write_json_file`` writes it and ``json.load`` reads it back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        T.write_json_file(path, obj)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_hook=object_hook)


class TestParameterRegistry:
    def registry(self, rng=None):
        return T.init_params(rng, {"w": (3, 2), "b": 3, "v": (1, 4)}, prefix="x.")

    def test_build_order_names_and_draws(self):
        params = self.registry(np.random.default_rng(0))
        assert list(params) == ["w", "b", "v"]
        assert [p.name for p in params.values()] == ["x.w", "x.b", "x.v"]
        assert np.all(params["b"].data == 0.0) and params["b"].shape == (3, 1)
        # biases draw nothing: the matrices are consecutive Glorot draws
        rng, s = np.random.default_rng(0), math.sqrt(6.0 / 5.0)
        assert np.array_equal(params["w"].data, rng.uniform(-s, s, (3, 2)))
        assert np.array_equal(params["v"].data, rng.uniform(-s, s, (1, 4)))
        assert all(np.all(p.data == 0.0) for p in self.registry().values())

    def test_json_round_trip_is_bitwise(self):
        self.check_json_round_trip_is_bitwise(f64le=False)

    def test_f64le_json_round_trip_is_bitwise(self):
        self.check_json_round_trip_is_bitwise(f64le=True)

    def check_json_round_trip_is_bitwise(self, f64le):
        params = self.registry(np.random.default_rng(1))
        params["b"].data[:] = [[1e-300], [-0.0], [1 / 3]]
        stored = T.params_to_json(params, f64le)
        assert all(entry.keys() == {"rows", "cols", "f64le" if f64le else "values"}
                   for entry in stored.values())
        for hook in (None, T.array_values):  # values as lists and as arrays
            loaded = self.registry()
            T.params_from_json(loaded, through_file(stored, hook))
            for name, p in params.items():
                assert loaded[name].data.tobytes() == p.data.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_property_json_round_trip_is_bitwise_also_into_adam_views(self, data):
        shapes = data.draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)),
                                    min_size=1, max_size=4))
        names = {f"p{i}": shape for i, shape in enumerate(shapes)}
        values = st.floats(allow_nan=False, allow_infinity=False)  # -0.0 and subnormals too
        params = {name: T.Parameter(data.draw(arrays(np.float64, shape, elements=values)))
                  for name, shape in names.items()}
        stored = through_file(T.params_to_json(params, data.draw(st.booleans())), T.array_values)
        plain, viewed = T.init_params(None, names), T.init_params(None, names)
        adam = Adam(list(viewed.values()))
        for loaded in (plain, viewed):
            T.params_from_json(loaded, stored)
            for name, p in params.items():
                assert loaded[name].data.tobytes() == p.data.tobytes()
        assert all(np.shares_memory(p.data, adam.data) for p in viewed.values())
        assert adam.data.tobytes() == b"".join(p.data.tobytes() for p in params.values())

    @pytest.mark.parametrize("corrupt", [
        lambda s: s.pop("b"),
        lambda s: s.update(extra=s["b"]),
        lambda s: s["w"].update(rows=2, values=s["w"]["values"][:4]),
        lambda s: s["w"].update(rows=1, cols=6),
        lambda s: s["v"]["values"].pop(),
        lambda s: s["b"]["values"].__setitem__(0, float("nan")),
        lambda s: s["b"]["values"].__setitem__(2, float("-inf")),
        lambda s: s["v"]["values"].__setitem__(0, "x"),
        lambda s: s["w"].pop("rows"),
    ])
    def test_bad_stored_entries_are_refused(self, corrupt):
        stored = through_file(T.params_to_json(self.registry(np.random.default_rng(2))))
        corrupt(stored)
        with pytest.raises(T.CheckpointError):
            T.params_from_json(self.registry(), stored)


    @staticmethod
    def f64le(values) -> str:
        return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")

    @pytest.mark.parametrize("corrupt", [
        lambda s: s["w"].update(f64le=s["w"]["f64le"][:-4]),  # truncated base64
        lambda s: s["w"].update(f64le=s["w"]["f64le"][:-1]),  # base64 without its padding
        lambda s: s["w"].update(f64le="*" + s["w"]["f64le"][1:]),  # not base64
        lambda s: s["v"].update(f64le=TestParameterRegistry.f64le([0.5] * 3)),  # short bytes
        lambda s: s["v"].update(f64le=TestParameterRegistry.f64le([0.5] * 5)),  # long bytes
        lambda s: s["v"].update(f64le=base64.b64encode(b"\0" * 31).decode()),  # not 8-byte floats
        lambda s: s["b"].update(f64le=TestParameterRegistry.f64le([0.5, float("nan"), 0.5])),
        lambda s: s["b"].update(f64le=TestParameterRegistry.f64le([float("inf"), 0.5, 0.5])),
        lambda s: s["b"].update(f64le=None),
        lambda s: s["b"].update(f64le=[0.5, 0.5, 0.5]),
    ])
    def test_bad_f64le_entries_are_refused(self, corrupt):
        stored = through_file(T.params_to_json(self.registry(np.random.default_rng(2)), True))
        corrupt(stored)
        with pytest.raises(T.CheckpointError):
            T.params_from_json(self.registry(), stored)

    @pytest.mark.parametrize("text", ["abc", "AAAAAAAAAAA", "*" + "A" * 31, None, ["AAAA"], 3])
    def test_text_that_is_not_base64_is_named_as_such(self, text):
        stored = through_file(T.params_to_json(self.registry(np.random.default_rng(2)), True))
        stored["w"]["f64le"] = text
        with pytest.raises(T.CheckpointError) as refused:
            T.params_from_json(self.registry(), stored)
        assert str(refused.value) == "parameter w: f64le is not valid base64"


JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=False, allow_infinity=False) | st.text())
# lengths around the writer's 1,024-entry slices; a long list repeats a few
# drawn entries, each a scalar or a small list or dict
SMALL_JSON = (JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3)
              | st.dictionaries(st.text(max_size=4), JSON_SCALARS, max_size=3))
LONG_LISTS = st.builds(lambda n, items: (items * n)[:n],
                       st.sampled_from([0, 1, 1023, 1024, 1025, 2049]),
                       st.lists(SMALL_JSON, min_size=1, max_size=4))
JSON_VALUES = st.recursive(
    JSON_SCALARS | LONG_LISTS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


class TestWriteJsonFile:
    @settings(max_examples=80, deadline=None)
    @given(obj=JSON_VALUES)
    def test_property_bytes_are_json_dumps(self, tmp_path_factory, obj):
        path = tmp_path_factory.mktemp("json") / "doc.json"
        T.write_json_file(path, obj)
        assert path.read_bytes() == (json.dumps(obj) + "\n").encode()
        assert [p.name for p in path.parent.iterdir()] == ["doc.json"]

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
    def test_slice_edges_and_end(self, tmp_path, n):
        obj = {"values": [i / 7 for i in range(n)], "ü": [{"k": [-0.0, 1e-300]}] * n}
        T.write_json_file(tmp_path / "doc.json", obj)
        assert (tmp_path / "doc.json").read_bytes() == (json.dumps(obj) + "\n").encode()

    @pytest.mark.parametrize("bad, error", [
        ({"w": {"values": [0.5] * 3000 + [float("nan")]}}, ValueError),
        ({"w": [float("-inf")]}, ValueError),
        ({"w": {1: "a"}}, TypeError),
    ])
    def test_refused_values_leave_the_old_file(self, tmp_path, bad, error):
        path = tmp_path / "doc.json"
        path.write_text("old")
        with pytest.raises(error):
            T.write_json_file(path, bad)
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]
        assert path.read_text() == "old"

    @pytest.mark.parametrize("existing", [False, True])
    def test_write_failing_halfway_leaves_nothing(self, tmp_path, monkeypatch, existing):
        obj = {"values": [i / 3 for i in range(5000)]}
        path = tmp_path / "doc.json"
        if existing:
            path.write_text("old")
        fill_disk(monkeypatch, budget=len(json.dumps(obj)) // 2)
        with pytest.raises(OSError, match="No space left"):
            T.write_json_file(path, obj)
        assert [p.name for p in tmp_path.iterdir()] == (["doc.json"] if existing else [])
        if existing:
            assert path.read_text() == "old"

    def test_refused_replace_removes_the_temporary_file(self, tmp_path, monkeypatch):
        refuse_replace(monkeypatch)
        with pytest.raises(PermissionError, match=r"^\[Errno 13\] Permission denied: '.*doc\.json'$"):
            T.write_json_file(tmp_path / "doc.json", {"a": [1.5] * 2000})
        assert list(tmp_path.iterdir()) == []
