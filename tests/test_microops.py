"""Micro-op expansion: structure counts and bit-exact evaluation fidelity."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_bits_equal
from strategies import random_models
from bitstorm.engine import Dense, Model, PReLU, ReLU, Softmax, forward_batch
from bitstorm.microops import expand_prelu, run_microops_batch
from bitstorm.toygen import _WeightSource

F = np.float32


def _prelu_model():
    source = _WeightSource(51)
    return Model(
        input_shape=(10,),
        layers=[
            Dense(weights=source.uniform((10, 8), -0.5, 0.5), bias=source.uniform((8,), -0.1, 0.1)),
            PReLU(alpha=source.uniform((8,), 0.05, 0.4)),
            Dense(weights=source.uniform((8, 4), -0.5, 0.5), bias=source.uniform((4,), -0.1, 0.1)),
            Softmax(),
        ],
    )


class TestExpansionStructure:
    def test_no_prelu_gives_one_op_per_layer(self, toy):
        model, _ = toy
        expanded = expand_prelu(model)
        assert [len(ops) for ops in expanded.ops_by_layer] == [1] * len(model.layers)

    def test_prelu_layer_becomes_six_ops(self):
        expanded = expand_prelu(_prelu_model())
        kinds = [op.kind for op in expanded.ops_by_layer[1]]
        assert sorted(kinds) == ["Abs", "Add", "ConstMul", "Mul", "ReLU", "Sub"]
        assert kinds[-1] == "Add"  # the branches are combined last

    def test_op_kinds_name_what_each_op_computes(self):
        model = _prelu_model()
        xs = _WeightSource(54).uniform((7, 10), -4.0, 4.0)
        x = forward_batch(model, xs, stop=1)  # the PReLU layer's input
        outs = {}

        def hook(op, out):
            if op.layer_index == 1:
                outs[op.kind] = out
            return out

        run_microops_batch(expand_prelu(model), xs, hook=hook)
        assert_bits_equal(outs["ReLU"], np.maximum(x, F(0)))
        assert_bits_equal(outs["Abs"], np.abs(x))
        assert_bits_equal(outs["Sub"], x - outs["Abs"])
        assert_bits_equal(outs["ConstMul"], F(0.5) * outs["Sub"])
        assert_bits_equal(outs["Mul"], model.layers[1].alpha * outs["ConstMul"])
        assert_bits_equal(outs["Add"], outs["ReLU"] + outs["Mul"])

    def test_prelu_counts_in_toy(self, toy_prelu):
        model, _ = toy_prelu
        expanded = expand_prelu(model)
        n_prelu = sum(1 for l in model.layers if l.kind == "PReLU")
        for kind in ("Add", "Sub", "Abs", "ConstMul", "Mul"):
            assert expanded.count_ops({kind}) == n_prelu
        assert expanded.count_ops({"ReLU"}) == n_prelu  # one ReLU inside each expansion

    def test_relu_layer_is_injectable_relu_op(self):
        model = Model(
            input_shape=(4,),
            layers=[ReLU(name="r"), Dense(weights=np.eye(4, dtype=F), bias=np.zeros(4, dtype=F))],
        )
        expanded = expand_prelu(model)
        assert expanded.ops_by_layer[0][0].kind == "ReLU"
        assert "ReLU" in expanded.kinds_present()

    def test_op_ids_unique_and_stable(self, toy_prelu):
        model, _ = toy_prelu
        a = [op.op_id for op in expand_prelu(model).all_ops()]
        b = [op.op_id for op in expand_prelu(model).all_ops()]
        assert a == b
        assert len(set(a)) == len(a)


class TestExpansionFidelity:
    @given(case=random_models(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_models_match_plain_forward(self, case, data):
        model, xs = case
        expanded = expand_prelu(model)
        ops = list(expanded.all_ops())
        assert [op.op_id for op in ops] == list(range(len(ops)))
        assert [op.layer_index for op in ops] == sorted(op.layer_index for op in ops)
        assert [len(layer_ops) for layer_ops in expanded.ops_by_layer] == [
            6 if layer.kind == "PReLU" else 1 for layer in model.layers]
        seen = []

        def hook(op, out):
            seen.append(op.op_id)
            return out

        plain = forward_batch(model, xs)
        assert_bits_equal(run_microops_batch(expanded, xs), plain)
        assert_bits_equal(run_microops_batch(expanded, xs, hook=hook), plain)
        assert seen == [op.op_id for op in ops]
        start = data.draw(st.integers(0, len(model.layers) - 1), label="start")
        middle = forward_batch(model, xs, stop=start)  # the input of layer `start`
        assert_bits_equal(run_microops_batch(expanded, middle, start=start), plain)

    def test_expanded_matches_plain_forward_bitexact(self, toy_prelu):
        model, dataset = toy_prelu
        expanded = expand_prelu(model)
        plain = forward_batch(model, dataset.samples)
        micro = run_microops_batch(expanded, dataset.samples)
        assert_bits_equal(plain, micro)

    def test_expanded_matches_on_random_inputs(self):
        model = _prelu_model()
        expanded = expand_prelu(model)
        source = _WeightSource(52)
        xs = source.uniform((200, 10), -4.0, 4.0)
        assert_bits_equal(forward_batch(model, xs), run_microops_batch(expanded, xs))

    def test_hook_sees_every_op_in_order(self):
        model = _prelu_model()
        expanded = expand_prelu(model)
        seen = []

        def hook(op, out):
            seen.append(op.op_id)
            return out

        run_microops_batch(expanded, np.zeros((2, 10), dtype=F), hook=hook)
        assert seen == [op.op_id for op in expanded.all_ops()]

    def test_hook_output_replaces_op_result(self):
        model = _prelu_model()
        expanded = expand_prelu(model)
        add_id = next(op.op_id for op in expanded.all_ops() if op.kind == "Add")

        def zero_add(op, out):
            if op.op_id == add_id:
                return np.zeros_like(out)
            return out

        source = _WeightSource(53)
        xs = source.uniform((5, 10), -4.0, 4.0)
        corrupted = run_microops_batch(expanded, xs, hook=zero_add)
        plain = run_microops_batch(expanded, xs)
        assert not np.array_equal(corrupted, plain)
