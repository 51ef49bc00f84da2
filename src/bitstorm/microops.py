"""Micro-op expansion: turning layers into injectable elementary operations.

Operation-wise fault injection targets the outputs of individual arithmetic
operations.  A PReLU layer decomposes into two branches that are summed
last: relu(x) on one side and alpha * (0.5 * (x - |x|)) on the other, i.e.
one ReLU, one Abs, one Sub, a constant multiply by 0.5, a multiply by
alpha, and the final Add.  A plain ReLU layer is itself a single ReLU
operation.  Every other layer kind is kept as one opaque op whose interior
is not an injection site.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import F32, Layer, Model, PReLU, ReLU, forward_layer_batch, relu
from .errors import ValidationError

#: Micro-op kinds whose outputs can be selected for operation-wise injection.
INJECTABLE_KINDS = ("Add", "Sub", "Mul", "ReLU", "Abs", "ConstMul")

#: Sentinel operand index meaning "the layer's input tensor".
LAYER_INPUT = -1


@dataclass(frozen=True, eq=False)
class MicroOp:
    op_id: int  # unique within the model; doubles as the rng site id
    layer_index: int
    kind: str  # one of INJECTABLE_KINDS or "Opaque"
    inputs: tuple[int, ...]  # node positions within the layer, or LAYER_INPUT
    constant: float | None = None  # ConstMul factor
    alpha: np.ndarray | None = None  # Mul operand (PReLU slope)
    layer: Layer | None = None  # Opaque payload
    name: str = ""


@dataclass(eq=False)
class MicroOpModel:
    """A model expanded into per-layer micro-op sequences."""

    model: Model
    ops_by_layer: list[list[MicroOp]]

    def all_ops(self):
        for ops in self.ops_by_layer:
            yield from ops

    def kinds_present(self) -> set[str]:
        return {op.kind for op in self.all_ops()}

    def require_kinds(self, kinds) -> None:
        """Raise ValidationError unless every kind in `kinds` occurs in the model."""
        present = self.kinds_present()
        missing = sorted(set(kinds) - present)
        if missing:
            raise ValidationError(
                f"target op kinds {missing} do not occur in the model (present: {sorted(present - {'Opaque'})})"
            )

    def count_ops(self, kinds) -> int:
        """Number of micro-ops per inference whose kind is in `kinds`."""
        return sum(1 for op in self.all_ops() if op.kind in kinds)


def _prelu_ops(layer: PReLU, layer_index: int, next_id) -> list[MicroOp]:
    # Node positions within the layer: 0 relu, 1 abs, 2 sub, 3 const-mul,
    # 4 alpha-mul, 5 add.  The Add combines both branches last.
    return [
        MicroOp(next_id(), layer_index, "ReLU", (LAYER_INPUT,), name=f"{layer.name}/relu"),
        MicroOp(next_id(), layer_index, "Abs", (LAYER_INPUT,), name=f"{layer.name}/abs"),
        MicroOp(next_id(), layer_index, "Sub", (LAYER_INPUT, 1), name=f"{layer.name}/sub"),
        MicroOp(next_id(), layer_index, "ConstMul", (2,), constant=0.5, name=f"{layer.name}/mul_half"),
        MicroOp(next_id(), layer_index, "Mul", (3,), alpha=layer.alpha, name=f"{layer.name}/mul_alpha"),
        MicroOp(next_id(), layer_index, "Add", (0, 4), name=f"{layer.name}/add"),
    ]


def expand_prelu(model: Model) -> MicroOpModel:
    """Expand every PReLU layer into its micro-op dataflow.

    Evaluating the expansion is bit-identical to the unexpanded model: the
    micro-ops perform the same binary32 operations in the same order as
    `engine.prelu`.
    """
    ops_by_layer: list[list[MicroOp]] = []
    counter = iter(range(10**9))

    def next_id() -> int:
        return next(counter)

    for i, layer in enumerate(model.layers):
        if isinstance(layer, PReLU):
            ops_by_layer.append(_prelu_ops(layer, i, next_id))
        elif isinstance(layer, ReLU):
            ops_by_layer.append([MicroOp(next_id(), i, "ReLU", (LAYER_INPUT,), name=layer.name)])
        else:
            ops_by_layer.append(
                [MicroOp(next_id(), i, "Opaque", (LAYER_INPUT,), layer=layer, name=layer.name)]
            )
    return MicroOpModel(model=model, ops_by_layer=ops_by_layer)


@np.errstate(over="ignore", invalid="ignore", under="ignore", divide="ignore")
def _eval_op(op: MicroOp, values: list[np.ndarray], layer_input: np.ndarray) -> np.ndarray:
    def operand(ref: int) -> np.ndarray:
        return layer_input if ref == LAYER_INPUT else values[ref]

    if op.kind == "Opaque":
        return forward_layer_batch(op.layer, operand(op.inputs[0]))
    if op.kind == "ReLU":
        return relu(operand(op.inputs[0]))
    if op.kind == "Abs":
        return np.abs(operand(op.inputs[0]))
    if op.kind == "Sub":
        return operand(op.inputs[0]) - operand(op.inputs[1])
    if op.kind == "ConstMul":
        return F32(op.constant) * operand(op.inputs[0])
    if op.kind == "Mul":
        return np.asarray(op.alpha, dtype=F32) * operand(op.inputs[0])
    if op.kind == "Add":
        return operand(op.inputs[0]) + operand(op.inputs[1])
    raise ValidationError(f"unknown micro-op kind {op.kind}")


def run_microops_batch(expanded: MicroOpModel, x: np.ndarray, hook=None, start: int = 0) -> np.ndarray:
    """Evaluate the expanded model on a batch, from layer `start` on.

    `x` is the batch's input to layer `start` (the model input for 0).
    `hook(op, out)` is called with each micro-op's freshly computed output
    batch and must return the (possibly corrupted) tensor to hand to the
    op's consumers; this is the operation-wise injection point.
    """
    current = np.asarray(x, dtype=F32)
    want = expanded.model.input_shape_of(start)
    if current.shape[1:] != want:
        raise ValidationError(f"batch shape {current.shape[1:]} does not match the input {want} of layer {start}")
    for ops in expanded.ops_by_layer[start:]:
        values: list[np.ndarray] = []
        for op in ops:
            out = _eval_op(op, values, current)
            if hook is not None:
                out = hook(op, out)
            values.append(out)
        current = values[-1]
    return current
