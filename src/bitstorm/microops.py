"""Micro-op expansion: the injection sites inside each layer.

Operation-wise fault injection targets the outputs of individual arithmetic
operations.  The engine computes a PReLU layer as the six ops of
`engine.PRELU_OPS` (ReLU, Abs, Sub, a constant multiply by 0.5, a multiply
by alpha, and the final Add); a plain ReLU layer is itself a single ReLU
op.  Every other layer kind is one opaque op whose interior is not an
injection site.  The expansion only names these ops: evaluating it runs
the engine's own kernels, whose hooks hand each op's output to the
injector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import F32, PRELU_OPS, Model, PReLU, ReLU, forward_layer_batch
from .errors import ValidationError

#: Micro-op kinds whose outputs can be selected for operation-wise injection.
INJECTABLE_KINDS = ("Add", "Sub", "Mul", "ReLU", "Abs", "ConstMul")


@dataclass(frozen=True, eq=False)
class MicroOp:
    op_id: int  # unique within the model; doubles as the rng site id
    layer_index: int
    kind: str  # one of INJECTABLE_KINDS or "Opaque"


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


def expand_prelu(model: Model) -> MicroOpModel:
    """Name the ops of every layer, in execution order.

    Op ids count up over the layers and, within a PReLU layer, follow
    `engine.PRELU_OPS`; they are the rng site ids of operation-wise
    injection.
    """
    ops_by_layer: list[list[MicroOp]] = []
    next_id = 0
    for i, layer in enumerate(model.layers):
        if isinstance(layer, PReLU):
            kinds = PRELU_OPS
        elif isinstance(layer, ReLU):
            kinds = ("ReLU",)
        else:
            kinds = ("Opaque",)
        ops_by_layer.append([MicroOp(next_id + k, i, kind) for k, kind in enumerate(kinds)])
        next_id += len(kinds)
    return MicroOpModel(model=model, ops_by_layer=ops_by_layer)


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
    for layer, ops in zip(expanded.model.layers[start:], expanded.ops_by_layer[start:]):
        op_hook = None if hook is None else lambda i, out, ops=ops: hook(ops[i], out)
        current = forward_layer_batch(layer, current, op_hook)
    return current
