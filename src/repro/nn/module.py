"""Base class for neural-network building blocks.

The framework uses explicit layer-wise backpropagation rather than a taped
autograd graph: each :class:`Module` caches what it needs during ``forward``
and implements ``backward(grad_output) -> grad_input``, accumulating parameter
gradients as a side effect.  This keeps every layer independently unit-testable
against numerical gradients.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.nn.parameter import Parameter, resolve_dtype


class Module:
    """A differentiable computation with optional trainable parameters."""

    #: Names of the attributes a layer caches between ``forward`` and
    #: ``backward``.  Listed so :meth:`capture_cache` / :meth:`restore_cache`
    #: can snapshot and restore a whole activation set (the trainer uses this
    #: to backprop two forwards' worth of activations without re-forwarding).
    _CACHE_ATTRS: tuple[str, ...] = ()

    #: Whether ``backward`` must return the gradient w.r.t. the input.  A
    #: network's owner clears it on the first layer when nothing reads the
    #: gradient w.r.t. the network input; :class:`Linear` then skips that
    #: product and returns ``None``.
    needs_input_grad: bool = True

    def __init__(self) -> None:
        self.training = True
        self.dtype: np.dtype = np.dtype(np.float64)
        self._parameters: list[Parameter] = []
        self._children: list[Module] = []
        self._buffers: dict[str, np.ndarray] = {}

    # -- construction ------------------------------------------------------

    def register_parameter(self, param: Parameter) -> Parameter:
        self._parameters.append(param)
        return param

    def register_buffer(self, name: str, value: np.ndarray) -> np.ndarray:
        """Track non-trainable state (e.g. batch-norm running statistics)
        so it is saved/restored by ``state_dict``."""
        self._buffers[name] = np.asarray(value, dtype=self.dtype)
        return self._buffers[name]

    def register_child(self, module: "Module") -> "Module":
        self._children.append(module)
        return module

    # -- computation -------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- parameter access --------------------------------------------------

    def parameters(self) -> Iterator[Parameter]:
        """Yield this module's parameters, then every child's, recursively."""
        yield from self._parameters
        for child in self._children:
            yield from child.parameters()

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- dtype policy ------------------------------------------------------

    def to(self, dtype: str | np.dtype) -> "Module":
        """Cast the whole module tree (parameters, buffers, future
        activations) to ``dtype`` ("float32" or "float64").

        float64 is the default and keeps bit-stable parity with the seed
        implementation; float32 trains about 1.7x faster on CPU (measured
        in ``benchmarks/results/train_scale.txt``).
        Pending forward caches are dropped, so call this before ``forward``,
        not between a forward and its backward.
        """
        resolved = resolve_dtype(dtype)
        for module in self._modules_recursive():
            module._apply_dtype(resolved)
        return self

    def _apply_dtype(self, dtype: np.dtype) -> None:
        """Cast this module's own state (not children); override to rebind
        aliases into ``_buffers`` after the cast."""
        self.dtype = dtype
        for p in self._parameters:
            p.to(dtype)
        for name, value in self._buffers.items():
            self._buffers[name] = value.astype(dtype)
        for attr in self._CACHE_ATTRS:
            setattr(self, attr, None)

    # -- activation-cache slots --------------------------------------------

    def capture_cache(self) -> list[dict[str, object]]:
        """Snapshot every layer's forward cache so a later ``restore_cache``
        can backprop through an earlier forward.

        Layers rebind (never mutate) their cached arrays on each forward, so
        a shallow per-module snapshot is enough.  This is what lets the CIB
        training step do 2 forwards + 2 backwards instead of re-forwarding
        the first view a third time.
        """
        return [
            {attr: getattr(module, attr) for attr in module._CACHE_ATTRS}
            for module in self._modules_recursive()
        ]

    def restore_cache(self, snapshot: list[dict[str, object]]) -> None:
        """Restore a :meth:`capture_cache` snapshot taken on this module."""
        modules = self._modules_recursive()
        if len(snapshot) != len(modules):
            raise ValueError(
                f"cache snapshot has {len(snapshot)} entries, module tree "
                f"has {len(modules)}"
            )
        for module, entry in zip(modules, snapshot):
            for attr, value in entry.items():
                setattr(module, attr, value)

    # -- mode switching ----------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self._children:
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- (de)serialization -------------------------------------------------

    def _modules_recursive(self) -> list["Module"]:
        out = [self]
        for child in self._children:
            out.extend(child._modules_recursive())
        return out

    def named_buffers(self) -> dict[str, np.ndarray]:
        """All buffers in this module tree, keyed by module index + name."""
        out: dict[str, np.ndarray] = {}
        for i, module in enumerate(self._modules_recursive()):
            for name, value in module._buffers.items():
                out[f"{i}:{name}"] = value
        return out

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat mapping of parameters and buffers for checkpointing."""
        state = {
            f"{i}:{p.name}": p.data.copy()
            for i, p in enumerate(self.parameters())
        }
        for key, value in self.named_buffers().items():
            state[f"buf:{key}"] = value.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Copy a :meth:`state_dict` into this module tree.

        Every parameter and buffer must be present with its exact shape
        (``ValueError`` otherwise; a missing key raises ``KeyError``).
        Nothing is written unless the whole state checks out.
        """
        params = list(self.parameters())
        buffers = self.named_buffers()
        expected = len(params) + len(buffers)
        if len(state) != expected:
            raise ValueError(
                f"state has {len(state)} entries, model expects {expected} "
                f"({len(params)} parameters + {len(buffers)} buffers)"
            )
        targets = [(f"{i}:{p.name}", p.data) for i, p in enumerate(params)]
        targets += [(f"buf:{key}", value) for key, value in buffers.items()]
        values = []
        for key, target in targets:
            if key not in state:
                kind = "buffer" if key.startswith("buf:") else "parameter"
                raise KeyError(f"missing {kind} {key!r} in state dict")
            value = np.asarray(state[key], dtype=target.dtype)
            if value.shape != target.shape:
                raise ValueError(
                    f"shape mismatch for {key!r}: {value.shape} vs {target.shape}"
                )
            values.append(value)
        for (_key, target), value in zip(targets, values):
            target[...] = value
