"""Parameter containers and the module base class."""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..exceptions import ModelError


class Parameter:
    """A trainable tensor: a value array plus its accumulated gradient."""

    def __init__(self, value: np.ndarray, name: str = "parameter"):
        self.value = np.asarray(value, dtype=np.float64)
        # Not zeros_like, which writes its zeros: a calloc-backed buffer
        # takes no RAM in a model that never trains.
        self.grad = np.zeros(self.value.shape)
        self.name = name

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"


class Module:
    """Base class for layers and models.

    Subclasses register :class:`Parameter` attributes and child modules simply
    by assigning them to ``self``; :meth:`parameters` walks the tree.
    """

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def parameters(self) -> List[Parameter]:
        """All parameters of this module and its children (depth first)."""
        result = list(self._parameters.values())
        for child in self._modules.values():
            result.extend(child.parameters())
        return result

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, parameter in self._parameters.items():
            yield f"{prefix}{name}", parameter
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    # --------------------------------------------------------- serialization
    def state_dict(self) -> Dict[str, np.ndarray]:
        """A copy of every parameter value keyed by its dotted name."""
        return {name: parameter.value.copy()
                for name, parameter in self.named_parameters()}

    def validate_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Check that ``state`` could be loaded into this module.

        Raises :class:`~repro.exceptions.ModelError` on any missing /
        unexpected parameter name or shape mismatch, without touching the
        module's weights. Used by the serving layer to vet a hot-swap
        snapshot *before* broadcasting it to worker shards, where a partial
        failure would leave the fleet on mixed weights.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise ModelError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, parameter in own.items():
            value = np.asarray(state[name])
            if value.shape != parameter.value.shape:
                raise ModelError(
                    f"shape mismatch for {name}: "
                    f"{value.shape} vs {parameter.value.shape}"
                )

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values previously produced by :meth:`state_dict`."""
        self.validate_state_dict(state)
        for name, parameter in self.named_parameters():
            parameter.value = np.asarray(state[name], dtype=np.float64).copy()
            parameter.grad = np.zeros(parameter.value.shape)


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: Tuple[int, ...]) -> np.ndarray:
    """Xavier/Glorot uniform initialisation."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)
