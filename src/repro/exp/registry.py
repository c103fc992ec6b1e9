"""Central experiment registry.

Experiments register once (import time of :mod:`repro.exp.experiments`)
and every consumer — the ``repro run`` CLI, the benchmark fixtures,
the BENCH artifact writer — resolves them here instead of keeping its
own per-figure function table.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List

from .spec import ExperimentSpec

#: name -> spec, in registration order (dicts preserve insertion order).
REGISTRY: Dict[str, ExperimentSpec] = {}


class UnknownExperimentError(KeyError):
    """Raised when an experiment name is not in the registry."""

    def __init__(self, name: str):
        known = ", ".join(sorted(REGISTRY))
        super().__init__(f"unknown experiment {name!r}; known: {known}")
        self.experiment = name


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add *spec* to the registry (idempotent per name; re-registration
    replaces, which keeps interactive reloads painless)."""
    REGISTRY[spec.name] = spec
    return spec


def get_spec(name: str) -> ExperimentSpec:
    """Resolve one experiment by name."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise UnknownExperimentError(name) from None


def all_specs() -> List[ExperimentSpec]:
    """Every registered experiment, in registration order."""
    return list(REGISTRY.values())


def experiment_names() -> List[str]:
    """Registered experiment names, in registration order."""
    return list(REGISTRY)


@contextmanager
def temporarily_registered(spec: ExperimentSpec) -> Iterator[ExperimentSpec]:
    """Register *spec* for the duration of a ``with`` block (tests)."""
    previous = REGISTRY.get(spec.name)
    register(spec)
    try:
        yield spec
    finally:
        if previous is None:
            REGISTRY.pop(spec.name, None)
        else:
            REGISTRY[spec.name] = previous
