"""Decoder backend registry.

A backend executes one compiled :class:`~repro.decoder.plan.DecodePlan`
(see :mod:`repro.decoder.backends.base`).  Three ship in-tree:

- ``"reference"`` — the seed implementation's arithmetic, verbatim; the
  numerical ground truth.
- ``"fast"`` — fused flat-index numpy kernels; bit-identical to the
  reference in fixed point, LUT-approximate (or optionally exact) in
  float.
- ``"numba"`` — JIT-compiled loops when numba is importable; otherwise
  reported unavailable and resolved to ``"fast"`` with a warning.

Selection: ``DecoderConfig(backend=...)`` names a backend directly; the
default ``"auto"`` honours the ``REPRO_DECODER_BACKEND`` environment
variable and otherwise picks ``"fast"``.  Fixed point is bit-identical
either way; float BP runs the float32 Φ kernel, which tracks the
reference's decisions, iterations and ``converged`` flags.
``REPRO_DECODER_BACKEND=reference`` selects the oracle for a whole
process (the test suite runs once that way too).
"""

from __future__ import annotations

import os
import warnings
from typing import Callable

from repro.decoder.backends.base import DecoderBackend
from repro.errors import DecoderConfigError

#: Environment variable consulted by ``backend="auto"``.
ENV_BACKEND = "REPRO_DECODER_BACKEND"

#: Backend chosen by ``"auto"`` when the environment does not override.
DEFAULT_BACKEND = "fast"

#: Name a requested-but-unavailable backend degrades to.
FALLBACK_BACKEND = "fast"

_REGISTRY: dict[str, tuple[type, Callable[[], bool]]] = {}

#: Backends whose unavailable-fallback warning has already been issued.
#: ``resolve()`` runs on every decoder construction, so the warning is
#: emitted once per process per backend name, not once per decode.
_FALLBACK_WARNED: set[str] = set()


def register_backend(
    name: str,
    backend_cls: type,
    is_available: Callable[[], bool] | None = None,
) -> None:
    """Register a backend class under ``name``.

    ``is_available`` is probed at resolution time; backends whose
    dependencies are missing stay listed but resolve to the fallback.
    """
    _REGISTRY[name] = (backend_cls, is_available or (lambda: True))


def registered_backends() -> tuple[str, ...]:
    """Every registered backend name, available or not."""
    return tuple(_REGISTRY)


def available_backends() -> tuple[str, ...]:
    """Backend names whose dependencies are importable right now."""
    return tuple(
        name for name, (_, probe) in _REGISTRY.items() if probe()
    )


def resolve_backend_name(name: str | None = None) -> str:
    """Map a configured backend name to the one that will actually run.

    ``None``/``"auto"`` consults :data:`ENV_BACKEND`, then falls back to
    :data:`DEFAULT_BACKEND`.  An explicitly named backend that is
    registered but unavailable degrades to :data:`FALLBACK_BACKEND` with
    a warning; an unknown name raises.
    """
    requested = name if name is not None else "auto"
    if requested == "auto":
        requested = os.environ.get(ENV_BACKEND, "").strip() or DEFAULT_BACKEND
    if requested not in _REGISTRY:
        raise DecoderConfigError(
            f"unknown decoder backend {requested!r}; "
            f"registered: {registered_backends()}"
        )
    _, probe = _REGISTRY[requested]
    if not probe():
        if requested not in _FALLBACK_WARNED:
            _FALLBACK_WARNED.add(requested)
            warnings.warn(
                f"decoder backend {requested!r} is unavailable "
                f"(missing dependency); falling back to "
                f"{FALLBACK_BACKEND!r} (warning shown once per process)",
                RuntimeWarning,
                stacklevel=2,
            )
        requested = FALLBACK_BACKEND
    return requested


def make_backend(plan, config) -> DecoderBackend:
    """Instantiate the backend selected by ``config.backend``."""
    name = resolve_backend_name(getattr(config, "backend", None))
    backend_cls, _ = _REGISTRY[name]
    return backend_cls(plan, config)


def make_shard_backend(partition, shard_index: int, config) -> DecoderBackend:
    """Instantiate the selected backend on one shard of a partitioned plan.

    The fabric's counterpart to :func:`make_backend`: resolves the
    backend exactly the same way, then binds it through
    :meth:`DecoderBackend.for_shard` to the shard's
    :class:`~repro.decoder.partition.ShardSubPlan`, so the same kernels
    the K=1 decoder runs execute on the shard's local arrays.
    """
    name = resolve_backend_name(getattr(config, "backend", None))
    backend_cls, _ = _REGISTRY[name]
    return backend_cls.for_shard(partition, shard_index, config)


# ---------------------------------------------------------------------------
# In-tree registrations
# ---------------------------------------------------------------------------
from repro.decoder.backends.fast import FastBackend  # noqa: E402
from repro.decoder.backends.numba_backend import (  # noqa: E402
    NumbaBackend,
    is_available as _numba_available,
)
from repro.decoder.backends.reference import ReferenceBackend  # noqa: E402

register_backend("reference", ReferenceBackend)
register_backend("fast", FastBackend)
register_backend("numba", NumbaBackend, _numba_available)

__all__ = [
    "DEFAULT_BACKEND",
    "DecoderBackend",
    "ENV_BACKEND",
    "FALLBACK_BACKEND",
    "FastBackend",
    "NumbaBackend",
    "ReferenceBackend",
    "available_backends",
    "make_backend",
    "make_shard_backend",
    "register_backend",
    "registered_backends",
    "resolve_backend_name",
]
