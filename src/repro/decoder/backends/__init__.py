"""Decoder backends.

A backend executes one compiled :class:`~repro.decoder.plan.DecodePlan`
(see :mod:`repro.decoder.backends.base`).  Two ship in-tree:

- ``"reference"`` — the seed implementation's arithmetic, verbatim; the
  numerical ground truth.
- ``"fast"`` — fused flat-index numpy kernels; bit-identical to the
  reference in fixed point, LUT-approximate (or optionally exact) in
  float.

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

from repro.decoder.backends.base import DecoderBackend
from repro.decoder.backends.fast import FastBackend
from repro.decoder.backends.reference import ReferenceBackend
from repro.errors import DecoderConfigError

#: Environment variable consulted by ``backend="auto"``.
ENV_BACKEND = "REPRO_DECODER_BACKEND"

#: Backend chosen by ``"auto"`` when the environment does not override.
DEFAULT_BACKEND = "fast"

#: Backend name → class.
BACKENDS: dict[str, type[DecoderBackend]] = {
    "reference": ReferenceBackend,
    "fast": FastBackend,
}


def resolve_backend_name(name: str | None = None) -> str:
    """Map a configured backend name to the one that will actually run.

    ``None``/``"auto"`` consults :data:`ENV_BACKEND`, then falls back to
    :data:`DEFAULT_BACKEND`; an unknown name raises
    :class:`~repro.errors.DecoderConfigError`.
    """
    requested = name if name is not None else "auto"
    if requested == "auto":
        requested = os.environ.get(ENV_BACKEND, "").strip() or DEFAULT_BACKEND
    if requested not in BACKENDS:
        raise DecoderConfigError(
            f"unknown decoder backend {requested!r}; known: {tuple(BACKENDS)}"
        )
    return requested


def make_backend(plan, config) -> DecoderBackend:
    """Instantiate the backend selected by ``config.backend``."""
    name = resolve_backend_name(getattr(config, "backend", None))
    return BACKENDS[name](plan, config)


__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "DecoderBackend",
    "ENV_BACKEND",
    "FastBackend",
    "ReferenceBackend",
    "make_backend",
    "resolve_backend_name",
]
