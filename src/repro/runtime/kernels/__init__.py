"""The matcher kernel behind every pattern-set membership query.

:class:`~repro.runtime.matcher.PackedMatcher` hands its consolidated
:class:`MatchPlan` and a probe batch to one shared
:class:`NumpyMatcherKernel` (presorted exact lookup, broadcast ternary
compare, bit-sliced range table; see :mod:`.numpy_backend`).  There is no
back-end choice: :func:`resolve_matcher_backend` returns that instance.
"""

from __future__ import annotations

from ...exceptions import ConfigurationError
from .numpy_backend import CHUNK_ELEMENTS, MatchPlan, NumpyMatcherKernel

__all__ = [
    "CHUNK_ELEMENTS",
    "KERNEL",
    "MatchPlan",
    "NumpyMatcherKernel",
    "resolve_matcher_backend",
]

#: The kernel instance every matcher dispatches to.
KERNEL = NumpyMatcherKernel()


# perfbench relies on this: it reads the kernel's names and patches its class.
def resolve_matcher_backend(choice: None = None) -> NumpyMatcherKernel:
    """The shared :data:`KERNEL`; any ``choice`` but ``None`` is rejected."""
    if choice is not None:
        raise ConfigurationError(
            f"matcher backend {choice!r} is not available: the numpy kernel is the only one"
        )
    return KERNEL
