"""Matcher-kernel back-end registry.

The TCAM matcher answers every verdict the system serves, so its inner
match pass is pluggable the same way symbolic domains are pluggable behind
:func:`repro.symbolic.propagation_backends`: a name → factory registry,
queried by :class:`~repro.runtime.matcher.PackedMatcher` at dispatch time.

Built-in back-ends
------------------
``numpy``
    The reference NumPy passes: presorted exact lookup, broadcast ternary
    compare, bit-sliced range table (always available, always the
    equivalence oracle).
``compiled``
    A numba-jitted fused pass — exact binary search, ternary
    compare-popcount and code ranges in one ``prange`` loop per probe, no
    intermediate tensors.  Degrades gracefully to ``numpy`` when numba is
    not installed.
``sharded``
    A thread-pool driver that chunks the probe axis and runs the compiled
    (or reference) kernel per chunk — for very wide layers and large
    probe batches.

Selection
---------
Per matcher via ``PackedMatcher(codec, backend=...)`` (a registry name or a
ready :class:`MatcherKernel` instance), or process-wide via the
``REPRO_MATCHER_BACKEND`` environment variable; the default is ``numpy``.
Third-party kernels plug in with :func:`register_matcher_backend` — the
same plugin-registration idiom as gramps' ``register_datehandler``.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Union

from ...exceptions import ConfigurationError
from .base import MatcherKernel, MatchPlan
from .compiled_backend import HAVE_NUMBA, CompiledMatcherKernel
from .numpy_backend import NumpyMatcherKernel
from .sharded_backend import ShardedMatcherKernel

__all__ = [
    "MatchPlan",
    "MatcherKernel",
    "NumpyMatcherKernel",
    "CompiledMatcherKernel",
    "ShardedMatcherKernel",
    "HAVE_NUMBA",
    "MATCHER_BACKEND_ENV",
    "DEFAULT_MATCHER_BACKEND",
    "matcher_backends",
    "register_matcher_backend",
    "unregister_matcher_backend",
    "resolve_matcher_backend",
]

#: Environment variable that selects the process-wide default back-end.
MATCHER_BACKEND_ENV = "REPRO_MATCHER_BACKEND"

#: Back-end used when neither a constructor choice nor the env var is set.
DEFAULT_MATCHER_BACKEND = "numpy"

BackendChoice = Union[None, str, MatcherKernel]

_BACKENDS: Dict[str, Callable[[], MatcherKernel]] = {}
#: One shared kernel instance per registry name (kernels are stateless or,
#: like ``sharded``, deliberately share their execution pool).
_INSTANCES: Dict[str, MatcherKernel] = {}


def register_matcher_backend(name: str, factory: Callable[[], MatcherKernel]) -> None:
    """Register (or replace) a matcher back-end under ``name``.

    ``factory`` is a zero-argument callable returning a
    :class:`MatcherKernel`; it is invoked once and the instance reused for
    every matcher that selects ``name``.
    """
    if not isinstance(name, str) or not name:
        raise ConfigurationError("matcher back-end name must be a non-empty string")
    if not callable(factory):
        raise ConfigurationError(f"matcher back-end '{name}' factory is not callable")
    _BACKENDS[name] = factory
    _INSTANCES.pop(name, None)


def unregister_matcher_backend(name: str) -> None:
    """Remove a back-end from the registry (built-ins may be re-registered)."""
    _BACKENDS.pop(name, None)
    _INSTANCES.pop(name, None)


def matcher_backends() -> Dict[str, Callable[[], MatcherKernel]]:
    """Mapping of registered back-end name to kernel factory (a copy)."""
    return dict(_BACKENDS)


def resolve_matcher_backend(choice: BackendChoice = None) -> MatcherKernel:
    """Turn a back-end choice into a ready kernel instance.

    ``choice`` may be a kernel instance (returned as-is), a registry name,
    or ``None`` — which reads ``REPRO_MATCHER_BACKEND`` and falls back to
    the ``numpy`` reference.  Unknown names raise a
    :class:`~repro.exceptions.ConfigurationError` (a ``ValueError``)
    listing the valid :func:`matcher_backends` keys.
    """
    if isinstance(choice, MatcherKernel):
        return choice
    name = choice
    if name is None:
        name = os.environ.get(MATCHER_BACKEND_ENV, "").strip() or DEFAULT_MATCHER_BACKEND
    if name not in _BACKENDS:
        valid = ", ".join(sorted(_BACKENDS))
        raise ConfigurationError(
            f"unknown matcher backend '{name}'; valid backends are: {valid}"
        )
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _BACKENDS[name]()
        if not isinstance(instance, MatcherKernel):
            raise ConfigurationError(
                f"matcher backend '{name}' factory returned {type(instance).__name__}, "
                "not a MatcherKernel"
            )
        _INSTANCES[name] = instance
    return instance


register_matcher_backend("numpy", NumpyMatcherKernel)
register_matcher_backend("compiled", CompiledMatcherKernel)
register_matcher_backend("sharded", ShardedMatcherKernel)
