"""Deployment bundles: one directory a scoring worker can boot from.

A worker process cannot share Python objects with the front-end — it must
reconstruct the *same* network and monitors from disk.  A deployment bundle
is the unit of that handover: a directory with a ``manifest.json`` naming
one serialised network (``repro.nn.serialization``) and N serialised
monitors (``repro.monitors.serialization``, format-2 packed-mirror archives
by default).  Because the existing save→load round-trip is pinned
bit-identical by the serialization property tests, every worker booted from
a bundle scores exactly the verdicts of the in-process monitors it was
saved from — which is what makes remote verdicts provably equal to offline
``warn_batch``.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Dict, Mapping, Union

from ..exceptions import SerializationError
from ..monitors.serialization import load_monitor, save_monitor
from ..nn.network import Sequential
from ..nn.serialization import load_network, save_network

__all__ = ["DeploymentBundle", "save_deployment", "update_monitor_artifact"]

MANIFEST_NAME = "manifest.json"
_MANIFEST_FORMAT = 1


def save_deployment(
    directory: Union[str, Path],
    network: Sequential,
    monitors: Mapping[str, object],
) -> Path:
    """Write ``network`` + fitted ``monitors`` as a bundle under ``directory``.

    Returns the manifest path.  Monitor artefacts are written in
    serialization format 2 (packed mirror, lazy BDD) so worker cold-start
    is array I/O, not a BDD build.
    """
    if not monitors:
        raise SerializationError("a deployment bundle needs at least one monitor")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    network_path = save_network(network, directory / "network.npz")
    manifest: Dict[str, object] = {
        "format": _MANIFEST_FORMAT,
        "input_dim": int(network.input_dim),
        "network": network_path.name,
        "monitors": {},
    }
    for name, monitor in monitors.items():
        if not isinstance(name, str) or not name:
            raise SerializationError("monitor names in a bundle must be non-empty strings")
        artefact = save_monitor(monitor, directory / f"monitor_{name}.npz")
        manifest["monitors"][name] = artefact.name
    manifest_path = directory / MANIFEST_NAME
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest_path


def update_monitor_artifact(
    bundle: "DeploymentBundle", name: str, source
) -> Path:
    """Atomically replace one monitor artefact of a deployed bundle.

    ``source`` is either a path to an existing format-2 archive (e.g. a
    :class:`~repro.lifecycle.store.MonitorStore` version, which is copied,
    never moved) or a fitted monitor to serialise in place.  The new bytes
    are written to a temporary sibling and ``os.replace``d over the
    bundle's artefact, so a worker (re)booting from the bundle at any
    moment sees either the old archive or the new one — never a torn file.
    The manifest is untouched: lifecycle promotion swaps *content* under a
    stable name, it does not add or remove names.
    """
    if name not in bundle.monitor_paths:
        raise SerializationError(
            f"bundle under {bundle.directory} serves no monitor named "
            f"'{name}' (has: {list(bundle.monitor_paths)})"
        )
    target = bundle.monitor_paths[name]
    tmp_path = target.parent / f".{target.stem}.swap.npz"
    if isinstance(source, (str, Path)):
        source = Path(source)
        if not source.exists():
            raise SerializationError(f"replacement artefact missing: {source}")
        shutil.copyfile(source, tmp_path)
    else:
        save_monitor(source, tmp_path)
    os.replace(tmp_path, target)
    return target


class DeploymentBundle:
    """A loaded manifest: paths plus loaders for the artefacts it names."""

    def __init__(self, directory: Union[str, Path]) -> None:
        directory = Path(directory)
        if directory.name == MANIFEST_NAME:
            directory = directory.parent
        self.directory = directory
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise SerializationError(f"no {MANIFEST_NAME} under {directory}")
        try:
            with open(manifest_path) as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise SerializationError(f"failed to read {manifest_path}: {exc}") from exc
        if int(manifest.get("format", 0)) != _MANIFEST_FORMAT:
            raise SerializationError(
                f"unsupported bundle format {manifest.get('format')!r} in {manifest_path}"
            )
        self.input_dim = int(manifest["input_dim"])
        self.network_path = directory / manifest["network"]
        self.monitor_paths: Dict[str, Path] = {
            name: directory / filename
            for name, filename in manifest["monitors"].items()
        }
        for path in (self.network_path, *self.monitor_paths.values()):
            if not path.exists():
                raise SerializationError(f"bundle artefact missing: {path}")

    @property
    def monitor_names(self):
        return tuple(self.monitor_paths)

    def load_network(self) -> Sequential:
        return load_network(self.network_path)

    def load_monitors(self, network: Sequential) -> Dict[str, object]:
        """Reconstruct every monitor of the bundle against ``network``."""
        return {name: load_monitor(path, network) for name, path in self.monitor_paths.items()}

    def describe(self) -> Dict[str, object]:
        return {
            "directory": str(self.directory),
            "input_dim": self.input_dim,
            "monitors": list(self.monitor_paths),
        }
