"""Versioned monitor artefact store: the durable half of the lifecycle.

A lifecycle needs more than a single deployment bundle: every refit produces
a *new* monitor state that must be shippable, attributable and revertible.
:class:`MonitorStore` is a directory of format-2 monitor archives plus one
``store.json`` manifest:

* versions are monotone per monitor name (``v1, v2, …``, never reused, even
  after GC);
* every version records the content fingerprint
  (:func:`~repro.monitors.fingerprint.monitor_fingerprint`) of the state it
  holds, so a verdict logged as "robust@v3" names one exact abstraction;
* a ``live`` pointer per name tracks which version is currently promoted;
  :meth:`rollback` moves it to an earlier version without deleting anything;
* :meth:`gc` enforces a retention bound, never collecting the live version
  or the newest one.

Manifest updates are atomic (written to a temp file, then ``os.replace``),
so a crash mid-``put`` leaves either the old manifest or the new one —
never a torn file.  Archive writes happen *before* the manifest names them,
so every version the manifest lists is loadable.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..exceptions import LifecycleStateError, SerializationError
from ..monitors.fingerprint import monitor_fingerprint
from ..monitors.serialization import load_monitor, save_monitor

__all__ = ["MonitorStore"]

MANIFEST_NAME = "store.json"
_STORE_FORMAT = 1


class MonitorStore:
    """Directory of versioned monitor artefacts with an atomic manifest.

    ``retain`` bounds how many versions :meth:`gc` keeps per name (``None``
    keeps everything).  The store is re-openable: constructing it over an
    existing directory picks up the manifest written by a previous process.
    """

    def __init__(
        self, directory: Union[str, Path], retain: Optional[int] = None
    ) -> None:
        if retain is not None and retain < 1:
            raise LifecycleStateError("retain must keep at least one version")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.retain = retain
        self._manifest_path = self.directory / MANIFEST_NAME
        if self._manifest_path.exists():
            try:
                with open(self._manifest_path) as handle:
                    manifest = json.load(handle)
            except (OSError, json.JSONDecodeError) as exc:
                raise SerializationError(
                    f"failed to read {self._manifest_path}: {exc}"
                ) from exc
            if int(manifest.get("format", 0)) != _STORE_FORMAT:
                raise SerializationError(
                    f"unsupported store format {manifest.get('format')!r} "
                    f"in {self._manifest_path}"
                )
            self._manifest = manifest
        else:
            self._manifest = {"format": _STORE_FORMAT, "monitors": {}}

    # ------------------------------------------------------------------
    def _write_manifest(self) -> None:
        tmp_path = self._manifest_path.with_suffix(".json.tmp")
        with open(tmp_path, "w") as handle:
            json.dump(self._manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_path, self._manifest_path)

    def _chain(self, name: str, create: bool = False) -> Dict[str, object]:
        chains = self._manifest["monitors"]
        if name not in chains:
            if not create:
                raise LifecycleStateError(
                    f"no monitor named '{name}' in the store"
                )
            chains[name] = {"next_version": 1, "live": None, "versions": {}}
        return chains[name]

    def _entry(self, name: str, version: int) -> Dict[str, object]:
        chain = self._chain(name)
        entry = chain["versions"].get(str(int(version)))
        if entry is None:
            raise LifecycleStateError(
                f"monitor '{name}' has no version {version} "
                f"(known: {self.versions(name)})"
            )
        return entry

    # ------------------------------------------------------------------
    def put(
        self,
        name: str,
        monitor,
        metadata: Optional[Dict[str, object]] = None,
    ) -> int:
        """Archive ``monitor`` as the next version of ``name``; returns it.

        The version id is monotone per name and never reused — a rolled
        back or garbage-collected version number stays burned, so logs
        referring to "robust@v3" are unambiguous forever.
        """
        if not isinstance(name, str) or not name:
            raise LifecycleStateError("monitor name must be a non-empty string")
        chain = self._chain(name, create=True)
        version = int(chain["next_version"])
        filename = f"{name}_v{version}.npz"
        save_monitor(monitor, self.directory / filename)
        chain["versions"][str(version)] = {
            "file": filename,
            "fingerprint": monitor_fingerprint(monitor),
            "class": type(monitor).__name__,
            "created": time.time(),
            "metadata": dict(metadata) if metadata else {},
        }
        chain["next_version"] = version + 1
        self._write_manifest()
        return version

    def load(self, name: str, version: Optional[int] = None, network=None):
        """Reconstruct a stored version against ``network`` (default: live)."""
        if version is None:
            version = self.live_version(name)
            if version is None:
                version = self.latest(name)
        entry = self._entry(name, version)
        return load_monitor(self.directory / entry["file"], network)

    def path(self, name: str, version: int) -> Path:
        """Filesystem path of one stored archive."""
        return self.directory / self._entry(name, version)["file"]

    def fingerprint(self, name: str, version: int) -> str:
        """Content fingerprint recorded for one stored version."""
        return str(self._entry(name, version)["fingerprint"])

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self._manifest["monitors"])

    def versions(self, name: str) -> List[int]:
        """Version ids of ``name`` still present, ascending."""
        return sorted(int(v) for v in self._chain(name)["versions"])

    def latest(self, name: str) -> int:
        versions = self.versions(name)
        if not versions:
            raise LifecycleStateError(
                f"monitor '{name}' has no stored versions"
            )
        return versions[-1]

    def live_version(self, name: str) -> Optional[int]:
        """The promoted version of ``name`` (``None`` before first promotion)."""
        live = self._chain(name)["live"]
        return None if live is None else int(live)

    def set_live(self, name: str, version: int) -> None:
        """Move the live pointer of ``name`` to an existing version."""
        self._entry(name, version)  # validates existence
        self._chain(name)["live"] = int(version)
        self._write_manifest()

    def rollback(self, name: str, version: Optional[int] = None) -> int:
        """Move the live pointer back to ``version`` (default: predecessor).

        Nothing is deleted: the rolled-back-from version stays in the store
        for post-mortems.  Returns the version now live.
        """
        live = self.live_version(name)
        if version is None:
            if live is None:
                raise LifecycleStateError(
                    f"monitor '{name}' has no live version to roll back from"
                )
            earlier = [v for v in self.versions(name) if v < live]
            if not earlier:
                raise LifecycleStateError(
                    f"monitor '{name}' has no version earlier than the live "
                    f"v{live} to roll back to"
                )
            version = earlier[-1]
        version = int(version)
        if live is not None and version > live:
            raise LifecycleStateError(
                f"cannot roll monitor '{name}' back to v{version}: it is "
                f"newer than the live v{live} (use set_live to promote)"
            )
        self.set_live(name, version)
        return version

    # ------------------------------------------------------------------
    def gc(self, name: Optional[str] = None, retain: Optional[int] = None) -> List[str]:
        """Delete old archives beyond the retention bound; returns filenames.

        Keeps the ``retain`` newest versions of each chain plus — always —
        the live version, whatever its age.  ``retain=None`` falls back to
        the store's construction-time bound; if that is also ``None``,
        nothing is collected.
        """
        retain = self.retain if retain is None else retain
        if retain is None:
            return []
        if retain < 1:
            raise LifecycleStateError("retain must keep at least one version")
        removed: List[str] = []
        names = [name] if name is not None else self.names()
        for chain_name in names:
            chain = self._chain(chain_name)
            versions = self.versions(chain_name)
            keep = set(versions[-retain:])
            live = self.live_version(chain_name)
            if live is not None:
                keep.add(live)
            for version in versions:
                if version in keep:
                    continue
                entry = chain["versions"].pop(str(version))
                removed.append(entry["file"])
        if removed:
            self._write_manifest()
            for filename in removed:
                try:
                    (self.directory / filename).unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
        return removed

    def describe(self) -> Dict[str, object]:
        """Manifest view: per name the live pointer and version metadata."""
        monitors: Dict[str, object] = {}
        for name in self.names():
            chain = self._chain(name)
            monitors[name] = {
                "live": self.live_version(name),
                "versions": {
                    int(v): {
                        "fingerprint": entry["fingerprint"],
                        "class": entry["class"],
                        "created": entry["created"],
                        "metadata": dict(entry.get("metadata", {})),
                    }
                    for v, entry in chain["versions"].items()
                },
            }
        return {"directory": str(self.directory), "monitors": monitors}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MonitorStore(directory={str(self.directory)!r}, names={self.names()})"
