"""Writer of legacy format-1 monitor archives (an enumerated word list).

The library only writes format 2 (the packed-mirror image) but still reads
format 1.  :func:`save_monitor_format1` produces the legacy layout so the
tests can pin that reader: it writes the format-2 archive, then swaps the
packed-mirror arrays for the word list the BDD enumerates.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.monitors.serialization import _HEADER_KEY, _PACKED_KEYS, save_monitor


def save_monitor_format1(monitor, path) -> Path:
    """Serialise a fitted monitor as a format-1 archive at ``path``.

    Min-max monitors have no pattern set, so their archive is the same in
    both formats.
    """
    path = save_monitor(monitor, path)
    if not hasattr(monitor, "patterns"):
        return path
    with np.load(path, allow_pickle=False) as archive:
        arrays = {key: archive[key] for key in archive.files}
    header = json.loads(str(arrays[_HEADER_KEY]))
    header["format"] = 1
    del header["insertions"]
    for array_key in _PACKED_KEYS.values():
        del arrays[array_key]
    arrays["words"] = np.array(list(monitor.patterns.iterate_words()), dtype=np.int64).reshape(
        -1, monitor.num_monitored_neurons
    )
    arrays[_HEADER_KEY] = np.array(json.dumps(header))
    np.savez(path, **arrays)
    return path
