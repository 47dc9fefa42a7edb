"""The shared benchmark summary file (``BENCH_parallel.json``).

``parallel_bench.py``, ``fleet_bench.py`` and ``mitigation_bench.py``
each own some of its top-level sections; every run merges its own into
the file and leaves the others in place.
"""

from __future__ import annotations

import json
from typing import Any, Mapping


def merge_output(path: str, sections: Mapping[str, Any]) -> None:
    """Set ``sections`` in the JSON object at ``path``, creating the file if absent."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        payload = {}
    payload.update(sections)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
