"""On-disk q-expansion cache for expand: one JSON file per series, named by
a stable content hash of the generating parameters. There is no index; an
entry is found by recomputing its name, and other files are ignored."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .qseries import QSeries


def cache_key(params: dict) -> str:
    """Stable content key: sha256 of the canonical parameter JSON."""
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class SeriesCache:
    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, params: dict) -> QSeries | None:
        """The stored series or None. A corrupt entry raises ValueError, as does
        one nested too deeply to parse or filed under another truncation."""
        path = self.path_for(cache_key(params))
        if not path.exists():
            return None
        try:
            series = QSeries.from_json_dict(json.loads(path.read_text()))
            if series.truncation != params["truncation"]:
                raise ValueError(f"truncation {series.truncation} is not the key's {params['truncation']}")
        except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
            raise ValueError(f"corrupt cache entry {path}: {exc}") from None
        return series

    def put(self, params: dict, series: QSeries) -> bytes:
        """Write atomically (temp file + rename); returns the stored bytes."""
        key = cache_key(params)
        payload = (json.dumps(series.to_json_dict(), indent=None) + "\n").encode()
        path = self.path_for(key)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return payload
