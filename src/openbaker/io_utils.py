"""Flat-file output helpers: CSV, JSON sidecars and P5 graymaps.

`fmt` is the one rule that makes a value a table cell, in CSV and JSON alike,
and `json_text` the one that writes a JSON file, nan and inf as null. All
CSV content is deterministic for a fixed configuration; wall-clock
provenance and checksums live in the JSON sidecars only.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

__all__ = ["fmt", "json_text", "write_csv", "write_json", "write_sidecar", "write_pgm",
           "sha256_file"]

# bytes of float64 per strip of graymap rows
_PGM_STRIP_BYTES = 1 << 16


def fmt(x) -> str:
    """One table cell: a float to 17 significant digits (round-trip safe;
    0.0 is "0", inf "inf"), anything else by `str`, so ints print plain,
    bools as True/False and strings as they are."""
    return f"{float(x):.17g}" if isinstance(x, (float, np.floating)) else str(x)


def json_text(obj) -> str:
    """`obj` as indented JSON with sorted keys, a value JSON cannot hold as its
    `str`, and a non-finite float (JSON has no nan or inf) as null."""
    return json.dumps(_finite(obj), indent=2, sort_keys=True, default=str) + "\n"


def _finite(x):
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return list(map(_finite, x))
    return None if isinstance(x, float) and not math.isfinite(x) else x


def write_csv(path, rows) -> Path:
    """`rows`, any iterable of rows of cells, as CRLF CSV, read once as it
    is written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\r\n").writerows(rows)
    return path


def write_json(path, head: dict, rows) -> Path:
    """`json_text` of `head` with "rows": `rows`, any iterable of dicts,
    written a row at a time as it is read, in the bytes of the whole (whose
    top-level keys alone are indented by two spaces)."""
    start, end = json_text({**head, "rows": None}).split('\n  "rows": null')
    with open(path, "w") as fh:
        fh.write(start + '\n  "rows": [')
        sep = "\n    "
        for row in rows:
            fh.write(sep + json.dumps(row, indent=2, sort_keys=True).replace("\n", "\n    "))
            sep = ",\n    "
        fh.write(("]" if sep == "\n    " else "\n  ]") + end)
    return Path(path)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 14):  # in chunks: a caller's grid may still be live
            h.update(chunk)
    return h.hexdigest()


def write_sidecar(artifact_path, config: dict, extra: dict | None = None) -> Path:
    """JSON sidecar next to an artifact: config echo, version, checksum,
    timestamp."""
    from . import __version__

    artifact_path = Path(artifact_path)
    meta = {
        "artifact": artifact_path.name,
        "config": config,
        "version": __version__,
        "sha256": sha256_file(artifact_path),
        "written_at": datetime.now(timezone.utc).isoformat(),
    }
    if extra:
        meta.update(extra)
    out = artifact_path.with_suffix(artifact_path.suffix + ".json")
    out.write_text(json_text(meta))
    return out


def write_pgm(path, values: np.ndarray | tuple, config: dict, bits: int = 16) -> Path:
    """Binary P5 graymap scaled to the full integer range, with the value
    range recorded in the sidecar. `values` (float or bool) is one array, or
    a tuple of arrays of one width that are the image's rows in order (one
    may recur). Each is read, never copied whole: each strip of rows becomes
    round((v - lo) / (hi - lo) * maxval) in float64, or zeros if hi == lo,
    cast to the pixel type and written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blocks = [np.asarray(v) for v in (values if isinstance(values, tuple) else (values,))]
    lo, hi = min(float(v.min()) for v in blocks), max(float(v.max()) for v in blocks)
    maxval = (1 << bits) - 1
    h, w = sum(len(v) for v in blocks), blocks[0].shape[1]
    step = max(1, _PGM_STRIP_BYTES // (8 * w))
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{maxval}\n".encode())
        for vals in blocks:
            for r in range(0, len(vals), step):
                # scaled in place; C order, which `fh.write` needs, whatever the input's
                scaled = np.subtract(vals[r:r + step], lo, dtype=float, order="C")
                if hi > lo:
                    scaled /= hi - lo
                    scaled *= maxval
                    np.round(scaled, out=scaled)
                else:
                    scaled[:] = 0.0
                fh.write(scaled.astype(">u2" if bits == 16 else np.uint8))
    meta = {"value_min": lo, "value_max": hi, "bits": bits,
            "axis_mapping": "rows: first axis ascending, columns: second axis ascending"}
    write_sidecar(path, config, meta)
    return path
