"""Minimal PGM image I/O (matplotlib-free environment).

Binary PGM (P5) is a two-line header plus raw bytes — readable by every
image viewer and by NumPy, which is all the experiment harness needs to
dump the rendered iso-surface figures.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import FormatError

__all__ = ["write_pgm", "read_pgm"]


def write_pgm(path: str | Path, image: np.ndarray) -> Path:
    """Write a float image in [0, 1] (or uint8) as binary PGM."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise FormatError(f"PGM needs a 2-D array, got {arr.ndim}-D")
    if arr.dtype.kind == "f":
        data = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    elif arr.dtype == np.uint8:
        data = arr
    else:
        raise FormatError(f"unsupported image dtype {arr.dtype}")
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    h, w = data.shape
    with open(out, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(np.ascontiguousarray(data).tobytes())
    return out


# kept: the round-trip oracle of write_pgm (tests/viz)
def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary PGM written by :func:`write_pgm`; returns uint8."""
    raw = Path(path).read_bytes()
    if not raw.startswith(b"P5"):
        raise FormatError(f"{path} is not a binary PGM")
    # Header: magic, dimensions, maxval — whitespace separated, then data.
    parts: list[bytes] = []
    pos = 2
    while len(parts) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":  # comment line
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        parts.append(raw[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        w, h, maxval = (int(p) for p in parts)
    except ValueError as exc:
        raise FormatError(f"corrupt PGM header in {path}") from exc
    if maxval != 255:
        raise FormatError(f"only 8-bit PGM supported, maxval={maxval}")
    if len(raw) - pos < w * h:
        raise FormatError(f"{path}: truncated pixel data")
    data = np.frombuffer(raw, dtype=np.uint8, count=w * h, offset=pos)
    return data.reshape(h, w).copy()
