"""The one read path for input files: each is read once, and its bytes are the ones hashed."""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .errors import ParseError

_record: dict[str, str] | None = None


@contextmanager
def recording():
    """A dict that maps str(Path(path)) of each file read in the block to its SHA-256."""
    global _record
    _record = {}
    try:
        yield _record
    finally:
        _record = None


def read_input(path) -> tuple[bytearray, str]:
    """The file's bytes in one writable buffer, and their SHA-256 hex digest."""
    with open(path, "rb") as f:
        buf = bytearray(os.fstat(f.fileno()).st_size)
        n = f.readinto(buf)
        buf[n:] = f.read()  # what st_size missed, as from a pipe
    digest = hashlib.sha256(buf).hexdigest()
    if _record is not None:
        _record[str(Path(path))] = digest
    return buf, digest


def open_text(path) -> io.TextIOWrapper:
    """The file as UTF-8 text in which \\n, \\r\\n and \\r end a line; a byte that
    is not UTF-8 raises ParseError at `path:line`."""
    buf = read_input(path)[0]
    if not buf.isascii():  # ASCII is UTF-8, and this check is far faster than a decode
        try:
            buf.decode("utf-8")
        except UnicodeDecodeError as e:
            line = len((buf[: e.start] + b".").splitlines())
            raise ParseError(f"{path}:{line}: not UTF-8: can't decode byte 0x{buf[e.start]:02x}") from None
    return io.TextIOWrapper(io.BytesIO(buf), encoding="utf-8")


def is_integer(value) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """An int or float, not a bool, within the float range: NaN, the
    infinities and ints beyond the largest float fail."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max


def load_json(doc: str | bytes | bytearray):
    """The JSON value in `doc`. Any document it cannot decode raises ValueError:
    malformed text, an integer too long to convert, or nesting too deep to parse."""
    try:
        return json.loads(doc)
    except RecursionError:
        raise ValueError("nested too deeply to decode") from None
