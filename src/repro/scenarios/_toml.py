"""TOML reading for scenario files.

:mod:`tomllib` parses (the supported floor is Python 3.11, which ships
it).  It is imported when a file is read, not when the scenario package
is, and its errors become :class:`TomlError` (a ``ValueError``) with a
line number, so callers have one except clause.
"""

from __future__ import annotations

from typing import Any

__all__ = ["TomlError", "loads"]


class TomlError(ValueError):
    """Malformed TOML input (one message, line-located)."""


def loads(text: str) -> dict[str, Any]:
    """Parse TOML text into nested dicts/lists."""
    import tomllib

    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        # tomllib locates an error it meets at the end of the input as
        # "end of document"; name that line too
        last = f"end of document, line {max(1, len(text.splitlines()))}"
        raise TomlError(str(exc).replace("end of document", last)) from exc
