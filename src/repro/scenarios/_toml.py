"""Minimal TOML reading for scenario files.

Python 3.11+ ships :mod:`tomllib`; the supported floor is 3.10, and the
repo policy is "no new dependencies", so this module carries a small
fallback parser for the TOML subset scenario files actually use:

* comments (``#``), blank lines;
* ``[table]`` and ``[[array-of-table]]`` headers (dotted names ok);
* ``key = value`` with bare or dotted keys;
* values: basic strings, booleans, integers, floats (incl. ``1e6``,
  ``inf``), arrays ``[v, v, ...]``, and inline tables ``{k = v, ...}``.

Both paths raise :class:`TomlError` (a ``ValueError``) with a line
number, so callers have one except clause regardless of interpreter
version.  The fallback is intentionally strict — anything outside the
subset is an error, never a silent misparse.
"""

from __future__ import annotations

from types import ModuleType
from typing import Any

__all__ = ["TomlError", "loads"]


class TomlError(ValueError):
    """Malformed TOML input (one message, line-located when possible)."""


def _stdlib_toml() -> ModuleType | None:
    """:mod:`tomllib`, imported when a file is read, not when the
    scenario package is; ``None`` before Python 3.11."""
    try:
        import tomllib
    except ImportError:  # pragma: no cover - exercised on 3.10 CI
        return None
    return tomllib


def loads(text: str) -> dict[str, Any]:
    """Parse TOML text into nested dicts/lists.

    Uses :mod:`tomllib` when available, the subset parser otherwise.
    """
    tomllib = _stdlib_toml()
    if tomllib is not None:
        try:
            return tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise TomlError(str(exc)) from exc
    return _parse_subset(text)


# --------------------------------------------------------------------- #
# fallback subset parser
# --------------------------------------------------------------------- #


def _parse_subset(text: str) -> dict[str, Any]:
    root: dict[str, Any] = {}
    current: dict[str, Any] = root
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("[["):
            if not line.endswith("]]"):
                raise TomlError(f"line {lineno}: unterminated table-array header")
            keys = _split_dotted(line[2:-2].strip(), lineno)
            parent = _descend(root, keys[:-1], lineno)
            arr = parent.setdefault(keys[-1], [])
            if not isinstance(arr, list):
                raise TomlError(f"line {lineno}: {'.'.join(keys)!r} is not an array of tables")
            current = {}
            arr.append(current)
        elif line.startswith("["):
            if not line.endswith("]"):
                raise TomlError(f"line {lineno}: unterminated table header")
            keys = _split_dotted(line[1:-1].strip(), lineno)
            parent = _descend(root, keys[:-1], lineno)
            table = parent.setdefault(keys[-1], {})
            if not isinstance(table, dict):
                raise TomlError(f"line {lineno}: {'.'.join(keys)!r} redefined as a table")
            current = table
        else:
            key_part, sep, value_part = line.partition("=")
            if not sep:
                raise TomlError(f"line {lineno}: expected 'key = value', got {line!r}")
            keys = _split_dotted(key_part.strip(), lineno)
            target = _descend(current, keys[:-1], lineno)
            if keys[-1] in target:
                raise TomlError(f"line {lineno}: duplicate key {'.'.join(keys)!r}")
            target[keys[-1]] = _parse_value(value_part.strip(), lineno)
    return root


def _strip_comment(line: str) -> str:
    """Drop a ``#`` comment, honouring ``#`` inside basic strings."""
    out = []
    in_string = False
    for ch in line:
        if ch == '"':
            in_string = not in_string
        elif ch == "#" and not in_string:
            break
        out.append(ch)
    return "".join(out)


def _split_dotted(text: str, lineno: int) -> list[str]:
    keys = [k.strip().strip('"') for k in text.split(".")]
    if not text or any(not k for k in keys):
        raise TomlError(f"line {lineno}: bad key {text!r}")
    return keys


def _descend(table: dict[str, Any], keys: list[str], lineno: int) -> dict[str, Any]:
    for k in keys:
        table = table.setdefault(k, {})
        if isinstance(table, list):  # [[x]] then x.y: descend into last entry
            table = table[-1]
        if not isinstance(table, dict):
            raise TomlError(f"line {lineno}: key {k!r} is not a table")
    return table


def _split_top_level(text: str, lineno: int) -> list[str]:
    """Split on commas not nested inside strings, arrays, or inline tables."""
    parts: list[str] = []
    depth = 0
    in_string = False
    buf: list[str] = []
    for ch in text:
        if ch == '"':
            in_string = not in_string
        elif not in_string:
            if ch in "[{":
                depth += 1
            elif ch in "]}":
                depth -= 1
                if depth < 0:
                    raise TomlError(f"line {lineno}: unbalanced brackets in {text!r}")
            elif ch == "," and depth == 0:
                parts.append("".join(buf))
                buf = []
                continue
        buf.append(ch)
    if in_string or depth != 0:
        raise TomlError(f"line {lineno}: unbalanced value {text!r}")
    tail = "".join(buf).strip()
    if tail:
        parts.append(tail)
    return parts


def _parse_value(text: str, lineno: int) -> Any:
    if not text:
        raise TomlError(f"line {lineno}: missing value")
    if text.startswith('"'):
        if len(text) < 2 or not text.endswith('"'):
            raise TomlError(f"line {lineno}: unterminated string {text!r}")
        return text[1:-1]
    if text.startswith("["):
        if not text.endswith("]"):
            raise TomlError(f"line {lineno}: unterminated array {text!r}")
        inner = text[1:-1].strip()
        return [_parse_value(p.strip(), lineno) for p in _split_top_level(inner, lineno)]
    if text.startswith("{"):
        if not text.endswith("}"):
            raise TomlError(f"line {lineno}: unterminated inline table {text!r}")
        table: dict[str, Any] = {}
        for pair in _split_top_level(text[1:-1].strip(), lineno):
            key_part, sep, value_part = pair.partition("=")
            if not sep or not key_part.strip():
                raise TomlError(f"line {lineno}: bad inline-table entry {pair!r}")
            table[key_part.strip().strip('"')] = _parse_value(value_part.strip(), lineno)
        return table
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text.replace("_", ""))
    except ValueError:
        pass
    try:
        return float(text.replace("_", ""))
    except ValueError:
        raise TomlError(f"line {lineno}: cannot parse value {text!r}") from None
