"""Minimal key-value config parser (a small YAML-ish subset, no dependency).

Supports `key: value` and `key = value`, quoted or bare scalars, booleans,
ints, floats, inline lists, and bracketed lists spanning multiple lines —
enough to read task, training, expert, cohort, and attack files verbatim.
`load_config` checks a parsed mapping against a field table and converts
each value to the field's declared type.
"""
from __future__ import annotations

import dataclasses
import typing
from pathlib import Path

__all__ = ["ConfigParseError", "parse_kv_text", "parse_kv_blocks", "load_config", "read_config"]


class ConfigParseError(ValueError):
    pass


def _scalar(text: str):
    t = text.strip()
    if not t:
        return ""
    if (t[0] == t[-1] == '"' or t[0] == t[-1] == "'") and len(t) >= 2:
        return t[1:-1]
    low = t.lower()
    if low in ("true", "yes"):
        return True
    if low in ("false", "no"):
        return False
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    return t


def _split_items(body: str):
    items = []
    for piece in body.split(","):
        piece = piece.strip()
        if piece:
            items.append(_scalar(piece))
    return items


def parse_kv_text(text: str) -> dict:
    """One key-value mapping; a key given twice is an error."""
    return _parse_lines(text.splitlines(), 1)


def _parse_lines(lines: list[str], first: int) -> dict:
    """Parse lines[0:] as file lines first, first + 1, ..."""
    out: dict = {}
    i = 0
    while i < len(lines):
        raw = lines[i]
        line = _strip_comment(raw).strip()
        i += 1
        if not line:
            continue
        lineno = first + i - 1
        if ":" in line:
            key, _, rest = line.partition(":")
        elif "=" in line:
            key, _, rest = line.partition("=")
        else:
            raise ConfigParseError(f"line {lineno}: expected 'key: value', got {raw!r}")
        key = key.strip()
        if key in out:
            raise ConfigParseError(f"line {lineno}: duplicate key {key!r}")
        rest = rest.strip()
        if rest.startswith("[") and not rest.endswith("]"):
            # bracketed list continuing over following lines
            buf = rest[1:]
            closed = False
            while i < len(lines):
                piece = _strip_comment(lines[i]).strip()
                i += 1
                if piece.endswith("]"):
                    buf += "," + piece[:-1]
                    closed = True
                    break
                buf += "," + piece
            if not closed:
                raise ConfigParseError(f"unterminated list for key {key!r}")
            out[key] = _split_items(buf)
        elif rest.startswith("[") and rest.endswith("]"):
            out[key] = _split_items(rest[1:-1])
        else:
            out[key] = _scalar(rest)
    return out


def _strip_comment(line: str) -> str:
    in_quote = None
    for i, ch in enumerate(line):
        if in_quote:
            if ch == in_quote:
                in_quote = None
        elif ch in ("'", '"'):
            in_quote = ch
        elif ch == "#":
            return line[:i]
    return line


def parse_kv_blocks(text: str) -> list[dict]:
    """Blank-line-separated key-value blocks (one block per expert, etc.);
    a paragraph of comments only is not a block."""
    blocks = []
    current: list[str] = []
    for n, line in enumerate(text.splitlines() + [""], start=1):
        if line.strip():
            current.append(line)
        elif current:
            block = _parse_lines(current, n - len(current))
            if block:
                blocks.append(block)
            current = []
    return blocks


def _as_int(v):
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError
    return int(v)  # an int, an integral float, or a quoted number such as "9201"


def _as_float(v):
    if isinstance(v, bool):
        raise ValueError
    return float(v)


def _as_bool(v):
    if not isinstance(v, bool):
        raise ValueError
    return v


def _as_str(v):
    if isinstance(v, (bool, list)):
        raise ValueError
    return str(v)


_CONVERTERS = {int: _as_int, float: _as_float, bool: _as_bool, str: _as_str}


def _convert(value, tp, where: str, name: str):
    container = typing.get_origin(tp)  # tuple or frozenset of a scalar type, else None
    item = typing.get_args(tp)[0] if container else tp
    conv = _CONVERTERS[item]
    try:
        if container:
            return container(conv(v) for v in (value if isinstance(value, list) else [value]))
        return conv(value)
    except (TypeError, ValueError):
        what = f"a list of {item.__name__}" if container else item.__name__
        raise ConfigParseError(f"{where}: {name}: expected {what}, got {value!r}") from None


def load_config(kv: dict, schema, where: str, *, defaults=None, **fixed):
    """Check a parsed key-value mapping against a field table and convert it.

    `schema` is a dataclass, whose field table comes from its annotations, or
    a name -> type map. Types are int, float, bool, str, and tuple[int, ...]
    or frozenset[int] (from a scalar or a list). An int field takes an
    integral number only, and a bool field takes true/false/yes/no only.
    Fields given in `fixed` (values the program supplies) are not part of
    the file's table; `defaults` holds values for fields the file leaves
    out. A dataclass's fields without a default are required, and the
    result is `schema(**fixed, **values)`; a map's fields are optional, and
    the result is the dict of converted values. Every fault, including a
    ValueError from the dataclass's own checks, raises ConfigParseError
    naming `where` (the file, and the block within it) and the field.
    """
    if dataclasses.is_dataclass(schema):
        hints = typing.get_type_hints(schema)
        table = {f.name: hints[f.name] for f in dataclasses.fields(schema)}
        required = [f.name for f in dataclasses.fields(schema)
                    if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    else:
        table, required = dict(schema), []
    for name in fixed:
        table.pop(name)
    kv = {**(defaults or {}), **kv}
    unknown = sorted(set(kv) - set(table))
    if unknown:
        raise ConfigParseError(f"{where}: unknown field(s): {', '.join(unknown)}")
    missing = [name for name in required if name in table and name not in kv]
    if missing:
        raise ConfigParseError(f"{where}: missing required field(s): {', '.join(missing)}")
    values = {name: _convert(v, table[name], where, name) for name, v in kv.items()}
    if not dataclasses.is_dataclass(schema):
        return values
    try:
        return schema(**fixed, **values)
    except ValueError as e:
        raise ConfigParseError(f"{where}: {e}") from None


def read_config(path, schema, **kw):
    """`load_config` over the key-value file at `path`."""
    try:
        kv = parse_kv_text(Path(path).read_text(encoding="utf-8"))
    except ConfigParseError as e:
        raise ConfigParseError(f"{path}: {e}") from None
    return load_config(kv, schema, str(path), **kw)
