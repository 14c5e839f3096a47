"""Atomic output files, and the one set of JSON rules (README's CLI section)
that configs, checkpoint headers and eval reports follow: parse_json,
dump_json and check_schema, each raising the error class its caller passes.
"""

from __future__ import annotations

import json
import os
import re
import sys
from contextlib import contextmanager
from itertools import accumulate
from pathlib import Path

# Deepest bracket nesting a JSON document may have: json recurses once a
# level, and this keeps it far below the interpreter's recursion limit
MAX_JSON_DEPTH = 100
# a JSON string; an unterminated one runs to the end, which keeps the scan
# linear (json.loads then rejects it)
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"?', re.DOTALL)


@contextmanager
def atomic_write(path, mode: str = "wb", **kwargs):
    """Yield a sibling temp file open for writing; on success move it to path.

    The temp file is closed and os.replace'd onto path when the block ends.
    If anything raises, the temp file is deleted: path keeps the bytes it
    had, or stays absent.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def parse_json(raw: bytes, error: type, what: str):
    """Parse raw as UTF-8 JSON; raises error, its message starting with
    what, unless no object repeats a key and brackets nest at most
    MAX_JSON_DEPTH deep. NaN and Infinity parse: dump_json refuses them."""
    def unique_keys(pairs):  # json would keep the last value of a repeated key
        keys = [k for k, _ in pairs]
        if len(set(keys)) < len(keys):
            k = next(k for k in keys if keys.count(k) > 1)
            raise error(f"{what} key {k!r} is set twice in one object")
        return dict(pairs)

    try:
        text = raw.decode("utf-8")
        levels = accumulate((c in "[{") - (c in "]}") for c in _STRING.sub("", text))
        if max(levels, default=0) > MAX_JSON_DEPTH:
            raise error(f"{what} nests too deeply: more than {MAX_JSON_DEPTH} levels")
        return json.loads(text, object_pairs_hook=unique_keys)
    except error:
        raise
    except ValueError as e:  # not UTF-8, malformed, or an int of too many digits
        raise error(f"{what} is not valid UTF-8 JSON: {e}") from e


def dump_json(value, error: type, what: str, indent: int | None = None) -> str:
    """Encode value with sorted keys; raises error unless every number is
    finite. Without indent the text has no spaces: the canonical form that
    config digests and checkpoint headers use."""
    try:
        return json.dumps(value, sort_keys=True, allow_nan=False, indent=indent,
                          separators=(",", ":" if indent is None else ": "))
    except ValueError as e:
        raise error(f"{what} is not finite JSON: {e}") from e


def check_schema(value, schema, path: str, error: type) -> None:
    """Raise error naming the path of the first key or type not in schema.

    A dict schema lists the keys value may have, a one-item list the type of
    every item. An int is needed where the schema has an int, a finite int
    or float where it has a float, and a bool is never a number.
    """
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise error(f"{path or 'the top level'} must be a JSON object")
        for k, v in value.items():
            key = f"{path}.{k}" if path else k
            if k not in schema:
                raise error(f"unknown key {key}")
            check_schema(v, schema[k], key, error)
    elif isinstance(schema, list):
        if not isinstance(value, list):
            raise error(f"{path} must be a list")
        for i, v in enumerate(value):
            check_schema(v, schema[0], f"{path}[{i}]", error)
    else:
        number = isinstance(schema, float)
        kind = (int, float) if number else type(schema)
        # NaN fails every comparison, and an int too large for a float
        # compares exactly, so this also rejects NaN, +-Infinity and 1e999
        if isinstance(value, bool) or not isinstance(value, kind) or \
                (number and not abs(value) <= sys.float_info.max):
            name = "a finite number" if number else f"of type {type(schema).__name__}"
            raise error(f"{path} must be {name}, got {value!r}")
