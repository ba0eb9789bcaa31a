"""The record codec: how every file bridgekit exchanges is read and written.

Canonical corpora (`ingest`), pair datasets (`pairgen`) and model files
(`gbdt.boosting`) hold records, frozen dataclasses, as JSON objects. Both
directions are generated as Python source from the record layouts, the
dataclass fields, so each layout is declared once. Per annotation,
`_JSON_VALUES` says how to write a value and `_JSON_READS` how to read one
back; each class adds entries to both as it is generated, for one nested
record and a tuple of them (and to the reader's, for a record or null). An
annotation missing from either table raises at import (a TypeError naming
the class from the writer, a KeyError naming the annotation from the
reader), so a new field cannot be dropped, mis-written or read unchecked
unnoticed.

The writer gives each class one f-string function that writes its fields in
sorted key order: the bytes `json.dumps(sort_keys=True, ensure_ascii=False,
separators=(",", ":"))` gives for the dict of the fields, without building
that dict. Each entry renders a value `%s`; strings go through
`encode_basestring`, the escaper `json.dumps` itself uses without
`ensure_ascii`. A `str | None` field is left out when it is None.

The reader gives each class one function, `_read_<Class>(obj, path)`, that
checks an object's key set, then builds the record with the class's maker
(`record_maker`) from one read expression per field, in layout order, so
the first fault in layout order is the one named; a key annotated
`... | None` may be absent or null. Each entry is an expression of the
field's JSON value `%(v)s` that gives the field value or raises naming
`path.<field>`, the field being `%(name)s`. A list of strings, numbers or
records may also be a tuple, as `dataclasses.asdict` gives one.

Input text is UTF-8 (`read_text`), and text that is not JSON raises
ParseError naming its line (`json_value`, `json_lines`). `write_file`
writes a file whole or not at all. A setting (a config key, the seed, a
hyperparameter) is a field declared by `setting`, and `Setting.check` reads
its value alike from a config file, a flag and a model file.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import cache
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Iterator, NoReturn

from .errors import ConfigError, ParseError, ValidationError


def _decode(data: bytes | str) -> str:
    """The text of `data`; bytes that are not UTF-8 raise ParseError naming
    the line of the first bad byte."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data[:exc.start].count(b"\n") + 1
        raise ParseError(f"not valid utf-8: {exc.reason}", line) from None


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file, with "\\r\\n" and "\\r" read as "\\n", as a
    file opened in text mode reads them; bytes that are not UTF-8 raise
    ParseError naming their line. No byte of a multi-byte UTF-8 character
    is a line end, so the line ends are replaced before decoding."""
    return _decode(Path(path).read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n"))


def write_file(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write each of `chunks` to `path` as it is made. A failure while
    writing, an interrupt too, removes the file; a failure to open it
    removes nothing."""
    out = open(path, "wb")
    try:
        with out:
            for chunk in chunks:
                out.write(chunk)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def json_value(text: str, first_line: int = 1):
    """The JSON value of `text`, whose first line is line `first_line` of
    its input. Text that is not JSON raises ParseError naming its line."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", first_line + exc.lineno - 1)
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", first_line)


def json_lines(data: bytes | str) -> Iterator:
    """The JSON value of each non-blank line, in order. A line that is not
    JSON raises ParseError naming its line."""
    for line_no, line in enumerate(_decode(data).split("\n"), start=1):
        if line.strip():
            yield json_value(line, line_no)


def is_int(value) -> bool:
    """Whether `value` is an integer; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """Whether `value` is an integer or a float; a bool is not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """Whether `value` is an integer or a float other than NaN and
    ±Infinity, which Python's `json` reads from non-standard literals."""
    return isinstance(value, float) and math.isfinite(value) or is_int(value)


# check and expected-type wording of each type of setting; a tuple is a list of strings
_KINDS = {
    int: (is_int, "an integer"),
    float: (is_number, "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
    tuple: (lambda v: isinstance(v, (list, tuple)) and all(isinstance(x, str) for x in v),
            "a list of strings"),
}


@dataclass(frozen=True)
class Setting:
    """The one declaration of a setting: its type and its range or choices."""

    kind: type
    low: int | None = None
    high: int | None = None
    choices: tuple[str, ...] = ()

    def check(self, key: str, value):
        """`value` as the setting's type, or a ConfigError naming `key`. An
        integer too large for a float setting raises OverflowError."""
        check, expected = _KINDS[self.kind]
        if not check(value):
            raise ConfigError(f"{key} must be {expected}, got {value!r}")
        if is_number(value) and not is_finite(value):
            raise ConfigError(f"{key} must be a finite number, got {value!r}")
        if self.high is not None and not self.low <= value <= self.high:
            raise ConfigError(f"{key} must be between {self.low} and {self.high}")
        if self.low is not None and value < self.low:
            raise ConfigError(f"{key} must be >= {self.low}")
        if self.choices and value not in self.choices:
            raise ConfigError(f"{key} must be {' or '.join(self.choices)}")
        return self.kind(value)


def setting(default, kind: type, **bounds):
    """A dataclass field with `default` (MISSING for none), declared a
    setting of `kind`."""
    return field(default=default, metadata={"setting": Setting(kind, **bounds)})


def check_settings(obj) -> None:
    """Check and convert each declared field of dataclass `obj`. A field
    whose default is None may also hold None."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if "setting" in f.metadata and not (value is None and f.default is None):
            object.__setattr__(obj, f.name, f.metadata["setting"].check(f.name, value))


_OPTIONAL = "str | None"
_JSON_VALUES = {
    "int": "{%s}",
    "str": "{_s(%s)}",
    "tuple[str, ...]": '[{",".join(map(_s, %s))}]',
    "tuple[tuple[int, int], ...]": '[{",".join([f"[{a},{b}]" for a, b in %s])}]',
}


def _fail(path: str, name: str, message: str) -> NoReturn:
    raise ValidationError(f"{path}.{name}: {message}")


def _span(span, path: str, name: str, j: int) -> tuple[int, int]:
    if not (isinstance(span, list) and len(span) == 2 and is_int(span[0]) and is_int(span[1])):
        _fail(path, f"{name}[{j}]", "expected a [start, end] integer pair")
    return span[0], span[1]


_JSON_READS = {
    "int": "%(v)s if is_int(%(v)s) else _fail(path, %(name)r, 'expected an integer')",
    "float": "%(v)s if is_finite(%(v)s) else _fail(path, %(name)r,"
             " 'expected a finite number' if is_number(%(v)s) else 'expected a number')",
    "str": "%(v)s if isinstance(%(v)s, str) else _fail(path, %(name)r, 'expected a string')",
    "tuple[str, ...]": "tuple(%(v)s) if isinstance(%(v)s, (list, tuple))"
                       " and all([isinstance(a, str) for a in %(v)s])"
                       " else _fail(path, %(name)r, 'expected a list of strings')",
    "tuple[float, ...]": "tuple(%(v)s) if isinstance(%(v)s, (list, tuple)) and all(map(is_finite, %(v)s))"
                         " else _fail(path, %(name)r, 'expected a list of finite numbers'"
                         " if isinstance(%(v)s, (list, tuple)) and all(map(is_number, %(v)s))"
                         " else 'expected a list of numbers')",
    "tuple[tuple[int, int], ...]": "tuple([_span(s, path, %(name)r, j) for j, s in enumerate(%(v)s)])"
                                   " if isinstance(%(v)s, list) and %(v)s"
                                   " else _fail(path, %(name)r, 'expected a non-empty list')",
}
_JSON_READS[_OPTIONAL] = "None if %(v)s is None else " + _JSON_READS["str"]


def _record_reads(name: str) -> dict[str, str]:
    """The read expressions of a record type `name`, which `_read_<name>`
    reads: one record, one or null, and a tuple of them."""
    one = f"_read_{name}(%(v)s, path + '.%(name)s')"
    return {
        name: one,
        f"{name} | None": f"None if %(v)s is None else {one}",
        f"tuple[{name}, ...]":
            f"tuple([_read_{name}(o, f'{{path}}.%(name)s[{{i}}]') for i, o in enumerate(%(v)s)])"
            " if isinstance(%(v)s, (list, tuple)) else _fail(path, %(name)r, 'expected a list')",
    }


def _writer_source(cls: type, values: dict[str, str]) -> str:
    """Source of `_write_<cls>`, which writes one `cls` as a JSON object."""
    layout = sorted(fields(cls), key=lambda f: f.name)
    unknown = [f"{f.name}: {f.type}" for f in layout
               if f.type not in values and f.type != _OPTIONAL]
    required = [i for i, f in enumerate(layout) if f.type != _OPTIONAL]
    if unknown or not required:
        raise TypeError(f"no canonical layout for {cls.__name__}: {unknown or 'no required field'}")
    # commas go between present fields: an optional field before the first
    # required one carries a trailing comma, every later field a leading one
    first = required[0]
    pieces = []
    for i, f in enumerate(layout):
        value = f"r.{f.name}"
        if f.type == _OPTIONAL:
            key = repr(f'"{f.name}":' if i < first else f',"{f.name}":')
            tail = " + ','" if i < first else ""
            pieces.append(f'{{"" if {value} is None else {key} + _s({value}){tail}}}')
        else:
            pieces.append(("," if i > first else "") + f'"{f.name}":' + values[f.type] % value)
    return f"def _write_{cls.__name__}(r):\n    return f'''{{{{{''.join(pieces)}}}}}'''\n"


def _reader_source(cls: type, reads: dict[str, str]) -> str:
    """Source of `_read_<cls>`, which reads one `cls` from a JSON object,
    and of the key sets it checks."""
    layout = fields(cls)
    name = cls.__name__
    required = tuple(f.name for f in layout if not f.type.endswith(" | None"))
    values = [reads[f.type] % {"v": f"obj.get({f.name!r})", "name": f.name} for f in layout]
    return (
        f"_known_{name} = frozenset({tuple(f.name for f in layout)!r})\n"
        f"_required_{name} = frozenset({required!r})\n"
        f"def _read_{name}(obj, path):\n"
        "    if not isinstance(obj, dict):\n"
        "        raise ValidationError(f'{path}: expected an object')\n"
        "    keys = obj.keys()\n"
        f"    if not _required_{name} <= keys:\n"
        f"        raise ValidationError(f'{{path}}: missing keys {{sorted(_required_{name} - keys)}}')\n"
        f"    if not keys <= _known_{name}:\n"
        f"        raise ValidationError(f'{{path}}: unexpected keys {{sorted(keys - _known_{name})}}')\n"
        f"    return _make_{name}({', '.join(values)})\n"
    )


def record_writer(*classes: type):
    """The writer of the last of `classes`, which calls those of the others:
    a field may hold one record of an earlier class, or a tuple of them."""
    namespace = {"_s": encode_basestring}
    values = dict(_JSON_VALUES)
    for cls in classes:
        name = cls.__name__
        exec(_writer_source(cls, values), namespace)
        values[name] = "{_write_%s(%%s)}" % name
        values[f"tuple[{name}, ...]"] = '[{",".join(map(_write_%s, %%s))}]' % name
    return namespace[f"_write_{classes[-1].__name__}"]


def record_reader(*classes: type, reads: dict | None = None):
    """The reader `read(obj, path)` of the last of `classes`, which calls
    those of the others: a field may hold one record of an earlier class, one
    or null, or a tuple of them. An entry of `reads` is a read expression,
    which adds to the base table or replaces one of its entries, or the
    reader `read(obj, path)` of a record type such as a union of classes."""
    # the readers run in a copy of this module's namespace, which holds the
    # helpers their expressions call
    namespace = dict(globals())
    table = dict(_JSON_READS)
    for key, read in (reads or {}).items():
        if isinstance(read, str):
            table[key] = read
        else:
            namespace[f"_read_{key}"] = read
            table.update(_record_reads(key))
    for cls in classes:
        name = cls.__name__
        # a class that checks its fields in `__post_init__` is built by its constructor
        namespace[f"_make_{name}"] = cls if hasattr(cls, "__post_init__") else record_maker(cls)
        exec(_reader_source(cls, table), namespace)
        table.update(_record_reads(name))
    return namespace[f"_read_{classes[-1].__name__}"]


@cache
def record_maker(cls: type):
    """`make(f1, ..., fn)`, which builds one `cls` from all its fields,
    positional in layout order, at the cost of storing them: the dataclass
    `__init__` of a frozen class sets each field through
    `object.__setattr__`. A slotted class's fields are set through their
    slot descriptors, and any other class's are written into the fresh
    instance dict, which holds nothing else yet. A class that checks its
    fields in `__post_init__` raises TypeError; build it with its
    constructor. Each class's maker is generated once."""
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__} has __post_init__; call its constructor")
    names = [f.name for f in fields(cls)]
    # the maker's own names are dunders, so no field name shadows them
    namespace = {"__new__": object.__new__, "__cls__": cls}
    lines = ["__record__ = __new__(__cls__)"]
    if "__slots__" in cls.__dict__:
        for i, name in enumerate(names):
            namespace[f"__set{i}__"] = getattr(cls, name).__set__
            lines.append(f"__set{i}__(__record__, {name})")
    else:
        lines.append("__fields__ = __record__.__dict__")
        lines.extend(f"__fields__[{name!r}] = {name}" for name in names)
    body = "".join(f"    {line}\n" for line in lines)
    exec(f"def make({', '.join(names)}):\n{body}    return __record__\n", namespace)
    return namespace["make"]
