"""One way to put a file on disk and read it back.

Every file the program writes is encoded, versioned, written and read
here (``docs/architecture.md``, "Files on disk", lists them): two
sorted, NaN-refusing encodings, one envelope check that accepts exactly
the reader's version, one atomic whole-file writer, one durable append
and one reader that tolerates nothing but the torn final line of a
killed append. ``os.fsync`` and ``os.replace`` are looked up at call
time, so a caller (a test, or a benchmark that must not time the
device's flush latency) can substitute them.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, TextIO, Tuple, Union

PathLike = Union[str, Path]


class FormatError(ValueError):
    """Text or a file that is not the format and version a reader reads."""


class IntegrityError(ValueError):
    """A file whose content no longer matches the hash it records."""


# --- encoding -----------------------------------------------------------------


def dumps_compact(obj: Any) -> str:
    """The one-line canonical form: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def dumps_indented(obj: Any) -> str:
    """The diff-friendly canonical form: sorted keys, two-space indent."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def dumps_jsonl(values: Iterable[Any]) -> str:
    """Whole-file JSONL text: one compact line per value, each ended by
    ``"\\n"``."""
    return "".join(dumps_compact(value) + "\n" for value in values)


# --- decoding and the envelope ------------------------------------------------


def loads(text: str, source: object) -> Any:
    """Parse JSON text; ``source`` names it in the error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{source}: not a JSON document ({exc})") from None


def check_envelope(data: Any, fmt: str, version: int,
                   source: object) -> Dict[str, Any]:
    """Return ``data`` if it is an object of format ``fmt`` at exactly
    ``version``; otherwise raise :class:`FormatError`.

    Foreign, unversioned, older and newer files are all refused: a
    reader that half-parses a file it does not know turns a loud error
    into a quietly wrong result.
    """
    if not isinstance(data, dict):
        raise FormatError(f"{source}: not a {fmt} file "
                          f"(top level is not an object)")
    if data.get("format") != fmt:
        raise FormatError(f"{source}: not a {fmt} file "
                          f"(format {data.get('format')!r})")
    found = data.get("version")
    if type(found) is not int or found != version:
        if found is None:
            problem = "has no version"
        elif type(found) is int:
            problem = (f"is version {found} "
                       f"({'newer' if found > version else 'older'})")
        else:
            problem = f"has version {found!r}"
        raise FormatError(f"{source}: {fmt} file {problem}; this program "
                          f"reads only version {version}")
    return data


# --- writing ------------------------------------------------------------------


def atomic_write(path: PathLike, text: str) -> None:
    """Replace ``path`` with ``text``: a unique tmp file in the target's
    directory, flushed and fsynced, then renamed over the target. On any
    failure the tmp file is removed and the old file stays as it was.

    The tmp file is created with mode ``0o666`` for the kernel to mask,
    so the file follows the umask exactly as one made by ``open()``.
    """
    path = Path(path)
    tmp_name = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def append_jsonl(fh: TextIO, value: Any) -> None:
    """Append one compact line to an open file and make it durable.

    The value is encoded before anything is written, so a value that
    cannot be encoded (``NaN``) leaves the file untouched.
    """
    fh.write(dumps_compact(value) + "\n")
    fh.flush()
    os.fsync(fh.fileno())


# --- reading ------------------------------------------------------------------


def read_jsonl(path: PathLike) -> Iterator[Any]:
    """Each line's value, in file order, streamed.

    An unterminated final line that does not parse is the torn tail of
    a killed append and is skipped; every other line must parse, or
    :class:`FormatError` names the file and the line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                if not line.endswith("\n"):
                    return
                raise FormatError(f"{path}:{number}: not a JSON document "
                                  f"({exc})") from None
            yield value


def read_headed_jsonl(path: PathLike, fmt: str, version: int
                      ) -> Tuple[Dict[str, Any], Iterator[Any]]:
    """The checked header line of a JSONL file and its other lines."""
    lines = read_jsonl(path)
    for header in lines:
        return check_envelope(header, fmt, version, path), lines
    raise FormatError(f"{path}: not a {fmt} file (no header line)")
