"""What the command bodies share: their errors, their input, their output.

The bodies import these from here, never from `cli`: under
`python -m nicholsforge.cli` that module runs as `__main__`, so importing
it would compile it again and define a second `InputError`, which the
dispatcher would not catch.  `formats` re-exports `canonical_dumps` and
`save_document`, so a command that reads no structure never loads it.
"""

from __future__ import annotations

import json
import sys
import time
from typing import List, Optional

try:  # the interpreter's own SHA-256: hashlib would load OpenSSL for it
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12 renamed the module
    except ImportError:
        from hashlib import sha256

from ._threads import resolve_threads


class CommandError(Exception):
    """A command that cannot go on: `Error: <message>` on stderr, exit 1."""

    exit_code = 1


class InputError(CommandError):
    """Unusable input: exit 2."""

    exit_code = 2


def canonical_dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def save_document(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(obj))


def digest(data: bytes) -> str:
    return "sha256:" + sha256(data).hexdigest()


def read_json(path: str):
    """The JSON object in the file and the digest of its bytes."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}")
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as err:
        raise InputError(f"{path} is not valid JSON: {err}")
    if not isinstance(obj, dict):
        raise InputError(f"{path} must hold a JSON object at the top level")
    return obj, digest(raw)


def write(path: str, doc: dict) -> None:
    try:
        save_document(path, doc)
    except OSError as err:
        raise InputError(f"cannot write {path}: {err}")


def thread_count(explicit: Optional[int]) -> int:
    try:
        return resolve_threads(explicit)
    except ValueError as err:
        raise InputError(str(err))


def finish(command: str, input_digest: str, results: dict, warnings: List[str],
           as_json: bool, lines: List[str], started: float, ok: bool):
    """Print the report, canonical JSON or the summary lines; exit 1 unless ok."""
    report = {
        "command": command,
        "input": input_digest,
        "results": results,
        "warnings": sorted(warnings),
    }
    if as_json:
        sys.stdout.write(canonical_dumps(report))
    else:
        for line in lines:
            sys.stdout.write(f"{line}\n")
        for w in sorted(warnings):
            sys.stdout.write(f"warning: {w}\n")
        status = "all checks passed" if ok else "FAILED"
        sys.stdout.write(f"{status} ({time.monotonic() - started:.2f}s)\n")
    if not ok:
        raise SystemExit(1)
