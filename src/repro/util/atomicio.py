"""Crash-safe artifact writes: write-temp-then-atomic-rename.

Every artifact the pipeline emits (``psrs.jsonl``, ``metrics.jsonl``,
``trace.json``, ``manifest.json``, the tables, checkpoints) goes through
:func:`atomic_write`: content lands in a temporary file in the *same
directory* (same filesystem, so the rename is atomic), is flushed and
fsynced, and only then replaces the destination via :func:`os.replace`.
A process killed mid-write leaves either the previous complete file or
no file — never a torn artifact.  The temporary file is created with mode
0o666 under the process umask, as :func:`open` creates a file, so the
artifact gets the permissions a plain write would give it.

    with atomic_write(path) as handle:
        handle.write(...)

On any exception inside the block the temporary file is removed and the
destination is left untouched.

The fsync is what makes the rename durable across a power loss, not just
a process kill: without it the kernel may commit the rename before the
data, and the file can come back empty, short or zero-filled.  Only a
writer whose readers verify every file they load may give that up:
the disk cache's entries carry their own payload digest and read as
misses when damaged, so :meth:`repro.perf.diskcache.DiskCache.store`
passes ``durable=False``.  Everything else keeps the default.

Append-only files (the run ledger) use :func:`append_line` instead: one
``os.write`` of the whole newline-terminated record onto an ``O_APPEND``
descriptor.  A crash mid-write leaves at most one torn final line, which
the ledger loader tolerates; the next append self-heals by inserting a
newline before its record when the file does not end with one.
"""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from typing import IO, Iterator


@contextmanager
def atomic_write(path: str, mode: str = "w", encoding: str = "utf-8", *,
                 durable: bool = True) -> Iterator[IO]:
    """Open a temp file next to ``path``; atomically rename on success.

    ``mode`` must be a write mode (``"w"`` or ``"wb"``); text mode uses
    ``encoding`` (binary mode ignores it).  ``durable=False`` skips the
    fsync before the rename (see the module docstring for who may).
    """
    if "w" not in mode:
        raise ValueError(f"atomic_write needs a write mode, got {mode!r}")
    tmp_path = f"{os.path.abspath(path)}.{secrets.token_hex(8)}.tmp"
    # Not tempfile.mkstemp: it always creates mode 0600, and the rename
    # would keep that mode whatever the umask.
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    binary = "b" in mode
    handle = os.fdopen(fd, mode, encoding=None if binary else encoding)
    try:
        yield handle
        handle.flush()
        if durable:
            os.fsync(handle.fileno())
        handle.close()
        os.replace(tmp_path, path)
    except BaseException:
        handle.close()
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def append_line(path: str, line: str, encoding: str = "utf-8") -> None:
    """Append one newline-terminated record to ``path`` crash-tolerantly.

    The whole record goes down in a single ``os.write`` on an ``O_APPEND``
    descriptor and is fsynced before the descriptor closes, so concurrent
    appenders never interleave bytes and a crash leaves at most one torn
    final line.  If an earlier crash left the file without a trailing
    newline, the write is prefixed with one so the torn tail stays a
    single recoverable line instead of corrupting this record too.
    """
    data = line if line.endswith("\n") else line + "\n"
    payload = data.encode(encoding)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        if os.fstat(fd).st_size > 0:
            with open(path, "rb") as tail:
                tail.seek(-1, os.SEEK_END)
                if tail.read(1) != b"\n":
                    payload = b"\n" + payload
        os.write(fd, payload)
        os.fsync(fd)
    finally:
        os.close(fd)
