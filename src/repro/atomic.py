"""Atomic file replacement: readers see the old file or the new one.

Result-cache entries, epoch checkpoints, their sidecar manifests and
heartbeat progress files are all rewritten while other processes may
read them.  Each write goes to a temp file in the target's directory
(``.tmp-*`` plus the target's extension, so directory scans that skip
dot-files or match on a full name never pick it up) and lands with one
``os.replace``.  The temp file is removed whenever the write fails.
It lands with the mode a plain ``open()`` would give a new file
(``0o666`` less the umask), not ``mkstemp``'s private ``0o600``, so
other accounts watching a cache or heartbeat directory can read it.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from typing import IO, Iterator


def _umask() -> int:
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


#: Reading the umask means setting it, which is not thread-safe; read
#: it once, at import.
_FILE_MODE = 0o666 & ~_umask()


@contextmanager
def atomic_write(path: str, mode: str = "wb") -> Iterator[IO]:
    """Yield a handle whose contents replace ``path`` on a clean exit."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix=os.path.splitext(path)[1])
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.chmod(tmp, _FILE_MODE)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
