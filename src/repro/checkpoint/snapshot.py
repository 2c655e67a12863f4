"""On-disk snapshot format: versioned, checksummed, atomically written.

A snapshot file is::

    8 bytes   magic        b"GIDSCKPT"
    4 bytes   version      little-endian uint32
    4 bytes   payload CRC  little-endian uint32 (zlib.crc32 of the payload)
    8 bytes   payload len  little-endian uint64
    N bytes   payload      pickled plain-dict state

The payload is a plain dict of builtins and NumPy arrays produced by the
``state_dict`` protocol — no library classes are pickled, so old
snapshots keep loading across refactors as long as the dict schema is
understood.  Writes are crash-safe and streamed: the payload is pickled
straight into a same-directory temp file (the header's CRC and length are
patched in once they are known), which is fsynced and then atomically
renamed over the final path, so a reader never observes a half-written
snapshot and the writer never holds a second copy of it.  Readers verify
magic, version, length and CRC and raise
:class:`~repro.errors.CheckpointCorruptError` on any mismatch — this is
what lets the supervisor skip a torn/corrupted latest snapshot and fall
back to an older one.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import struct
import zlib

from ..errors import CheckpointCorruptError, CheckpointError

#: File magic identifying a GIDS checkpoint snapshot.
SNAPSHOT_MAGIC = b"GIDSCKPT"

#: Current snapshot format version.
SNAPSHOT_VERSION = 1

_HEADER = struct.Struct("<8sIIQ")


class _ChecksumWriter:
    """Binary sink keeping the CRC-32 and byte count of what passes through."""

    def __init__(self, handle) -> None:
        self._handle = handle
        self.crc = 0
        self.length = 0

    def write(self, chunk) -> None:
        # Large arrays arrive as ``pickle.PickleBuffer``, whose ``len`` is
        # not its size in bytes (and may not exist): count ``nbytes``.
        view = memoryview(chunk)
        self.crc = zlib.crc32(view, self.crc)
        self.length += view.nbytes
        self._handle.write(view)


def _discard(tmp_path: str) -> None:
    with contextlib.suppress(OSError):
        os.unlink(tmp_path)


def write_snapshot(path: str, payload: dict) -> int:
    """Atomically write ``payload`` as a snapshot file; returns bytes written.

    The payload must be a plain dict (the ``state_dict`` protocol).  It is
    pickled straight into a temp file in the same directory while the CRC
    and length accumulate, the header is patched in afterwards, then fsync +
    ``os.replace`` — so no second copy of the snapshot is held in memory,
    and a crash mid-write leaves either the old file or no file, never a
    torn one.  The bytes are those of ``header + pickle.dumps(payload)``.
    """
    if not isinstance(payload, dict):
        raise CheckpointError(
            f"snapshot payload must be a dict, got {type(payload).__name__}"
        )
    tmp_path = f"{path}.tmp"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(bytes(_HEADER.size))
            body = _ChecksumWriter(handle)
            pickle.dump(payload, body, protocol=pickle.HIGHEST_PROTOCOL)
            handle.seek(0)
            handle.write(
                _HEADER.pack(
                    SNAPSHOT_MAGIC, SNAPSHOT_VERSION, body.crc, body.length
                )
            )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except OSError as exc:
        _discard(tmp_path)
        raise CheckpointError(f"cannot write snapshot {path!r}: {exc}") from exc
    except Exception as exc:  # whatever the payload's reducers raise
        _discard(tmp_path)
        raise CheckpointError(
            f"snapshot payload is not picklable: {exc}"
        ) from exc
    return _HEADER.size + body.length


def read_snapshot(path: str) -> dict:
    """Read and verify a snapshot file written by :func:`write_snapshot`.

    Raises :class:`~repro.errors.CheckpointCorruptError` when the file is
    truncated, has the wrong magic/version, or fails its CRC — and
    :class:`~repro.errors.CheckpointError` when it cannot be read at all.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read snapshot {path!r}: {exc}") from exc
    if len(data) < _HEADER.size:
        raise CheckpointCorruptError(
            f"snapshot {path!r} is truncated ({len(data)} bytes)"
        )
    magic, version, crc, length = _HEADER.unpack_from(data)
    if magic != SNAPSHOT_MAGIC:
        raise CheckpointCorruptError(
            f"snapshot {path!r} has bad magic {magic!r}"
        )
    if version != SNAPSHOT_VERSION:
        raise CheckpointCorruptError(
            f"snapshot {path!r} has unsupported version {version}"
        )
    body = data[_HEADER.size:]
    if len(body) != length:
        raise CheckpointCorruptError(
            f"snapshot {path!r} payload is {len(body)} bytes, "
            f"header says {length}"
        )
    if zlib.crc32(body) != crc:
        raise CheckpointCorruptError(
            f"snapshot {path!r} failed its CRC check"
        )
    try:
        payload = pickle.loads(body)
    except Exception as exc:
        raise CheckpointCorruptError(
            f"snapshot {path!r} payload does not unpickle: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise CheckpointCorruptError(
            f"snapshot {path!r} payload is not a dict"
        )
    return payload
