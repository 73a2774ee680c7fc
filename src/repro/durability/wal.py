"""The write-ahead log.

Record framing (one record, appended to the current segment file):

    +----------------+----------------+------------------------+
    | length  (u32)  | crc32   (u32)  | payload (length bytes) |
    +----------------+----------------+------------------------+

both header fields big-endian; the payload is the canonical JSON of
``{"lsn": n, "type": "update" | "anchor", "data": {...}}``.  LSNs are
assigned contiguously from 1; segments are named ``wal-<first lsn>.log``
and rotate at ``segment_max_bytes``.

Two record types:

* ``update`` — written after an update passes verification and *before*
  it is applied (log-before-apply), carrying everything needed to
  reconstruct and re-apply it;
* ``anchor`` — the durability marker for a batch: the exact anchored
  ledger payloads plus the post-append tree size and root.  Recovery
  only applies updates it finds covered by an anchor; logged-but-
  unanchored updates were never durable decisions and are dropped.

On open, the log is scanned end to end.  A parse failure at the tail of
the *last* segment with no valid record after it is a torn write from a
crash: the file is truncated back to the last good record.  Any other
damage — a bad CRC followed by valid records, a hole in the LSN
sequence, a broken non-final segment — raises
:class:`~repro.common.errors.WalCorruptionError`; silently skipping a
corrupt decision record would forge history.
"""

import os
import struct
import zlib
from time import perf_counter
from typing import Iterator, List, Optional, Tuple

from repro.common.errors import SerializationError, WalCorruptionError
from repro.common.metrics import MetricsRegistry
from repro.common.serialization import canonical_json, from_canonical_json
from repro.obs.tracing import NOOP_TRACER

_HEADER = struct.Struct(">II")
_RECORD_TYPES = ("update", "anchor")


def _segment_name(first_lsn: int) -> str:
    return f"wal-{first_lsn:012d}.log"


def encode_record(lsn: int, record_type: str, data: dict) -> bytes:
    """Frame one record: length + CRC header, canonical-JSON payload.

    ``data`` may embed :class:`repro.common.encoding.RawJson` fragments
    (the anchor stage passes payloads it already canonically encoded);
    the encoder splices them verbatim, so the framed bytes — and hence
    the CRC — are identical to encoding the plain values from scratch.
    """
    payload = canonical_json(
        {"lsn": lsn, "type": record_type, "data": data}
    ).encode("utf-8")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _try_parse(buf: bytes, offset: int) -> Optional[Tuple[int, str, dict, int]]:
    """Parse the record at ``offset``; None on any damage.

    Returns ``(lsn, type, data, next_offset)`` only when the header,
    CRC, JSON, and record shape all check out.
    """
    if len(buf) - offset < _HEADER.size:
        return None
    length, crc = _HEADER.unpack_from(buf, offset)
    start = offset + _HEADER.size
    payload = buf[start:start + length]
    if len(payload) < length or zlib.crc32(payload) != crc:
        return None
    try:
        record = from_canonical_json(payload.decode("utf-8"))
    except (SerializationError, UnicodeDecodeError):
        return None
    if (not isinstance(record, dict)
            or not isinstance(record.get("lsn"), int)
            or record.get("type") not in _RECORD_TYPES
            or not isinstance(record.get("data"), dict)):
        return None
    return record["lsn"], record["type"], record["data"], start + length


def _has_valid_record_after(buf: bytes, offset: int) -> bool:
    """Probe every byte position past a damaged record for anything
    that still parses — the torn-tail / mid-file-corruption decider."""
    for candidate in range(offset + 1, len(buf) - _HEADER.size + 1):
        if _try_parse(buf, candidate) is not None:
            return True
    return False


class WriteAheadLog:
    """Append-only, CRC-checked, segment-rotated record log."""

    def __init__(
        self,
        directory: str,
        fsync_every: int = 0,
        segment_max_bytes: int = 4 * 1024 * 1024,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ):
        self.directory = directory
        self.fsync_every = fsync_every
        self.segment_max_bytes = segment_max_bytes
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer or NOOP_TRACER
        self._ctr_records = self.metrics.counter("durability.wal_records")
        self._ctr_bytes = self.metrics.counter("durability.wal_bytes")
        self._ctr_fsyncs = self.metrics.counter("durability.fsyncs")
        self._tmr_append = self.metrics.timer("durability.wal_append")
        self._tmr_fsync = self.metrics.timer("durability.fsync")
        self._handle = None
        self._closed = False
        self._segment_path: Optional[str] = None
        self._segment_size = 0
        self._unsynced_updates = 0
        self.last_lsn = 0              # highest durable LSN on disk
        self.truncated_records = 0     # torn records repaired at open
        os.makedirs(directory, exist_ok=True)
        self._open_and_repair()

    # -- opening / recovery scan ------------------------------------------

    def segment_paths(self) -> List[str]:
        """All segment files, oldest first."""
        names = sorted(
            n for n in os.listdir(self.directory)
            if n.startswith("wal-") and n.endswith(".log")
        )
        return [os.path.join(self.directory, n) for n in names]

    def _open_and_repair(self) -> None:
        segments = self.segment_paths()
        expected: Optional[int] = None
        for index, path in enumerate(segments):
            last_segment = index == len(segments) - 1
            expected = self._scan_segment(path, expected, last_segment)
        self.last_lsn = (expected - 1) if expected is not None else 0
        if segments:
            self._segment_path = segments[-1]
            self._segment_size = os.path.getsize(self._segment_path)
            self._handle = open(self._segment_path, "ab")
        # An empty directory opens lazily: the first append creates
        # ``wal-000000000001.log``.

    def _scan_segment(self, path: str, expected: Optional[int],
                      last_segment: bool) -> int:
        """Validate one segment; returns the next expected LSN.

        ``expected`` is None for the first segment (its first record
        pins the sequence — segments before a pruned prefix start at
        whatever LSN the prune left).
        """
        with open(path, "rb") as handle:
            buf = handle.read()
        offset = 0
        while offset < len(buf):
            parsed = _try_parse(buf, offset)
            if parsed is None:
                if last_segment and not _has_valid_record_after(buf, offset):
                    self._truncate_segment(path, buf, offset)
                    break
                raise WalCorruptionError(
                    f"corrupt WAL record in {os.path.basename(path)} at "
                    f"byte {offset}: damaged mid-log record (refusing to "
                    f"skip history)"
                )
            lsn, _, _, next_offset = parsed
            if expected is not None and lsn != expected:
                raise WalCorruptionError(
                    f"WAL sequence broken in {os.path.basename(path)}: "
                    f"expected LSN {expected}, found {lsn}"
                )
            expected = lsn + 1
            offset = next_offset
        if expected is None:
            # A segment that held only a torn record (or was empty).
            first = int(os.path.basename(path)[4:-4])
            expected = first
        return expected

    def _truncate_segment(self, path: str, buf: bytes, offset: int) -> None:
        """Repair a torn tail: cut the file back to the last good record."""
        self.truncated_records += 1
        self.metrics.counter("durability.wal_torn_records").add()
        with open(path, "r+b") as handle:
            handle.truncate(offset)
            handle.flush()
            os.fsync(handle.fileno())

    # -- appends -----------------------------------------------------------

    def append_update(self, data: dict) -> int:
        """Log one accepted update (call *before* applying it)."""
        lsn = self._append("update", data)
        self._unsynced_updates += 1
        if self.fsync_every and self._unsynced_updates >= self.fsync_every:
            self.sync()
        return lsn

    def append_anchor(self, data: dict) -> int:
        """Log a batch-anchor marker and fsync it (group commit: this is
        the one fsync that makes the whole batch durable)."""
        lsn = self._append("anchor", data)
        self.sync()
        return lsn

    def _append(self, record_type: str, data: dict) -> int:
        lsn = self.last_lsn + 1
        frame = encode_record(lsn, record_type, data)
        if self.tracer.enabled:
            with self.tracer.span("durability.wal_append",
                                  record_type=record_type, lsn=lsn,
                                  frame_bytes=len(frame)):
                self._write_frame(lsn, frame)
        else:
            self._write_frame(lsn, frame)
        return lsn

    def _write_frame(self, lsn: int, frame: bytes) -> None:
        start = perf_counter()
        if (self._handle is None
                or (self._segment_size + len(frame) > self.segment_max_bytes
                    and self._segment_size > 0)):
            self._rotate(lsn)
        self._handle.write(frame)
        # flush(): survives a killed *process* without paying for an
        # fsync; power-cut durability comes from sync() at anchors.
        self._handle.flush()
        self._segment_size += len(frame)
        self.last_lsn = lsn
        self._tmr_append.record(perf_counter() - start)
        self._ctr_records.add()
        self._ctr_bytes.add(len(frame))

    def _rotate(self, first_lsn: int) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
        self._segment_path = os.path.join(
            self.directory, _segment_name(first_lsn)
        )
        self._handle = open(self._segment_path, "ab")
        self._closed = False  # appends after close() reopen the log
        self._segment_size = 0
        _fsync_directory(self.directory)

    def sync(self) -> None:
        """fsync the current segment (the durability point)."""
        if self._handle is None:
            return
        start = perf_counter()
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._tmr_fsync.record(perf_counter() - start)
        self._ctr_fsyncs.add()
        self._unsynced_updates = 0

    def writable(self) -> bool:
        """Health probe: True while the log can still take appends.

        False once :meth:`close` ran, or when the segment handle was
        torn down underneath us, or when the directory itself stopped
        being writable.  A fresh log (no segment opened yet) counts as
        writable — the first append opens it lazily.  A False here
        flips the ops server's ``/healthz`` to 503.
        """
        if self._closed:
            return False
        if self._handle is not None and self._handle.closed:
            return False
        return os.access(self.directory, os.W_OK)

    def close(self) -> None:
        """Flush, fsync, and release the current segment handle."""
        self._closed = True
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None

    # -- reads -------------------------------------------------------------

    def records(self, since_lsn: int = 0) -> Iterator[Tuple[int, str, dict]]:
        """Yield ``(lsn, type, data)`` for every record with
        ``lsn > since_lsn``, re-validating frames as it reads."""
        for path in self.segment_paths():
            with open(path, "rb") as handle:
                buf = handle.read()
            offset = 0
            while offset < len(buf):
                parsed = _try_parse(buf, offset)
                if parsed is None:
                    raise WalCorruptionError(
                        f"corrupt WAL record in {os.path.basename(path)} "
                        f"at byte {offset}"
                    )
                lsn, record_type, data, offset = parsed
                if lsn > since_lsn:
                    yield lsn, record_type, data

    # -- maintenance -------------------------------------------------------

    def ensure_next_lsn(self, next_lsn: int) -> None:
        """Guarantee the next append uses at least ``next_lsn``.

        Needed after a snapshot-only recovery whose WAL segments were
        pruned: the snapshot's LSN must not be reissued."""
        if next_lsn - 1 > self.last_lsn:
            self.last_lsn = next_lsn - 1

    def prune(self, upto_lsn: int) -> int:
        """Delete whole segments whose records are all ``<= upto_lsn``.

        The active segment is never deleted.  Returns the number of
        segments removed.  Safe after a snapshot at ``upto_lsn``: every
        record a future recovery could need is newer."""
        segments = self.segment_paths()
        removed = 0
        # A segment is prunable iff the *next* segment starts at or
        # below upto_lsn + 1 (so every record in it is covered).
        for index, path in enumerate(segments[:-1]):
            next_first = int(os.path.basename(segments[index + 1])[4:-4])
            if next_first <= upto_lsn + 1 and path != self._segment_path:
                os.remove(path)
                removed += 1
            else:
                break
        if removed:
            _fsync_directory(self.directory)
            self.metrics.counter("durability.wal_segments_pruned").add(removed)
        return removed


def _fsync_directory(directory: str) -> None:
    """Make a rename/create/unlink in ``directory`` durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
