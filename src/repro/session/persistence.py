"""Durable sessions: a write-ahead log plus snapshot compaction.

A :class:`~repro.session.state.FlexibilitySession` lives in memory; a
process crash used to lose every commitment the session had published.
This module makes the session durable with the classic WAL recipe:

* **Write-ahead log** — ``wal.jsonl`` in the journal directory holds one
  JSON record per session event (``ingest`` / ``replan`` / ``retarget`` /
  ``commit``), in
  order, each carrying a monotonically increasing ``seq`` and a CRC-32
  checksum over its canonical encoding.  Events are logged *before* they
  are applied (redo semantics): replaying the log through a fresh session
  reproduces the exact state, because every session mutation is
  deterministic given the event stream.  Appends are flushed always and
  fsynced on ``commit`` records (the events that promise durability to the
  market side) and on snapshots.
* **Snapshot compaction** — every :attr:`SessionJournal.snapshot_every`
  replans the session's full state is encoded once into
  ``snapshot-<seq>.json`` (checksummed, float64 buffers packed as exact
  base64, written via temp-file + rename + directory fsync).  Compaction
  then prunes older snapshots and cuts the WAL back to its header — the
  snapshot covers every logged record — so the journal's size tracks the
  live state, not the session's lifetime.
* **Recovery** — :func:`restore_session` (and
  :meth:`FlexibilitySession.resume`) loads the newest *intact* snapshot
  (read and verified once per resume),
  replays the WAL tail on top of it, and re-attaches the journal so new
  events continue the same ``seq`` line.  A torn final WAL record — the
  signature of dying mid-append — is truncated away; torn *snapshots* are
  skipped in favour of an older one (or a full-log replay).  Corruption
  anywhere else raises :class:`~repro.errors.PersistenceError`: silently
  skipping a mid-log record would resurrect a different session.

The recovery contract, enforced by the ``crash-recovery-equivalence``
conformance invariant and the boundary property tests: killing the
process at *any* event boundary and resuming yields a session whose final
snapshot is bitwise identical to the uninterrupted run's.
"""

from __future__ import annotations

import base64
import json
import os
import zlib
from datetime import datetime, timedelta
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.errors import PersistenceError
from repro.flexoffer.io import (
    aggregated_from_dict,
    aggregated_to_dict,
    any_schedule_from_dict,
    any_schedule_to_dict,
    flexoffer_from_dict,
    flexoffer_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.testing import faults
from repro.timeseries.axis import TimeAxis

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.session.state import FlexibilitySession

#: Wire-format version of journal records (pinned by the WAL header).
JOURNAL_VERSION = 1

#: Version of the snapshot files written: 2 packs the float64 buffers as
#: base64; version 1 (JSON float lists) still loads.
SNAPSHOT_FILE_VERSION = 2
_READABLE_SNAPSHOT_FILE_VERSIONS = (1, 2)

#: WAL file name inside a journal directory.
WAL_NAME = "wal.jsonl"

#: Replans between automatic snapshot compactions (journal default).
DEFAULT_SNAPSHOT_EVERY = 4

#: Event types a journal records — the session's public event surface.
JOURNAL_EVENT_TYPES = ("ingest", "replan", "retarget", "commit")


# ---------------------------------------------------------------------- #
# Record encoding
# ---------------------------------------------------------------------- #


def _checksum(seq: int, kind: str, data: dict[str, Any]) -> int:
    canonical = json.dumps([seq, kind, data], sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8"))


def _canonical(data: Any) -> str:
    """The canonical encoding :func:`_checksum` hashes, refusing NaN/±inf.

    allow_nan=False: a bare NaN/Infinity token is not JSON, and a record
    or snapshot carrying one would wedge every later resume.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _encode_record(seq: int, kind: str, data: dict[str, Any]) -> bytes:
    """One WAL line, ``data`` encoded once for both the CRC and the line.

    The bytes equal ``json.dumps(record, sort_keys=True, separators=(",",
    ":"))`` of ``{"seq", "type", "data", "crc"}`` with ``crc =
    _checksum(seq, kind, data)``: the sorted record is spliced around the
    one canonical ``data`` text.
    """
    try:
        text = _canonical(data)
    except ValueError as exc:
        raise PersistenceError(f"cannot journal {kind!r} record: {exc}") from None
    tag = json.dumps(kind)
    crc = zlib.crc32(f"[{seq},{tag},{text}]".encode("utf-8"))
    return f'{{"crc":{crc},"data":{text},"seq":{seq},"type":{tag}}}\n'.encode("utf-8")


def _decode_record(line: bytes) -> dict[str, Any]:
    """Parse and checksum one WAL line; raises ``ValueError`` when torn."""
    record = json.loads(line.decode("utf-8"))
    if not isinstance(record, dict):
        raise ValueError("record is not an object")
    for key in ("seq", "type", "data", "crc"):
        if key not in record:
            raise ValueError(f"record missing {key!r}")
    if record["crc"] != _checksum(record["seq"], record["type"], record["data"]):
        raise ValueError("checksum mismatch")
    return record


# ---------------------------------------------------------------------- #
# Durable state encoding (superset of the published SessionSnapshot: the
# input buffers and commit bookkeeping recovery needs ride along)
# ---------------------------------------------------------------------- #


def _axis_to_dict(axis: TimeAxis) -> dict[str, Any]:
    return {
        "start": axis.start.isoformat(),
        "resolution_seconds": axis.resolution.total_seconds(),
        "length": axis.length,
    }


def _axis_from_dict(data: dict[str, Any]) -> TimeAxis:
    return TimeAxis(
        start=datetime.fromisoformat(data["start"]),
        resolution=timedelta(seconds=data["resolution_seconds"]),
        length=int(data["length"]),
    )


def _mask_runs(mask: np.ndarray) -> list[list[int]]:
    """A boolean mask as ``[first, stop)`` runs of True (compact, exact)."""
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return [[int(first), int(stop)] for first, stop in zip(edges[::2], edges[1::2])]


def _runs_to_mask(runs: list[list[int]], length: int) -> np.ndarray:
    mask = np.zeros(length, dtype=bool)
    for first, stop in runs:
        mask[first:stop] = True
    return mask


def _pack_floats(values: np.ndarray) -> str:
    """A float64 buffer as base64 of its little-endian bytes (exact)."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _unpack_floats(stored: str | list[float]) -> np.ndarray:
    """Inverse of :func:`_pack_floats`; version-1 snapshots store float lists."""
    if isinstance(stored, str):
        raw = base64.b64decode(stored, validate=True)
        return np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return np.asarray(stored, dtype=np.float64)


def encode_state(session: "FlexibilitySession") -> dict[str, Any]:
    """The session's full durable state (everything recovery must restore)."""
    state = session.state
    return {
        "state_version": state.version,
        "commit_boundary": (
            None if state.commit_boundary is None else state.commit_boundary.isoformat()
        ),
        "households": [
            {
                "index": h.index,
                "household_id": h.household_id,
                "series_name": h.series_name,
                "axis": _axis_to_dict(h.axis),
                "values": _pack_floats(h.values),
                "covered": _mask_runs(h.covered),
                "dirty": bool(h.dirty),
                "offers": [flexoffer_to_dict(o) for o in h.offers],
                "summary": {k: float(v) for k, v in h.summary.items()},
            }
            for h in state.households
        ],
        "aggregates": [aggregated_to_dict(a) for a in state.aggregates],
        "open_schedules": [schedule_to_dict(s) for s in state.open_schedules],
        "schedule": (
            None if state.schedule is None else any_schedule_to_dict(state.schedule)
        ),
        "committed": [schedule_to_dict(s) for s in state.committed],
        "committed_members": sorted(state.committed_members),
        # The target is constructor configuration *except* after a
        # retarget; storing it keeps compaction safe when the retarget
        # record has been pruned from the WAL.
        "target": (
            None
            if session.target is None
            else {
                "name": session.target.name,
                "values": _pack_floats(session.target.values),
            }
        ),
    }


def decode_state(session: "FlexibilitySession", payload: dict[str, Any]) -> None:
    """Restore a durable state payload into a freshly constructed session.

    The session must have been built with the same constructor inputs as
    the journaled one (same fleet axes, extractor, seed, target…) — the
    payload carries state, not configuration.  ``committed_demand`` is not
    stored: it is rebuilt by re-accumulating the committed placements in
    commit order, which reproduces the original float sums bitwise.
    """
    state = session.state
    households = payload["households"]
    if len(households) != len(state.households):
        raise PersistenceError(
            f"snapshot has {len(households)} household(s), session has "
            f"{len(state.households)}; resume with the session the journal "
            "was recorded from"
        )
    for live, stored in zip(state.households, households):
        axis = _axis_from_dict(stored["axis"])
        if (
            live.index != stored["index"]
            or live.household_id != stored["household_id"]
            or live.axis != axis
        ):
            raise PersistenceError(
                f"household {stored['index']} ({stored['household_id']!r}) does "
                "not match the session being restored; resume with the session "
                "the journal was recorded from"
            )
        live.series_name = stored["series_name"]
        live.values = _unpack_floats(stored["values"])
        live.covered = _runs_to_mask(stored["covered"], axis.length)
        live.dirty = bool(stored["dirty"])
        live.offers = tuple(flexoffer_from_dict(o) for o in stored["offers"])
        live.summary = dict(stored["summary"])
    state.version = int(payload["state_version"])
    state.aggregates = tuple(aggregated_from_dict(a) for a in payload["aggregates"])
    state.open_schedules = [schedule_from_dict(s) for s in payload["open_schedules"]]
    state.schedule = (
        None
        if payload["schedule"] is None
        else any_schedule_from_dict(payload["schedule"])
    )
    state.committed = [schedule_from_dict(s) for s in payload["committed"]]
    state.committed_members = set(payload["committed_members"])
    state.commit_boundary = (
        None
        if payload["commit_boundary"] is None
        else datetime.fromisoformat(payload["commit_boundary"])
    )
    stored_target = payload.get("target")
    if stored_target is not None and session.target is not None:
        # A pre-snapshot retarget replaced the constructor target; restore
        # the replacement (axis is fixed, only values/name can change).
        from repro.timeseries.series import TimeSeries

        session.target = TimeSeries(
            session.target.axis,
            _unpack_floats(stored_target["values"]),
            stored_target["name"],
        )
    if session.target is not None:
        axis = session.target.axis
        demand = np.zeros(axis.length)
        for placement in state.committed:
            first = axis.index_of(placement.start)
            energies = placement.interval_energies()
            demand[first : first + energies.size] += energies
        state.committed_demand = demand


# ---------------------------------------------------------------------- #
# The journal
# ---------------------------------------------------------------------- #


def _fsync_directory(directory: Path) -> None:
    """Make the renames and creations inside ``directory`` durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class SessionJournal:
    """One session's durable journal: the WAL plus its snapshots.

    Construct via :meth:`create` (fresh directory) or :meth:`open`
    (existing journal; truncates a torn final record).  The journal is a
    plain directory, inspectable with ``cat`` — ``wal.jsonl`` plus zero or
    more ``snapshot-<seq>.json`` files — and safe to copy while cold.
    """

    def __init__(
        self,
        directory: Path,
        spec: dict[str, Any] | None,
        snapshot_every: int,
        last_seq: int,
        header: bytes,
    ) -> None:
        self.directory = directory
        self.spec = spec
        self.snapshot_every = snapshot_every
        self._last_seq = last_seq
        self._header = header
        self._wal = directory / WAL_NAME
        self._fh = open(self._wal, "ab")
        # The newest snapshot as :meth:`open` read it, handed to the
        # :func:`restore_session` that follows so a resume reads it once.
        self._opened_snapshot: tuple[int, dict[str, Any]] | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def create(
        cls,
        directory: str | Path,
        spec: dict[str, Any] | None = None,
        snapshot_every: int | None = None,
    ) -> "SessionJournal":
        """Start a fresh journal in ``directory`` (created if missing).

        ``spec`` — a :class:`~repro.api.spec.RunSpec` dict — is stored in
        the WAL header so :meth:`FlexibilitySession.resume` can rebuild
        the session without outside help.  Refuses a directory that
        already journals a session: recovery must be an explicit choice
        (:meth:`open` / ``--resume``), never an accidental overwrite.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        wal = directory / WAL_NAME
        if wal.exists() and wal.stat().st_size > 0:
            raise PersistenceError(
                f"journal directory {directory} already holds a session "
                "journal; resume it (or point --journal somewhere fresh)"
            )
        every = DEFAULT_SNAPSHOT_EVERY if snapshot_every is None else snapshot_every
        if every < 1:
            raise PersistenceError(f"snapshot_every must be >= 1, got {every}")
        header = _encode_record(
            0,
            "open",
            {"version": JOURNAL_VERSION, "spec": spec, "snapshot_every": every},
        )
        with open(wal, "wb") as fh:
            fh.write(header)
            fh.flush()
            os.fsync(fh.fileno())
        _fsync_directory(directory)
        return cls(directory, spec, every, last_seq=0, header=header)

    @classmethod
    def open(cls, directory: str | Path) -> "SessionJournal":
        """Open an existing journal, truncating a torn final WAL record."""
        directory = Path(directory)
        wal = directory / WAL_NAME
        if not wal.exists():
            raise PersistenceError(f"no session journal at {directory} (no {WAL_NAME})")
        records, keep_bytes, total_bytes = cls._scan(wal)
        if not records:
            raise PersistenceError(f"{wal} holds no intact records (header lost)")
        header = records[0]
        if header["seq"] != 0 or header["type"] != "open":
            raise PersistenceError(f"{wal} does not start with an 'open' header")
        meta = header["data"]
        if meta.get("version") != JOURNAL_VERSION:
            raise PersistenceError(
                f"unsupported journal version {meta.get('version')} in {wal}"
            )
        if keep_bytes < total_bytes:
            # Torn final record: the signature of dying mid-append.  The
            # event was never applied durably, so dropping it is exactly
            # the at-boundary semantics recovery promises.
            os.truncate(wal, keep_bytes)
        last_seq = records[-1]["seq"]
        journal = cls(
            directory,
            meta.get("spec"),
            meta.get("snapshot_every", DEFAULT_SNAPSHOT_EVERY),
            last_seq=last_seq,
            header=_encode_record(0, "open", meta),
        )
        # Snapshots may outrun the (compacted) WAL records.
        newest = journal.latest_snapshot()
        if newest is not None:
            journal._last_seq = max(journal._last_seq, newest[0])
        journal._opened_snapshot = newest
        return journal

    @staticmethod
    def _scan(wal: Path) -> tuple[list[dict[str, Any]], int, int]:
        """All intact records plus the byte length of the intact prefix."""
        raw = wal.read_bytes()
        records: list[dict[str, Any]] = []
        offset = 0
        previous_seq: int | None = None
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline < 0:
                break  # no terminator: torn tail
            line = raw[offset : newline + 1]
            try:
                record = _decode_record(line[:-1])
            except (ValueError, UnicodeDecodeError) as exc:
                if newline + 1 >= len(raw):
                    break  # corrupt *final* record: torn tail
                raise PersistenceError(
                    f"{wal}: corrupt record mid-log at byte {offset} ({exc}); "
                    "refusing to recover past unreadable history"
                ) from exc
            if previous_seq is not None and record["seq"] <= previous_seq:
                raise PersistenceError(
                    f"{wal}: record sequence went backwards at byte {offset} "
                    f"({previous_seq} -> {record['seq']})"
                )
            previous_seq = record["seq"]
            records.append(record)
            offset = newline + 1
        return records, offset, len(raw)

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest durable event (0 = header only)."""
        return self._last_seq

    def append(self, kind: str, data: dict[str, Any], durable: bool = False) -> int:
        """Log one event record; returns its ``seq``.

        ``durable=True`` (commit events) fsyncs; everything else flushes.
        The ``wal-append`` fault point simulates dying mid-write: a prefix
        of the record is persisted, then
        :class:`~repro.testing.faults.InjectedCrash` flies.
        """
        if kind not in JOURNAL_EVENT_TYPES:
            raise PersistenceError(f"cannot journal event type {kind!r}")
        seq = self._last_seq + 1
        payload = _encode_record(seq, kind, data)
        cut = faults.torn_cut("wal-append", seq, len(payload))
        if cut is not None:
            self._fh.write(payload[:cut])
            self._fh.flush()
            os.fsync(self._fh.fileno())
            raise faults.InjectedCrash(f"torn WAL append at seq {seq}")
        self._fh.write(payload)
        self._fh.flush()
        if durable:
            os.fsync(self._fh.fileno())
        self._last_seq = seq
        return seq

    # ------------------------------------------------------------------ #
    # Snapshots + compaction
    # ------------------------------------------------------------------ #

    def _snapshot_path(self, seq: int) -> Path:
        return self.directory / f"snapshot-{seq:08d}.json"

    def write_snapshot(self, state_payload: dict[str, Any]) -> Path:
        """Persist the state as of :attr:`last_seq`, then compact.

        The state is encoded once, canonically; the CRC is taken over that
        same text (it equals ``_checksum(seq, "snapshot", state)``) and the
        body is written from it.  A non-finite JSON value raises
        :class:`~repro.errors.PersistenceError` before any file is opened
        (the packed float64 buffers are stored as exact bytes).
        The write goes via temp-file + fsync + rename + directory fsync, so
        a crash mid-write leaves either no snapshot or an ignorable torn
        one — never a plausible-looking wrong one — and the snapshot is
        durable before compaction drops the WAL records it covers.
        """
        seq = self._last_seq
        try:
            state = _canonical(state_payload).encode("utf-8")
        except ValueError as exc:
            raise PersistenceError(f"cannot snapshot the session state: {exc}") from None
        crc = zlib.crc32(b'[%d,"snapshot",' % seq)
        crc = zlib.crc32(b"]", zlib.crc32(state, crc))
        path = self._snapshot_path(seq)
        tmp = path.with_suffix(".json.tmp")
        with open(tmp, "wb") as fh:
            fh.write(b'{"version":%d,"seq":%d,"state":' % (SNAPSHOT_FILE_VERSION, seq))
            fh.write(state)
            fh.write(b',"crc":%d}' % crc)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _fsync_directory(self.directory)
        self._opened_snapshot = None
        self._compact(seq)
        return path

    def _compact(self, through_seq: int) -> None:
        """Prune what the snapshot at ``through_seq`` made redundant.

        A snapshot is taken at :attr:`last_seq`, so it covers every logged
        record: older snapshots go, and the WAL is cut back to its header
        line (temp-file + fsync + rename + directory fsync).
        """
        for stale in self.directory.glob("snapshot-*.json"):
            if stale != self._snapshot_path(through_seq):
                stale.unlink()
        tmp = self._wal.with_suffix(".jsonl.tmp")
        with open(tmp, "wb") as fh:
            fh.write(self._header)
            fh.flush()
            os.fsync(fh.fileno())
        self._fh.close()
        os.replace(tmp, self._wal)
        _fsync_directory(self.directory)
        self._fh = open(self._wal, "ab")

    def latest_snapshot(self) -> tuple[int, dict[str, Any]] | None:
        """The newest intact snapshot as ``(seq, state payload)``, if any.

        Torn or checksum-failing snapshots are skipped (an older one, or a
        full-log replay, still recovers the session).
        """
        for path in sorted(self.directory.glob("snapshot-*.json"), reverse=True):
            try:
                body = json.loads(path.read_bytes())
                if body["crc"] != _checksum(body["seq"], "snapshot", body["state"]):
                    continue
                if body.get("version") not in _READABLE_SNAPSHOT_FILE_VERSIONS:
                    continue
            except (ValueError, KeyError, OSError):
                continue
            return int(body["seq"]), body["state"]
        return None

    def tail(self, after_seq: int) -> Iterator[dict[str, Any]]:
        """Event records with ``seq > after_seq``, in log order."""
        records, _, _ = self._scan(self._wal)
        for record in records[1:]:
            if record["seq"] > after_seq:
                yield record

    def close(self) -> None:
        self._fh.close()


# ---------------------------------------------------------------------- #
# Recovery
# ---------------------------------------------------------------------- #


def restore_session(
    session: "FlexibilitySession", journal: "SessionJournal | str | Path"
) -> "FlexibilitySession":
    """Recover ``session`` from its journal and re-attach it.

    ``session`` must be a *fresh* session constructed exactly like the
    journaled one (:meth:`FlexibilitySession.resume` builds it from the
    stored spec; programmatic callers rebuild it themselves).  Recovery
    ordering: newest intact snapshot first, then the WAL tail replayed
    through the ordinary event methods — which re-runs the deterministic
    extraction/aggregation/placement code, so the recovered state is
    bitwise the state the events originally produced.
    """
    if not isinstance(journal, SessionJournal):
        journal = SessionJournal.open(journal)
    if session.journal is not None:
        raise PersistenceError("session already has a journal attached")
    state = session.state
    if state.version > 0 or any(h.covered.any() for h in state.households):
        raise PersistenceError(
            "restore_session needs a freshly constructed session; this one "
            "has already ingested or replanned"
        )
    after = 0
    snapshot, journal._opened_snapshot = journal._opened_snapshot, None
    if snapshot is None:
        snapshot = journal.latest_snapshot()
    session._replaying = True
    try:
        if snapshot is not None:
            seq, payload = snapshot
            decode_state(session, payload)
            after = seq
        for record in journal.tail(after):
            kind, data = record["type"], record["data"]
            if kind == "ingest":
                session.ingest(data["household"], data["first"], data["values"])
            elif kind == "replan":
                session.replan()
            elif kind == "retarget":
                from repro.timeseries.series import TimeSeries

                session.retarget(
                    TimeSeries(
                        session.target.axis,
                        np.asarray(data["values"], dtype=np.float64),
                        data["name"],
                    )
                )
            elif kind == "commit":
                session.commit(datetime.fromisoformat(data["through"]))
            else:  # pragma: no cover - _scan admits only encodable records
                raise PersistenceError(f"unknown journal record type {kind!r}")
    finally:
        session._replaying = False
    session.attach_journal(journal, _resuming=True)
    return session
