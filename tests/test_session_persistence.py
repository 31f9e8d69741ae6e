"""Durable sessions: WAL journal, snapshot compaction, crash recovery.

The contract under test (docs/ARCHITECTURE.md, "Durability"): every
session event is journaled — checksummed, sequenced, fsynced on commit —
*before* it is applied, snapshots compact the log without losing history,
and killing the process at any event boundary (including mid-append: a
torn final record) resumes to a state bitwise identical to the
uninterrupted run.  The full every-boundary sweep over the CI event
stream and the subprocess SIGKILL drills are tier-2; the core journal
semantics run on every tier-1 pass.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from repro.errors import PersistenceError, SessionError, SessionReplayError
from repro.evaluation.comparison import input_series_for
from repro.session import (
    FlexibilitySession,
    SessionJournal,
    load_session_events,
    replay_session,
    restore_session,
    session_for_spec,
)
from repro.session.persistence import WAL_NAME, decode_state, encode_state
from repro.testing import faults

EVENTS_FILE = Path(__file__).parent.parent / "examples" / "specs" / "session_events.json"


@pytest.fixture(scope="module")
def stream():
    """The CI event stream: spec, fleet, per-household inputs, events."""
    spec, events = load_session_events(EVENTS_FILE)
    from repro.simulation.dataset import generate_fleet

    scenario = spec.scenario
    fleet = generate_fleet(
        scenario.households, scenario.start, scenario.days, seed=scenario.seed
    )
    probe = session_for_spec(spec, fleet=fleet)
    inputs = [input_series_for(probe.extractor, trace) for trace in fleet]
    return spec, fleet, inputs, events


def _fresh(stream):
    spec, fleet, _, _ = stream
    return session_for_spec(spec, fleet=fleet)


def _apply(session, stream, start=0, stop=None):
    _, _, inputs, events = stream
    for event in events[start : len(events) if stop is None else stop]:
        kind = event["type"]
        if kind == "ingest":
            first, count = event["first"], event["count"]
            values = inputs[event["household"]].values[first : first + count]
            session.ingest(event["household"], first, values)
        elif kind == "replan":
            session.replan()
        else:
            session.commit(datetime.fromisoformat(event["through"]))


@pytest.fixture(scope="module")
def uninterrupted_final(stream):
    session = _fresh(stream)
    _apply(session, stream)
    return session.snapshot().to_dict()


# ---------------------------------------------------------------------- #
# Journal mechanics
# ---------------------------------------------------------------------- #


class TestJournal:
    def test_create_append_reopen(self, tmp_path):
        journal = SessionJournal.create(tmp_path, spec={"name": "x"})
        assert journal.last_seq == 0
        assert journal.append("ingest", {"household": 0}) == 1
        assert journal.append("commit", {"through": "t"}, durable=True) == 2
        journal.close()
        reopened = SessionJournal.open(tmp_path)
        assert reopened.last_seq == 2
        assert reopened.spec == {"name": "x"}
        records = list(reopened.tail(0))
        assert [r["type"] for r in records] == ["ingest", "commit"]
        assert [r["seq"] for r in records] == [1, 2]
        assert list(reopened.tail(1)) == [records[1]]

    def test_create_refuses_existing_journal(self, tmp_path):
        SessionJournal.create(tmp_path)
        with pytest.raises(PersistenceError, match="already holds a session journal"):
            SessionJournal.create(tmp_path)

    def test_create_validates_snapshot_every(self, tmp_path):
        with pytest.raises(PersistenceError, match="snapshot_every"):
            SessionJournal.create(tmp_path, snapshot_every=0)

    def test_append_rejects_unknown_event_type(self, tmp_path):
        journal = SessionJournal.create(tmp_path)
        with pytest.raises(PersistenceError, match="cannot journal"):
            journal.append("checkpoint", {})

    def test_open_requires_a_journal(self, tmp_path):
        with pytest.raises(PersistenceError, match="no session journal"):
            SessionJournal.open(tmp_path / "nowhere")

    def test_torn_final_record_is_truncated(self, tmp_path):
        journal = SessionJournal.create(tmp_path)
        journal.append("ingest", {"household": 0})
        journal.append("replan", {})
        journal.close()
        wal = tmp_path / WAL_NAME
        intact = wal.read_bytes()
        # Die mid-append: half an unterminated record at the tail.
        wal.write_bytes(intact + b'{"seq": 3, "type": "ingest", "da')
        reopened = SessionJournal.open(tmp_path)
        assert reopened.last_seq == 2
        assert wal.read_bytes() == intact  # the torn bytes are gone
        # The journal keeps appending cleanly past the truncation.
        assert reopened.append("replan", {}) == 3

    def test_corrupt_record_mid_log_refuses_recovery(self, tmp_path):
        journal = SessionJournal.create(tmp_path)
        journal.append("ingest", {"household": 0})
        journal.append("replan", {})
        journal.close()
        wal = tmp_path / WAL_NAME
        lines = wal.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"ingest"', b'"txegni"')  # checksum breaks
        wal.write_bytes(b"".join(lines))
        with pytest.raises(PersistenceError, match="corrupt record mid-log"):
            SessionJournal.open(tmp_path)

    def test_non_monotonic_seq_refused(self, tmp_path):
        journal = SessionJournal.create(tmp_path)
        journal.append("replan", {})
        journal.close()
        wal = tmp_path / WAL_NAME
        lines = wal.read_bytes().splitlines(keepends=True)
        wal.write_bytes(b"".join(lines) + lines[1] + lines[1])  # replayed line
        with pytest.raises(PersistenceError, match="sequence went backwards"):
            SessionJournal.open(tmp_path)

    def test_snapshot_compaction_prunes_log_and_older_snapshots(
        self, tmp_path, stream
    ):
        session = _fresh(stream)
        session.attach_journal(SessionJournal.create(tmp_path, snapshot_every=1))
        _apply(session, stream, stop=3)  # ingest, ingest, replan -> snapshot
        snapshots = sorted(tmp_path.glob("snapshot-*.json"))
        assert [p.name for p in snapshots] == ["snapshot-00000003.json"]
        # The snapshot covers seq 1-3: the WAL keeps only the header.
        assert list(session.journal.tail(0)) == []
        assert session.journal.last_seq == 3
        _apply(session, stream, start=3, stop=6)  # two ingests + replan
        snapshots = sorted(tmp_path.glob("snapshot-*.json"))
        assert [p.name for p in snapshots] == ["snapshot-00000006.json"]
        reopened = SessionJournal.open(tmp_path)
        assert reopened.last_seq == 6
        seq, _ = reopened.latest_snapshot()
        assert seq == 6

    def test_torn_snapshot_is_ignored_in_favour_of_older_state(self, tmp_path):
        journal = SessionJournal.create(tmp_path)
        journal.append("replan", {})
        path = journal.write_snapshot({"fake": "state"})
        journal.append("replan", {})
        # A snapshot that died mid-write: valid JSON prefix, bad checksum.
        (tmp_path / "snapshot-00000002.json").write_text('{"version": 1, "seq"')
        assert journal.latest_snapshot() == (1, {"fake": "state"})
        assert path.exists()

    def test_attach_requires_pristine_session_and_fresh_journal(
        self, tmp_path, stream
    ):
        used = _fresh(stream)
        _apply(used, stream, stop=1)
        with pytest.raises(PersistenceError, match="mid-session"):
            used.attach_journal(SessionJournal.create(tmp_path / "a"))
        stale = SessionJournal.create(tmp_path / "b")
        stale.append("replan", {})
        with pytest.raises(PersistenceError, match="already holds events"):
            _fresh(stream).attach_journal(stale)
        attached = _fresh(stream)
        attached.attach_journal(SessionJournal.create(tmp_path / "c"))
        with pytest.raises(PersistenceError, match="already has a journal"):
            attached.attach_journal(SessionJournal.create(tmp_path / "d"))


# ---------------------------------------------------------------------- #
# State encoding
# ---------------------------------------------------------------------- #


class TestStateCodec:
    def test_encode_decode_round_trips_bitwise(self, stream):
        session = _fresh(stream)
        _apply(session, stream)
        payload = encode_state(session)
        # The payload must survive the JSON wire (floats via repr).
        payload = json.loads(json.dumps(payload))
        restored = _fresh(stream)
        restored._replaying = True
        decode_state(restored, payload)
        restored._replaying = False
        assert restored.snapshot().to_dict() == session.snapshot().to_dict()
        for live, original in zip(
            restored.state.households, session.state.households
        ):
            np.testing.assert_array_equal(live.values, original.values)
            np.testing.assert_array_equal(live.covered, original.covered)
            assert live.dirty == original.dirty
        np.testing.assert_array_equal(
            restored.state.committed_demand, session.state.committed_demand
        )
        assert restored.state.commit_boundary == session.state.commit_boundary

    def test_decode_refuses_mismatched_fleet(self, stream):
        session = _fresh(stream)
        _apply(session, stream)
        payload = encode_state(session)
        spec, fleet, _, _ = stream
        smaller = FlexibilitySession.for_fleet(
            fleet.traces[:1], extractor=session.extractor, seed=session.seed
        )
        with pytest.raises(PersistenceError, match="household"):
            decode_state(smaller, payload)


# ---------------------------------------------------------------------- #
# Recovery
# ---------------------------------------------------------------------- #


class TestRecovery:
    def _crash_at(self, stream, tmp_path, boundary, snapshot_every=2):
        session = _fresh(stream)
        session.attach_journal(
            SessionJournal.create(tmp_path, snapshot_every=snapshot_every)
        )
        _apply(session, stream, stop=boundary)
        session.journal.close()  # the process "dies" here

    def test_resume_mid_stream_matches_uninterrupted(
        self, tmp_path, stream, uninterrupted_final
    ):
        self._crash_at(stream, tmp_path, boundary=4)
        recovered = restore_session(_fresh(stream), tmp_path)
        assert recovered.journal.last_seq == 4
        _apply(recovered, stream, start=4)
        assert recovered.snapshot().to_dict() == uninterrupted_final

    @pytest.mark.tier2
    @pytest.mark.parametrize("boundary", range(8))
    @pytest.mark.parametrize("snapshot_every", [1, 2, 100])
    def test_every_event_boundary_recovers_bitwise(
        self, tmp_path, stream, uninterrupted_final, boundary, snapshot_every
    ):
        # The acceptance sweep: kill at *every* boundary of the CI event
        # stream, under snapshot cadences that recover via snapshot-only,
        # snapshot + WAL tail, and pure log replay.
        self._crash_at(stream, tmp_path, boundary, snapshot_every=snapshot_every)
        recovered = restore_session(_fresh(stream), tmp_path)
        _apply(recovered, stream, start=boundary)
        assert recovered.snapshot().to_dict() == uninterrupted_final

    def test_torn_wal_append_recovers_to_previous_boundary(
        self, tmp_path, stream, uninterrupted_final
    ):
        session = _fresh(stream)
        session.attach_journal(SessionJournal.create(tmp_path, snapshot_every=2))
        _apply(session, stream, stop=3)
        with faults.inject_faults(faults.FaultSpec("wal-append", mode="torn", index=4)):
            with pytest.raises(faults.InjectedCrash, match="torn WAL append"):
                _apply(session, stream, start=3, stop=4)
        # The event died before applying: the journal holds 3 events plus
        # half a record, and recovery truncates back to the boundary.
        recovered = restore_session(_fresh(stream), tmp_path)
        assert recovered.journal.last_seq == 3
        _apply(recovered, stream, start=3)
        assert recovered.snapshot().to_dict() == uninterrupted_final

    def test_restore_refuses_a_used_session(self, tmp_path, stream):
        self._crash_at(stream, tmp_path, boundary=2)
        used = _fresh(stream)
        _apply(used, stream, stop=1)
        with pytest.raises(PersistenceError, match="freshly constructed"):
            restore_session(used, tmp_path)

    def test_resume_classmethod_rebuilds_from_stored_spec(
        self, tmp_path, stream, uninterrupted_final
    ):
        spec, fleet, _, _ = stream
        session = _fresh(stream)
        session.attach_journal(
            SessionJournal.create(tmp_path, spec=spec.to_dict(), snapshot_every=2)
        )
        _apply(session, stream, stop=5)
        session.journal.close()
        recovered = FlexibilitySession.resume(tmp_path, fleet=fleet)
        _apply(recovered, stream, start=5)
        assert recovered.snapshot().to_dict() == uninterrupted_final

    def test_resume_without_stored_spec_raises(self, tmp_path, stream):
        self._crash_at(stream, tmp_path, boundary=2)
        with pytest.raises(PersistenceError, match="stores no run spec"):
            FlexibilitySession.resume(tmp_path)


class TestNonFiniteReadings:
    """NaN/inf readings are refused at ``ingest``, before the WAL append.

    Accepting one would journal a bare ``NaN`` token (not JSON) and make
    every later replan and resume fail; negative readings stay accepted.
    """

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "neg-inf"]
    )
    def test_rejected_without_touching_the_journal(self, tmp_path, stream, bad):
        poisoned = _fresh(stream)
        poisoned.attach_journal(
            SessionJournal.create(tmp_path / "poisoned", snapshot_every=2)
        )
        clean = _fresh(stream)
        clean.attach_journal(
            SessionJournal.create(tmp_path / "clean", snapshot_every=2)
        )
        _apply(poisoned, stream, stop=3)
        _apply(clean, stream, stop=3)
        wal = tmp_path / "poisoned" / WAL_NAME
        before = wal.read_bytes()
        with pytest.raises(SessionError, match="finite"):
            poisoned.ingest(0, 0, [1.0, bad, -5.0])
        assert wal.read_bytes() == before
        assert poisoned.journal.last_seq == clean.journal.last_seq

        _apply(poisoned, stream, start=3)
        _apply(clean, stream, start=3)
        assert poisoned.replan().to_dict() == clean.replan().to_dict()
        poisoned.journal.close()
        restored = restore_session(_fresh(stream), tmp_path / "poisoned")
        assert restored.snapshot().to_dict() == clean.snapshot().to_dict()
        assert restored.replan().to_dict() == clean.replan().to_dict()

    def test_negative_readings_stay_accepted(self, stream):
        session = _fresh(stream)
        session.ingest(0, 0, [1.0, -5.0])
        session.replan()

    def test_journal_refuses_a_non_finite_record(self, tmp_path):
        journal = SessionJournal.create(tmp_path)
        wal = tmp_path / WAL_NAME
        before = wal.read_bytes()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(PersistenceError, match="cannot journal"):
                journal.append("ingest", {"household": 0, "values": [bad]})
        assert wal.read_bytes() == before
        assert journal.last_seq == 0


# ---------------------------------------------------------------------- #
# replay_session: journal/resume surface + the failed-event report
# ---------------------------------------------------------------------- #


class TestReplaySurface:
    def test_journal_then_resume_full_stream_is_identity(self, tmp_path):
        baseline = replay_session(EVENTS_FILE)
        journaled = replay_session(EVENTS_FILE, journal_dir=tmp_path / "j")
        assert journaled == baseline
        resumed = replay_session(EVENTS_FILE, journal_dir=tmp_path / "j", resume=True)
        # Everything was already applied: the resumed report carries the
        # recovered final state and no new deltas.
        assert resumed["final"] == baseline["final"]
        assert resumed["committed"] == baseline["committed"]
        assert resumed["deltas"] == []

    def test_resume_rejects_foreign_spec(self, tmp_path, stream):
        spec, _, _, _ = stream
        altered = spec.to_dict()
        altered["scenario"]["seed"] = spec.scenario.seed + 1
        SessionJournal.create(tmp_path, spec=altered).close()
        with pytest.raises(SessionError, match="different .* spec"):
            replay_session(EVENTS_FILE, journal_dir=tmp_path, resume=True)

    def test_failed_event_report_survives_the_error(self):
        with faults.inject_faults(
            faults.FaultSpec("session-event", mode="error", index=4)
        ):
            with pytest.raises(SessionReplayError, match=r"events\[4\]") as excinfo:
                replay_session(EVENTS_FILE)
        report = excinfo.value.report
        assert report is not None
        assert report["failed_event"]["position"] == 4
        assert report["failed_event"]["type"] == "ingest"
        assert "injected fault" in report["failed_event"]["error"]
        # Progress up to the failure is preserved: the first replan's row.
        assert len(report["replans"]) == 1
        assert report["final"] is not None

    def test_cli_writes_partial_report_and_exits_nonzero(self, tmp_path):
        out = tmp_path / "report.json"
        env = dict(os.environ)
        env[faults.FAULTS_ENV_VAR] = faults.FaultPlan(
            specs=(faults.FaultSpec("session-event", mode="error", index=4),),
            latch_dir=None,
        ).encode()
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "session",
                "--replay",
                str(EVENTS_FILE),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 1
        assert "wrote partial report" in proc.stderr
        report = json.loads(out.read_text())
        assert report["failed_event"]["position"] == 4

    def test_cli_resume_without_journal_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["session", "--replay", str(EVENTS_FILE), "--resume"]) == 2
        assert "--resume needs --journal" in capsys.readouterr().err


@pytest.mark.tier2
class TestCrashRecoveryDrill:
    """The CI smoke, as a test: SIGKILL ``repro session`` mid-stream via
    the fault harness, then ``--resume`` finishes to the exact report."""

    def _run(self, argv, tmp_path, fault_index=None):
        env = dict(os.environ)
        env.pop(faults.FAULTS_ENV_VAR, None)
        if fault_index is not None:
            env[faults.FAULTS_ENV_VAR] = faults.FaultPlan(
                specs=(
                    faults.FaultSpec("session-event", mode="kill", index=fault_index),
                ),
                latch_dir=None,
            ).encode()
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "session", "--replay",
             str(EVENTS_FILE), *argv],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_sigkill_then_resume_reproduces_the_report(self, tmp_path):
        baseline_out = tmp_path / "baseline.json"
        assert self._run(["--out", str(baseline_out)], tmp_path).returncode == 0
        journal = tmp_path / "journal"
        killed = self._run(["--journal", str(journal)], tmp_path, fault_index=4)
        assert killed.returncode == -signal.SIGKILL
        assert (journal / WAL_NAME).exists()
        resumed_out = tmp_path / "resumed.json"
        resumed = self._run(
            ["--journal", str(journal), "--resume", "--out", str(resumed_out)],
            tmp_path,
        )
        assert resumed.returncode == 0, resumed.stderr
        baseline = json.loads(baseline_out.read_text())
        recovered = json.loads(resumed_out.read_text())
        assert recovered["final"] == baseline["final"]
        assert recovered["committed"] == baseline["committed"]
        assert recovered["committed_stable"]
