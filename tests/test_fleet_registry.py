"""Tests for the fleet margin registry: event log, replay, snapshots,
compaction, and crash-safety."""

import json
import os

import pytest

from repro.fleet import (EVENT_KINDS, MarginRegistry, NodeRecord,
                        RegistryError, RegistryEvent)


def test_event_kinds_cover_the_design():
    assert set(EVENT_KINDS) == {"profile", "demote", "promote",
                                "retire", "thermal", "drift", "adapt"}


def test_sequence_numbers_are_monotonic():
    reg = MarginRegistry()
    events = [reg.record_profile(i, 800) for i in range(5)]
    assert [e.seq for e in events] == [1, 2, 3, 4, 5]
    assert reg.last_seq == 5


def test_profile_sets_margin_and_clears_demotion():
    reg = MarginRegistry()
    reg.record_profile(0, 800, channel_margins=(800, 1000))
    reg.record_demotion(0, 400, reason="epoch trip")
    assert reg.node(0).effective_margin_mts == 400
    reg.record_profile(0, 600, time_s=10.0)
    rec = reg.node(0)
    assert rec.demoted_margin_mts is None
    assert rec.effective_margin_mts == 600
    assert rec.profiled_at_s == 10.0


def test_promotion_back_to_profile_clears_cap():
    reg = MarginRegistry()
    reg.record_profile(0, 800)
    reg.record_demotion(0, 400)
    reg.record_promotion(0, 600)
    assert reg.node(0).effective_margin_mts == 600
    reg.record_promotion(0, 800)
    assert reg.node(0).demoted_margin_mts is None
    assert reg.node(0).effective_margin_mts == 800


def test_retirement_is_sticky():
    reg = MarginRegistry()
    reg.record_profile(0, 800)
    reg.record_retirement(0, reason="out of healthy modules")
    assert reg.node(0).effective_margin_mts == 0
    # Even a later profile cannot resurrect a retired node.
    reg.record_profile(0, 800)
    assert reg.node(0).effective_margin_mts == 0
    assert reg.node(0).margin_bucket == 0


def test_unprofiled_node_is_at_spec():
    reg = MarginRegistry()
    reg.record_advisory(3, reason="profiling failed")
    rec = reg.node(3)
    assert rec.effective_margin_mts == 0
    assert rec.advisories == 1


def test_unknown_kind_and_bad_node_rejected():
    reg = MarginRegistry()
    with pytest.raises(ValueError):
        reg.record("reboot", 0)
    with pytest.raises(ValueError):
        reg.record_profile(-1, 800)


def test_roundtrip_through_event_log(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800, time_s=1.0, channel_margins=(900, 800))
    reg.record_profile(1, 600, time_s=1.0)
    reg.record_demotion(1, 200, time_s=2.0, reason="CE rate")
    reloaded = MarginRegistry(tmp_path / "fleet")
    assert reloaded.last_seq == 3
    assert reloaded.effective_margins() == [800, 200]
    assert reloaded.node(0).channel_margins == (900, 800)


def test_snapshot_plus_tail_replay(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)
    reg.write_snapshot()
    reg.record_demotion(0, 400)          # after the snapshot
    reloaded = MarginRegistry(tmp_path / "fleet")
    assert reloaded.effective_margins() == [400]
    assert reloaded.last_seq == 2


def test_compaction_preserves_state_and_truncates_log(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    for i in range(4):
        reg.record_profile(i, 800)
    reg.record_retirement(2)
    before = reg.snapshot_bytes()
    assert reg.compact() == 5
    assert (tmp_path / "fleet" / "events.jsonl").read_text() == ""
    reloaded = MarginRegistry(tmp_path / "fleet")
    assert reloaded.snapshot_bytes() == before
    # Events keep sequencing from where compaction left off.
    event = reloaded.record_demotion(0, 200)
    assert event.seq == 6


def test_truncated_final_line_is_tolerated(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)
    reg.record_profile(1, 600)
    events = tmp_path / "fleet" / "events.jsonl"
    with open(events, "a") as fh:
        fh.write('{"seq":3,"time_s":0.0,"node":2,"ki')   # crash mid-append
    reloaded = MarginRegistry(tmp_path / "fleet")
    assert reloaded.last_seq == 2
    assert not reloaded.has_node(2)


def test_corruption_before_the_tail_raises(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)
    reg.record_profile(1, 600)
    events = tmp_path / "fleet" / "events.jsonl"
    lines = events.read_text().splitlines()
    lines[0] = lines[0][:20]
    events.write_text("\n".join(lines) + "\n")
    with pytest.raises(RegistryError):
        MarginRegistry(tmp_path / "fleet")


def test_sequence_gap_raises(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)
    event = RegistryEvent(seq=5, time_s=0.0, node=1, kind="profile",
                          payload={"margin_mts": 600})
    with open(tmp_path / "fleet" / "events.jsonl", "a") as fh:
        fh.write(event.to_json() + "\n")
    with pytest.raises(RegistryError):
        MarginRegistry(tmp_path / "fleet")


def test_snapshot_write_is_atomic_replace(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)
    path = reg.write_snapshot()
    first = path.read_bytes()
    reg.record_demotion(0, 0)
    reg.write_snapshot()
    assert path.read_bytes() != first
    assert not list((tmp_path / "fleet").glob("*.tmp"))
    # The snapshot is valid canonical JSON with sorted keys.
    doc = json.loads(path.read_text())
    assert doc["format"] == 1
    assert doc["last_seq"] == 2


def test_create_false_requires_existing_registry(tmp_path):
    with pytest.raises(RegistryError):
        MarginRegistry(tmp_path / "missing", create=False)
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)
    reloaded = MarginRegistry(tmp_path / "fleet", create=False)
    assert reloaded.effective_margins() == [800]


def test_in_memory_registry_has_no_snapshot_file():
    reg = MarginRegistry()
    reg.record_profile(0, 800)
    with pytest.raises(RegistryError):
        reg.write_snapshot()
    assert reg.snapshot_bytes().endswith(b"\n")


def test_bucket_counts_ordered_fastest_first():
    reg = MarginRegistry()
    reg.record_profile(0, 600)
    reg.record_profile(1, 800)
    reg.record_profile(2, 0)
    assert list(reg.bucket_counts().items()) == [(800, 1), (600, 1),
                                                 (0, 1)]


def test_node_record_roundtrip():
    rec = NodeRecord(node=3, margin_mts=600, channel_margins=(600, 800),
                     profiled_at_s=1.5, demoted_margin_mts=200,
                     retired=False, advisories=2, last_seq=9)
    assert NodeRecord.from_dict(rec.to_dict()) == rec


# -- crash repair + WAL windows (PR 3 recovery support) ---------------------------


def test_repair_log_drops_torn_tail(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)
    reg.record_profile(1, 600)
    torn = '{"seq":3,"time_s":'
    with open(reg.events_path, "a") as fh:
        fh.write(torn)
    dropped = MarginRegistry(tmp_path / "fleet").repair_log()
    assert dropped == len(torn)
    # The repaired log appends cleanly from the surviving sequence.
    reloaded = MarginRegistry(tmp_path / "fleet")
    assert reloaded.last_seq == 2
    event = reloaded.record_profile(2, 400)
    assert event.seq == 3
    assert MarginRegistry(tmp_path / "fleet").last_seq == 3


def test_append_after_torn_tail_survives_reload(tmp_path):
    """Regression: the first append after loading a torn log used to
    land straight after the fragment, so a reload dropped it (the
    merged line reads as one torn tail) and lost an acknowledged
    event."""
    reg = MarginRegistry(tmp_path / "fleet")
    for node in range(3):
        reg.record_profile(node, 800)
    with open(reg.events_path, "a") as fh:
        fh.write('{"seq":4,"time_s":')
    reopened = MarginRegistry(tmp_path / "fleet")
    assert reopened.record_profile(3, 600).seq == 4
    reloaded = MarginRegistry(tmp_path / "fleet")
    assert reloaded.last_seq == 4
    assert reloaded.node(3).margin_mts == 600
    assert reloaded.events_path.read_text().endswith("\n")


def test_append_after_unterminated_final_line(tmp_path):
    """A crash between an event's bytes and its newline leaves a valid
    but unterminated line; the next append must not join onto it."""
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)
    reg.record_profile(1, 600)
    reg.events_path.write_text(reg.events_path.read_text()[:-1])
    reopened = MarginRegistry(tmp_path / "fleet")
    assert reopened.last_seq == 2
    reopened.record_demotion(0, 200)
    reloaded = MarginRegistry(tmp_path / "fleet")
    assert reloaded.last_seq == 3
    assert reloaded.node(0).effective_margin_mts == 200


def test_repair_log_is_noop_when_clean(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)
    before = reg.events_path.read_bytes()
    assert reg.repair_log() == 0
    assert reg.events_path.read_bytes() == before


def test_repair_log_noop_in_memory():
    assert MarginRegistry().repair_log() == 0


def test_repair_log_rejects_mid_file_corruption(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)
    reg.record_profile(1, 600)
    lines = reg.events_path.read_text().splitlines()
    lines[0] = lines[0][:15]
    reg.events_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(RegistryError):
        reg.repair_log()


def test_events_since_filters_seq_and_node(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)               # seq 1
    reg.record_profile(1, 600)               # seq 2
    reg.record_demotion(0, 400)              # seq 3
    reg.record_demotion(1, 200)              # seq 4
    events, complete = reg.events_since(2)
    assert complete
    assert [e.seq for e in events] == [3, 4]
    events, complete = reg.events_since(1, node=0)
    assert complete
    assert [e.seq for e in events] == [3]
    events, complete = reg.events_since(4)
    assert complete and events == []


def test_concurrent_readers_see_clean_prefix(tmp_path):
    """The single-writer-per-shard contract's reader half: while one
    writer appends, a reader loading the directory sees a clean prefix
    of the log (at worst one torn tail line, which the load path
    drops) — never a sequence gap or a RegistryError."""
    import threading

    total = 300
    writer = MarginRegistry(tmp_path / "fleet")
    errors = []
    observed = []

    def write():
        for i in range(total):
            writer.record_profile(i % 8, 800 if i % 2 else 600,
                                  time_s=float(i))

    thread = threading.Thread(target=write)
    thread.start()
    try:
        while thread.is_alive():
            try:
                observed.append(
                    MarginRegistry(tmp_path / "fleet").last_seq)
            except RegistryError as exc:    # pragma: no cover
                errors.append(exc)
                break
    finally:
        thread.join()
    assert not errors
    # Each loaded prefix is consistent and progress is monotone.
    assert observed == sorted(observed)
    assert MarginRegistry(tmp_path / "fleet").last_seq == total


def test_events_since_incomplete_past_retention_horizon(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)               # seq 1
    reg.record_demotion(0, 400)              # seq 2
    reg.compact()                            # folds 1-2 into snapshot
    reg.record_demotion(0, 200)              # seq 3
    # Compaction drops the folded events from memory too (a
    # long-running daemon would otherwise retain every event forever),
    # so the compacting process and a fresh load agree: seq 0 predates
    # the retention horizon and event-by-event replay is impossible.
    events, complete = reg.events_since(0)
    assert not complete
    assert [e.seq for e in events] == [3]
    reloaded = MarginRegistry(tmp_path / "fleet")
    events, complete = reloaded.events_since(0)
    assert not complete
    # From the horizon on, the tail is fully retained.
    events, complete = reloaded.events_since(2)
    assert complete
    assert [e.seq for e in events] == [3]
