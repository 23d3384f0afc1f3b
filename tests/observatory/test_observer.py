"""Observer record schema, serialization, and torn-file tolerance.

The observer JSON contract: every day file round-trips through the
canonical ``observer_line`` serialization, validation rejects structural
corruption loudly, and the ``observations.jsonl`` mirror tolerates the
same crash artifacts (torn final line) the run journal does — mirrored
on ``tests/obs/test_journal_tail.py``.
"""

import copy
import json

import pytest

from repro.analysis.tactics import (
    day_tactics,
    label_tactics,
    label_tactics_reference,
)
from repro.obs import JournalTail
from repro.observatory import (
    ObservatoryError,
    day_file_path,
    list_day_files,
    load_observer_day,
    observer_line,
    read_index,
    read_observations,
    update_index,
    validate_observer,
)
from repro.observatory.observer import OBSERVATIONS_NAME, TELESCOPES

from tests.observatory.conftest import DAYS, OBS_CONFIG


@pytest.fixture()
def record(serial_observatory):
    directory, _ = serial_observatory
    return load_observer_day(day_file_path(directory, DAYS - 1))


class TestSchema:
    def test_round_trip_is_canonical(self, record):
        line = observer_line(record)
        assert line.endswith("\n")
        parsed = json.loads(line)
        assert parsed == record
        assert observer_line(parsed) == line
        validate_observer(parsed)

    def test_day_files_cover_horizon_and_validate(self, serial_observatory):
        directory, result = serial_observatory
        days = [day for day, _ in list_day_files(directory)]
        assert days == list(range(DAYS))
        observations = read_observations(directory)  # validates every file
        assert [r["day"] for r in observations] == days
        assert result.observatory["days"] == DAYS
        assert result.observatory["records"] == sum(
            section["records"]
            for r in observations for section in r["telescopes"].values())

    def test_wrong_type_rejected(self, record):
        bad = dict(record, type="observer_index")
        with pytest.raises(ObservatoryError, match="expected an observer"):
            validate_observer(dict(bad, file="x", sha256="y"))

    def test_missing_telescope_rejected(self, record):
        bad = copy.deepcopy(record)
        del bad["telescopes"][TELESCOPES[0]]
        with pytest.raises(ObservatoryError, match="telescope sections"):
            validate_observer(bad)

    def test_non_integer_count_rejected(self, record):
        bad = copy.deepcopy(record)
        bad["telescopes"]["NT-A"]["events_closed"]["64"] = 1.5
        with pytest.raises(ObservatoryError, match="bad count"):
            validate_observer(bad)

    def test_combo_sum_mismatch_rejected(self, record):
        bad = copy.deepcopy(record)
        bad["tactics"]["sources"] += 1
        with pytest.raises(ObservatoryError, match="sum to sources"):
            validate_observer(bad)

    def test_incoherent_reaction_latency_rejected(self, record):
        bad = copy.deepcopy(record)
        name, entry = next(
            (name, entry) for name, entry in bad["honeyprefixes"].items()
            if entry["first_seen"] is not None)
        entry["reaction_s"] += 1.0
        with pytest.raises(ObservatoryError, match="reaction_s"):
            validate_observer(bad)

    def test_torn_day_file_rejected(self, serial_observatory, tmp_path):
        directory, _ = serial_observatory
        torn = tmp_path / "observer-00000.json"
        torn.write_text(day_file_path(directory, 0).read_text()[:-20])
        with pytest.raises(ObservatoryError, match="unreadable day file"):
            load_observer_day(torn)


class TestObservationsStream:
    def test_jsonl_is_day_file_concatenation(self, serial_observatory):
        directory, _ = serial_observatory
        body = b"".join(path.read_bytes()
                        for _, path in list_day_files(directory))
        stream = (directory / OBSERVATIONS_NAME).read_bytes()
        assert stream.startswith(body)
        trailer = stream[len(body):].decode().splitlines()
        assert len(trailer) == 1
        assert json.loads(trailer[0])["type"] == "observatory_end"

    def test_tail_tolerates_torn_final_line(self, serial_observatory,
                                            tmp_path):
        """Mirror of the journal-tail crash contract for observations."""
        directory, _ = serial_observatory
        path = tmp_path / OBSERVATIONS_NAME
        complete = (directory / OBSERVATIONS_NAME).read_bytes()
        path.write_bytes(complete + b'{"v": 1, "type": "observer", "da')

        tail = JournalTail(path)
        records = tail.poll()
        assert [r["day"] for r in records if r["type"] == "observer"] \
            == list(range(DAYS))
        assert records[-1]["type"] == "observatory_end"
        assert tail.poll() == []  # torn line held back, never yielded


class TestIndex:
    def test_index_matches_day_files(self, serial_observatory):
        directory, _ = serial_observatory
        entries = read_index(directory)
        assert [e["day"] for e in entries] == list(range(DAYS))
        for entry in entries:
            assert entry["type"] == "observer_index"
            assert len(entry["sha256"]) == 64

    def test_update_is_idempotent(self, serial_observatory):
        directory, _ = serial_observatory
        before = read_index(directory)
        assert update_index(directory) == []
        assert read_index(directory) == before

    def test_forked_history_refused(self, serial_observatory, tmp_path):
        import shutil

        directory, _ = serial_observatory
        clone = tmp_path / "data"
        shutil.copytree(directory, clone)
        day0 = day_file_path(clone, 0)
        record = json.loads(day0.read_text())
        record["telescopes"]["NT-A"]["records"] += 1  # rewrite history
        day0.write_text(observer_line(record))
        with pytest.raises(ObservatoryError, match="index entry"):
            update_index(clone)

    def test_missing_directory_is_empty(self, tmp_path):
        assert list_day_files(tmp_path / "never-written") == []
        assert read_index(tmp_path / "never-written") == []


class TestDayTactics:
    def test_matches_label_tactics_per_honeyprefix(self, serial_observatory):
        """The vectorized dedupe-then-classify kernel is pinned against
        the reference per-packet classifier on real scenario traffic."""
        from repro.sim import run_scenario

        _directory, _ = serial_observatory
        result = run_scenario(OBS_CONFIG)  # batch run, full records
        nta = result.nta
        checked = 0
        for name in sorted(result.scenario.honeyprefixes):
            hp = result.scenario.honeyprefixes[name]
            selected = nta.select(nta.mask_dst_in(hp.prefix))
            reference = label_tactics_reference(selected, hp)
            combos, sources = day_tactics(selected, hp)
            assert combos == reference.combos, name
            assert sources == reference.total_sources, name
            assert label_tactics(selected, hp) == reference, name
            checked += bool(len(selected))
        assert checked > 0  # the scenario actually exercised the kernel

    def test_bad_source_length_rejected(self):
        from repro.analysis.records import PacketRecords

        with pytest.raises(ValueError):
            day_tactics(PacketRecords.empty(), None, source_length=0)
