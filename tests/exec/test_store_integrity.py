"""Store integrity: checksums, verify/scrub, real crashed-writer tails.

Every new shard line carries a content checksum; reads verify it, so a
tampered or torn record is quarantined (counted, logged, re-measured)
instead of silently serving wrong bytes.  ``verify`` audits without
touching anything; ``scrub`` repairs in place.  The crashed-writer
tests use *real* subprocess writers dying mid-append.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.exec import (
    ExperimentPlan,
    ResultStore,
    SerialExecutor,
)
from repro.exec import faults
from repro.exec.faults import FaultPlan
from repro.exec.store import record_checksum, render_record
from repro.sim import Machine, MachineConfig

_DURATION = 1.0


@pytest.fixture()
def measurement(machine, small_kernel_factory):
    return machine.run(
        small_kernel_factory("add", count=24), MachineConfig(1, 1), _DURATION
    )


class TestChecksums:
    def test_new_records_are_checksummed(self, measurement, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ab" * 16, measurement)
        (line,) = (store.shard_dir / "ab.jsonl").read_bytes().splitlines()
        payload = json.loads(line)
        assert payload["sum"] == record_checksum(
            "ab" * 16, payload["measurement"]
        )
        assert line + b"\n" == render_record("ab" * 16, measurement.to_dict())

    def test_checksum_survives_json_round_trip(self, measurement):
        """Shortest-repr float round-tripping: the checksum recomputed
        from a *parsed* record matches the one computed at write time."""
        original = measurement.to_dict()
        reparsed = json.loads(json.dumps(original))
        assert record_checksum("k", reparsed) == record_checksum("k", original)

    def test_foreign_formatting_reads_as_the_canonical_body(
        self, measurement, tmp_path, open_store
    ):
        """A valid record in foreign formatting -- its fields reordered,
        no spaces -- fails the sliced check, verifies by recomputation,
        and reads as the body text the store itself would have written;
        ``get`` decodes that text to the original measurement."""
        key = "ab" * 16
        canonical = render_record(key, measurement.to_dict())
        payload = json.loads(canonical)
        foreign = json.dumps(
            dict(reversed(list(payload.items()))), separators=(",", ":")
        )
        (tmp_path / "shards").mkdir()
        (tmp_path / "shards" / "ab.jsonl").write_text(foreign + "\n")
        store = open_store(tmp_path)
        body = store.get_body(key)
        assert b'"measurement": ' + body + b', "sum": ' in canonical
        assert store.get(key) == measurement
        assert (store.hits, store.misses) == (2, 0)
        assert store.fault_stats() == {}

    def test_tampered_record_is_a_counted_miss(
        self, measurement, tmp_path, open_store
    ):
        writer = open_store(tmp_path)
        writer.put("ab" * 16, measurement)
        shard = writer.shard_dir / "ab.jsonl"
        payload = json.loads(shard.read_bytes())
        payload["measurement"]["mean_power"] += 1.0  # bit-rot stand-in
        shard.write_bytes(json.dumps(payload).encode() + b"\n")
        store = open_store(tmp_path)
        assert store.get("ab" * 16) is None
        assert store.fault_stats()["checksum_failures"] == 1
        report = store.verify()
        assert not report.ok and report.checksum_mismatches == 1

    def test_sumless_edited_record_is_a_counted_miss(
        self, measurement, tmp_path, open_store
    ):
        """Without its checksum an edited record is indistinguishable
        from a genuine one, so a line without ``sum`` is never served."""
        writer = open_store(tmp_path)
        writer.put("ab" * 16, measurement)
        shard = writer.shard_dir / "ab.jsonl"
        payload = json.loads(shard.read_bytes())
        del payload["sum"]
        payload["measurement"]["mean_power"] += 1.0
        shard.write_bytes(json.dumps(payload).encode() + b"\n")
        store = open_store(tmp_path)
        assert store.get("ab" * 16) is None
        assert store.misses == 1 and store.hits == 0
        assert store.fault_stats() == {"checksum_failures": 1}
        report = store.verify()
        assert not report.ok
        assert report.checksum_mismatches == 1 and report.checksummed == 0
        scrubbed = store.scrub()
        assert scrubbed.dropped == 1 and scrubbed.keys == 0
        assert shard.read_bytes() == b""
        assert ResultStore(tmp_path).verify().ok

    def test_corrupt_fault_roundtrip_remeasures_bit_identically(
        self, power7_arch, small_kernel_factory, tmp_path, open_store
    ):
        """End to end: a lying record (valid JSON, wrong payload) is
        caught on read and re-measured to the fault-free bytes."""
        kernel = small_kernel_factory("mulld", count=24)
        plan = ExperimentPlan.single(kernel, MachineConfig(1, 1), _DURATION)
        clean = SerialExecutor(Machine(power7_arch)).run(plan)
        with faults.injected(FaultPlan(seed=1).arm("corrupt")):
            SerialExecutor(
                Machine(power7_arch), store=open_store(tmp_path)
            ).run(plan)
        assert ResultStore(tmp_path).verify().checksum_mismatches == 1
        # The warm re-run detects the lie, re-measures, overwrites.
        store = open_store(tmp_path)
        rerun = SerialExecutor(Machine(power7_arch), store=store).run(plan)
        assert rerun == clean
        assert store.fault_stats()["checksum_failures"] == 1
        assert open_store(tmp_path).get(store.keys()[0]) == clean[0]


class TestVerifyScrub:
    @pytest.fixture()
    def damaged_store(self, measurement, tmp_path):
        """One shard carrying every damage class at once."""
        store = ResultStore(tmp_path)
        store.put("ab" * 16, measurement)  # valid, checksummed
        store.put("ab" * 16, measurement)  # superseded duplicate
        shard = store.shard_dir / "ab.jsonl"
        with shard.open("ab") as handle:
            handle.write(b"{not json at all\n")  # corrupt line
            tampered = json.loads(
                render_record("ab" + "11" * 15, measurement.to_dict())
            )
            tampered["measurement"]["mean_power"] += 5.0
            handle.write(json.dumps(tampered).encode() + b"\n")  # mismatch
            handle.write(b'{"format": "repro-result-v1", "key": "ab')  # torn
        return ResultStore(tmp_path)

    def test_verify_classifies_every_damage(self, damaged_store):
        report = damaged_store.verify()
        assert not report.ok
        assert report.shards == 1
        assert report.checksummed == 2  # the duplicate pair
        assert report.corrupt_lines == 1
        assert report.checksum_mismatches == 1
        assert report.torn_tails == 1
        # Distinct keys *seen*, including the unservable mismatched one.
        assert report.keys == 2
        assert "torn tail" in "; ".join(report.problems)

    def test_verify_is_read_only(self, damaged_store):
        shard = damaged_store.shard_dir / "ab.jsonl"
        before = shard.read_bytes()
        damaged_store.verify()
        assert shard.read_bytes() == before

    def test_scrub_repairs_and_compacts(
        self, damaged_store, measurement, open_store
    ):
        report = damaged_store.scrub()
        assert report.dropped >= 3  # corrupt + mismatch + torn remnant
        assert report.compacted == 1  # the superseded duplicate
        after = open_store(damaged_store.root)
        clean = after.verify()
        assert clean.ok
        assert clean.keys == 1
        # The surviving measurement is byte-identical.
        assert after.get("ab" * 16) == measurement
        # The mismatched record is gone (re-measures next run).
        assert after.get("ab" + "11" * 15) is None

    def test_scrub_clean_store_is_a_no_op(self, measurement, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ab" * 16, measurement)
        shard = store.shard_dir / "ab.jsonl"
        before = shard.read_bytes()
        report = store.scrub()
        assert report.dropped == 0 and report.compacted == 0
        assert shard.read_bytes() == before


class TestIoErrorAccounting:
    def test_get_oserror_counted_and_warned_once_per_shard(
        self, measurement, tmp_path, caplog, open_store
    ):
        store = open_store(tmp_path)
        store.put("ab" * 16, measurement)
        store.put("ab" + "cd" * 15 + "ef", measurement)
        with faults.injected(FaultPlan().arm("io", times=1)):
            with caplog.at_level("WARNING", logger="repro.exec.store"):
                assert store.get("ab" * 16) is None
                assert store.get("ab" + "cd" * 15 + "ef") is None
        assert store.fault_stats()["io_errors"] == 2
        warnings = [
            record
            for record in caplog.records
            if "store I/O error" in record.getMessage()
        ]
        assert len(warnings) == 1  # warn-once per shard, count them all
        # The faults were transient: the records are still served.
        assert store.get("ab" * 16) == measurement


_WRITER_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.exec import ResultStore
    from repro.march import get_architecture
    from repro.sim import Machine, MachineConfig
    from repro.workloads import daxpy_kernels

    arch = get_architecture("POWER7")
    machine = Machine(arch)
    kernel = daxpy_kernels(arch, loop_size=96)[0]
    measurement = machine.run(kernel, MachineConfig(1, 1), 1.0)
    store = ResultStore(sys.argv[1])
    for key in sys.argv[2:]:
        store.put(key, measurement)
    print("DONE")
    """
)


def _writer_env(fault_spec: str | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), "src") if p
    )
    env.pop("REPRO_FAULTS", None)
    if fault_spec:
        env["REPRO_FAULTS"] = fault_spec
    return env


def _expected_measurement(power7_arch):
    from repro.workloads import daxpy_kernels

    machine = Machine(power7_arch)
    kernel = daxpy_kernels(power7_arch, loop_size=96)[0]
    return machine.run(kernel, MachineConfig(1, 1), _DURATION)


class TestConcurrentWriters:
    def test_no_record_lost_or_duplicated_under_contention(
        self, power7_arch, tmp_path, open_store
    ):
        """Two real writer processes interleaving appends on the same
        shards: every record lands exactly once and parses cleanly."""
        keys_a = [f"{i:02x}" + "aa" * 15 for i in range(16)]
        keys_b = [f"{i:02x}" + "bb" * 15 for i in range(16)]
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SCRIPT, str(tmp_path), *keys],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=_writer_env(),
            )
            for keys in (keys_a, keys_b)
        ]
        for writer in writers:
            stdout, stderr = writer.communicate(timeout=120)
            assert writer.returncode == 0, stderr
            assert "DONE" in stdout
        store = open_store(tmp_path)
        assert sorted(store.keys()) == sorted(keys_a + keys_b)
        expected = _expected_measurement(power7_arch)
        for key in keys_a + keys_b:
            assert store.get(key) == expected
        report = store.verify()
        assert report.ok and report.records == 32 and report.keys == 32

    def test_writer_killed_mid_append_loses_only_its_own_record(
        self, power7_arch, tmp_path, open_store
    ):
        """Satellite: a writer dying mid-append (the ``torn`` fault is
        a deterministic kill -9 mid-write) leaves a torn tail that the
        next writer repairs -- nothing else is lost, nothing duplicated.
        """
        torn_key = "ab" * 16
        victim = subprocess.run(
            [sys.executable, "-c", _WRITER_SCRIPT, str(tmp_path), torn_key],
            capture_output=True,
            text=True,
            env=_writer_env("torn:1"),
            timeout=120,
        )
        assert victim.returncode == 109  # died inside the append
        report = ResultStore(tmp_path).verify()
        assert report.torn_tails == 1 and report.records == 0

        # A later writer on the same shard repairs the tail in passing.
        survivor_key = "ab" + "cd" * 15 + "ef"
        survivor = subprocess.run(
            [sys.executable, "-c", _WRITER_SCRIPT, str(tmp_path), survivor_key],
            capture_output=True,
            text=True,
            env=_writer_env(),
            timeout=120,
        )
        assert survivor.returncode == 0, survivor.stderr

        store = open_store(tmp_path)
        expected = _expected_measurement(power7_arch)
        assert store.get(survivor_key) == expected
        # The victim's record never finished: it re-measures next run.
        assert store.get(torn_key) is None
        report = store.verify()
        assert report.torn_tails == 0  # tail terminated by the repair
        assert report.corrupt_lines == 1  # the dead half-record
        assert report.records == 1 and report.keys == 1
        # Scrub removes the remnant entirely.
        assert store.scrub().dropped == 1
        final = open_store(tmp_path)
        assert final.verify().ok
        assert final.get(survivor_key) == expected
