"""Durable-executor tests: bit-identical resume, and the three typed
recovery findings — torn tail, corrupt checkpoint, stale checkpoint —
each produced by a deliberately damaged journal fixture."""

import numpy as np
import pytest

from repro.analysis.ctstate import ckks_mult_rotate_sequence
from repro.fhe.ckks import CkksContext
from repro.fhe.params import toy_params
from repro.fhe.program import Op, feed_count, live_set, sink_indices
from repro.recover.executor import (JOURNAL_NAME, DivergenceError,
                                    DurableExecutor, golden_outputs_digest)
from repro.recover.journal import (RT_CHECKPOINT, RT_COMMIT, RT_OP_DONE,
                                   JournalError, decode, encode)
from repro.recover.wal import WriteAheadLog, scan

PARAMS = toy_params()
OPS = ckks_mult_rotate_sequence(PARAMS.levels)
RUN_SEED = 42
INTERVAL = 2


def _make_ctx():
    ctx = CkksContext(PARAMS, seed=2025)
    ctx.generate_galois_keys([1])
    return ctx


def _inputs():
    rng = np.random.default_rng(7)
    return [rng.standard_normal(PARAMS.n // 2).tolist()
            for _ in range(feed_count(OPS))]


INPUTS = _inputs()
GOLDEN = golden_outputs_digest(_make_ctx(), OPS, INPUTS, run_seed=RUN_SEED)


def _executor(directory):
    return DurableExecutor(_make_ctx(), OPS, INPUTS, directory,
                           checkpoint_interval=INTERVAL, run_seed=RUN_SEED)


def _completed_run(directory):
    report = _executor(directory).run()
    assert report.committed and report.outputs_digest == GOLDEN
    return directory / JOURNAL_NAME


def _rewrite(path, keep=None, mutate=None):
    """Rebuild a WAL, optionally dropping records (``keep(record)``)
    and/or mutating payloads (``mutate(record) -> bytes | None``)."""
    records = scan(path).records
    path.unlink()
    with WriteAheadLog(path) as wal:
        for record in records:
            if keep is not None and not keep(record):
                continue
            payload = record.payload
            if mutate is not None:
                replacement = mutate(record)
                if replacement is not None:
                    payload = replacement
            wal.append(record.rtype, payload)


class TestFreshRunAndResume:
    def test_fresh_run_matches_golden(self, tmp_path):
        report = _executor(tmp_path).run()
        assert report.committed
        assert report.outputs_digest == GOLDEN
        assert report.replayed_ops == len(OPS)
        assert report.findings == []

    def test_resume_after_commit_is_a_noop(self, tmp_path):
        _completed_run(tmp_path)
        report = _executor(tmp_path).resume()
        assert report.committed and report.outputs_digest == GOLDEN
        assert report.replayed_ops == 0
        assert report.skipped_ops == len(OPS)

    def test_resume_from_checkpoint_is_bit_identical(self, tmp_path):
        journal = _completed_run(tmp_path)
        # Drop the COMMIT and the records after the last checkpoint —
        # the on-disk state of a crash mid-run.
        seen = {"checkpoint": 0}

        def keep(record):
            if record.rtype == RT_CHECKPOINT:
                seen["checkpoint"] += 1
            if record.rtype == RT_COMMIT:
                return False
            if record.rtype == RT_OP_DONE:
                return decode(record)["index"] <= 3
            return True

        _rewrite(journal, keep=keep)
        report = _executor(tmp_path).resume()
        assert report.outputs_digest == GOLDEN
        assert report.committed
        assert report.resumed_from >= 0
        assert report.skipped_ops > 0
        assert report.replayed_ops < len(OPS)
        assert report.findings == []

    def test_resume_on_empty_journal_runs_fresh(self, tmp_path):
        (tmp_path / JOURNAL_NAME).write_bytes(b"")
        report = _executor(tmp_path).resume()
        assert report.committed and report.outputs_digest == GOLDEN

    def test_resume_rejects_foreign_program(self, tmp_path):
        _completed_run(tmp_path)
        other = DurableExecutor(
            _make_ctx(), OPS + [Op("add", (len(OPS) - 1, len(OPS) - 1))],
            INPUTS, tmp_path, checkpoint_interval=INTERVAL,
            run_seed=RUN_SEED)
        with pytest.raises(JournalError):
            other.resume()


class TestResumeChecksTheRunItJournaled:
    """BEGIN records ``run_seed`` and ``inputs`` next to ``ops_digest``;
    resuming past a checkpoint under a different value of either used to
    commit an outputs digest no run produces, with no finding."""

    # An encrypt after the resume point draws from the run seed and the
    # feed, so both reach the outputs.
    ops = [Op("encrypt"), Op("encrypt"), Op("add", (0, 1)),
           Op("rotate", (2,), arg=1), Op("encrypt"), Op("add", (3, 4))]

    def _executor(self, directory, *, run_seed=RUN_SEED, scale=1.0):
        rng = np.random.default_rng(7)
        inputs = [(scale * rng.standard_normal(PARAMS.n // 2)).tolist()
                  for _ in range(feed_count(self.ops))]
        return DurableExecutor(_make_ctx(), self.ops, inputs, directory,
                               checkpoint_interval=INTERVAL,
                               run_seed=run_seed)

    @pytest.mark.parametrize("field,change", [
        ("run_seed", {"run_seed": RUN_SEED + 1}),
        ("inputs", {"scale": 2.0}),
    ])
    def test_resume_rejects_another_runs_journal(self, tmp_path, field,
                                                 change):
        golden = self._executor(tmp_path).run().outputs_digest
        journal = tmp_path / JOURNAL_NAME
        _rewrite(journal, keep=lambda r: r.rtype != RT_COMMIT and not (
            r.rtype == RT_OP_DONE and decode(r)["index"] > 3))
        crashed = journal.read_bytes()
        with pytest.raises(JournalError, match=field):
            self._executor(tmp_path, **change).resume()
        assert journal.read_bytes() == crashed  # nothing was committed
        report = self._executor(tmp_path).resume()
        assert report.outputs_digest == golden and report.resumed_from == 3


class TestTornTailFixture:
    def test_exactly_one_torn_finding(self, tmp_path):
        journal = _completed_run(tmp_path)
        _rewrite(journal, keep=lambda r: r.rtype != RT_COMMIT)
        blob = journal.read_bytes()
        journal.write_bytes(blob + blob[:11])  # the torn record
        report = _executor(tmp_path).resume()
        assert report.finding_kinds() == ["torn_tail"]
        assert report.outputs_digest == GOLDEN
        assert report.committed


class TestCorruptCheckpointFixture:
    def test_exactly_one_corrupt_finding_and_fallback(self, tmp_path):
        journal = _completed_run(tmp_path)
        boundaries = [decode(r)["boundary"] for r in scan(journal).records
                      if r.rtype == RT_CHECKPOINT]
        newest = {"boundary": max(boundaries)}

        def mutate(record):
            # Bit-flip the newest checkpoint's journaled content digest
            # so the (intact) archive no longer matches it.
            if record.rtype != RT_CHECKPOINT:
                return None
            entry = decode(record)
            if entry["boundary"] != newest["boundary"]:
                return None
            digest = entry["entries"][0]["digest"]
            flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
            entry["entries"][0]["digest"] = flipped
            return encode(entry)

        _rewrite(journal, keep=lambda r: r.rtype != RT_COMMIT,
                 mutate=mutate)
        report = _executor(tmp_path).resume()
        assert report.finding_kinds() == ["corrupt_checkpoint"]
        # Fell back to the older checkpoint, still bit-identical.
        assert report.resumed_from < newest["boundary"]
        assert report.outputs_digest == GOLDEN

    def test_truncated_archive_is_corrupt_not_crash(self, tmp_path):
        journal = _completed_run(tmp_path)
        _rewrite(journal, keep=lambda r: r.rtype != RT_COMMIT)
        newest = [decode(r) for r in scan(journal).records
                  if r.rtype == RT_CHECKPOINT][-1]
        archive = tmp_path / newest["entries"][0]["file"]
        archive.write_bytes(archive.read_bytes()[:40])
        report = _executor(tmp_path).resume()
        assert report.finding_kinds() == ["corrupt_checkpoint"]
        assert report.outputs_digest == GOLDEN


class TestStaleCheckpointFixture:
    def test_exactly_one_stale_finding(self, tmp_path):
        journal = _completed_run(tmp_path)
        newest = max(decode(r)["boundary"] for r in scan(journal).records
                     if r.rtype == RT_CHECKPOINT)

        def mutate(record):
            if record.rtype != RT_CHECKPOINT:
                return None
            entry = decode(record)
            if entry["boundary"] != newest:
                return None
            entry["ops_digest"] = "0" * 64  # a different program's
            return encode(entry)

        _rewrite(journal, keep=lambda r: r.rtype != RT_COMMIT,
                 mutate=mutate)
        report = _executor(tmp_path).resume()
        assert report.finding_kinds() == ["stale_checkpoint"]
        assert report.resumed_from < newest  # rejected, fell back
        assert report.outputs_digest == GOLDEN


def run_with_a_tampered_digest(directory):
    """The executor of a completed run whose journal lost its COMMIT and
    misreports the last op's digest: resuming it must diverge."""
    journal = _completed_run(directory)

    def mutate(record):
        if record.rtype != RT_OP_DONE:
            return None
        entry = decode(record)
        if entry["index"] != len(OPS) - 1:
            return None
        entry["digest"] = "f" * 64
        return entry and encode(entry)

    _rewrite(journal, keep=lambda r: r.rtype != RT_COMMIT, mutate=mutate)
    return _executor(directory)


class TestDivergenceDetection:
    def test_tampered_op_digest_raises_loudly(self, tmp_path):
        with pytest.raises(DivergenceError):
            run_with_a_tampered_digest(tmp_path).resume()


class TestLiveSet:
    def test_chain_keeps_only_frontier(self):
        ops = [Op("encrypt"), Op("encrypt"), Op("multiply", (0, 1)),
               Op("rescale", (2,)), Op("rotate", (3,), arg=1)]
        assert live_set(ops, 3) == [3]
        assert sink_indices(ops) == [4]

    def test_value_read_far_later_stays_live(self):
        ops = [Op("encrypt"), Op("encrypt"), Op("multiply", (0, 1)),
               Op("rescale", (2,)), Op("add", (3, 0))]
        assert 0 in live_set(ops, 3)  # op 4 still reads value 0

    def test_sinks_survive(self):
        ops = [Op("encrypt"), Op("encrypt"), Op("multiply", (0, 1))]
        # value 2 is a sink and must be in every later live set
        assert live_set(ops, 2) == [2]
