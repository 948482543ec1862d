"""Seeded-mutation acceptance tests for the fhecheck v2 passes.

Each test plants one specific bug in an otherwise-verified artifact and
asserts the analysis produces *exactly* the expected finding — no
finding on the clean artifact, no cascade on the mutated one.  This is
the acceptance contract of the whole-program verification layer: a pass
that stays silent on its target bug, or that drowns it in secondary
findings, is broken either way.
"""

from repro.accel.sram import OnChipSram
from repro.analysis.ctstate import Op, check_sequence, \
    ckks_mult_rotate_sequence
from repro.analysis.dataflow import check_dataflow
from repro.analysis.resources import analyze_staged_plan, \
    keyswitch_staging_plan, ntt_staging_plan
from repro.arith.primes import find_ntt_prime
from repro.core.isa import Program, Store
from repro.fhe.params import default_params, toy_params
from repro.mapping.ntt import compile_negacyclic_ntt


def _error_rules(report) -> list[str]:
    return [f.rule for f in report.findings.errors]


class TestUninitializedReadMutation:
    """Drop-in compiler bug: an instruction reads a phantom register."""

    def _program(self) -> Program:
        return compile_negacyclic_ntt(256, 16)

    def test_clean_program_has_zero_findings(self):
        report = check_dataflow(self._program(), m=16)
        assert list(report.findings) == []

    def test_phantom_read_yields_exactly_d001(self):
        program = self._program()
        program.instructions.append(Store(src=999, addr=0))
        report = check_dataflow(program, m=16)
        assert [f.rule for f in report.findings] == ["D001"]
        assert "r999" in report.findings.findings[0].message


class TestStageOrderMutation:
    """Scheduling bug: two NTT dimension step-blocks are swapped."""

    def test_clean_plan_has_zero_findings(self):
        report = analyze_staged_plan(ntt_staging_plan(256, 16))
        assert list(report.findings) == []

    def test_swapped_dimensions_yield_exactly_r003(self):
        plan = ntt_staging_plan(256, 16)
        # Steps: [Stage x.v0 | Alloc/Compute/Evict dim0 | Alloc/Compute/
        # Evict dim1 | Writeback/Evict].  Swap the two dimension blocks:
        # dim1 then reads x.v1 before anything produced it.
        steps = list(plan.steps)
        assert len(steps) == 9
        mutated = type(plan)(
            label=plan.label,
            steps=tuple(steps[:1] + steps[4:7] + steps[1:4] + steps[7:]))
        report = analyze_staged_plan(mutated)
        assert [f.rule for f in report.findings] == ["R003"]
        assert "x.v1" in report.findings.findings[0].message


class TestShrunkSramMutation:
    """Provisioning bug: the scratchpad is half the proven peak."""

    def test_clean_plan_fits_default_sram(self):
        report = analyze_staged_plan(keyswitch_staging_plan(default_params()))
        assert list(report.findings) == []

    def test_half_peak_sram_yields_only_r001(self):
        plan = keyswitch_staging_plan(default_params())
        peak = analyze_staged_plan(plan).peak_words
        report = analyze_staged_plan(
            plan, OnChipSram(capacity_bytes=peak * 8 // 2))
        assert not report.ok
        assert set(_error_rules(report)) == {"R001"}


class TestDroppedRescaleMutation:
    """Scheduling bug: the first rescale vanishes from the pipeline."""

    def _ops(self) -> list[Op]:
        return ckks_mult_rotate_sequence(toy_params().levels)

    @staticmethod
    def _drop_first_rescale(ops: list[Op]) -> list[Op]:
        drop = next(i for i, op in enumerate(ops) if op.kind == "rescale")
        remap: dict[int, int] = {}
        mutated: list[Op] = []
        for index, op in enumerate(ops):
            if index == drop:
                # Consumers of the rescale now see its input directly.
                remap[index] = remap.get(op.srcs[0], op.srcs[0])
                continue
            remap[index] = len(mutated)
            mutated.append(Op(op.kind,
                              tuple(remap.get(s, s) for s in op.srcs),
                              op.arg))
        return mutated

    def test_clean_sequence_has_zero_findings(self):
        report = check_sequence(self._ops(), toy_params())
        assert list(report.findings) == []

    def test_dropped_rescale_yields_exactly_c002(self):
        mutated = self._drop_first_rescale(self._ops())
        report = check_sequence(mutated, toy_params(),
                                label="dropped rescale")
        assert [f.rule for f in report.findings] == ["C002"]
        assert "rescale" in report.findings.findings[0].message


class TestDroppedFsyncMutation:
    """Durability bug: the WAL append path loses its fsync — the exact
    write a kill-campaign crash would tear silently."""

    def _wal_source(self) -> str:
        from pathlib import Path

        import repro.recover.wal as wal

        return Path(wal.__file__).read_text(encoding="utf-8")

    def test_shipped_wal_is_clean(self):
        from repro.analysis.lint import lint_source

        findings = lint_source(self._wal_source(),
                               filename="src/repro/recover/wal.py")
        assert [f.rule for f in findings] == []

    def test_dropped_fsync_yields_only_fhc012(self):
        from repro.analysis.lint import lint_source

        mutated = self._wal_source().replace(
            "os.fsync(self._fh.fileno())\n", "\n")
        assert mutated != self._wal_source()  # the mutation landed
        findings = lint_source(mutated,
                               filename="src/repro/recover/wal.py")
        assert set(f.rule for f in findings) == {"FHC012"}
        # Both write sites in append() lose their durability evidence.
        assert [f.rule for f in findings].count("FHC012") >= 1
