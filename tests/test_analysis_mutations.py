"""Seeded-mutation acceptance tests for the fhecheck passes.

Each test plants one specific bug in an otherwise-verified artifact and
asserts the analysis produces *exactly* the expected finding — no
finding on the clean artifact, no cascade on the mutated one.  This is
the acceptance contract of the whole-program verification layer: a pass
that stays silent on its target bug, or that drowns it in secondary
findings, is broken either way.

The mutations of a product site that no test outside
``tests/test_analysis_*.py`` catches (EXPERIMENTS.md, "What each
fhecheck rule catches") are here by name: the lazy difference in the
division by the top limb (FHC003), a stale waiver (FHC010), the dropped fsync (FHC012), and the
staging plans' scratchpad below the peak (R001), evict before use
(R002), swapped dimensions (R003) and a prefetch into a live digit
(R004).
"""

from pathlib import Path

from repro.accel.sram import OnChipSram
from repro.analysis.ctstate import Op, check_sequence, \
    ckks_mult_rotate_sequence
from repro.analysis.lint import lint_source
from repro.analysis.resources import (
    Compute,
    Evict,
    StagedPlan,
    analyze_staged_plan,
    keyswitch_staging_plan,
    ntt_staging_plan,
)
from repro.fhe.params import default_params, toy_params


def _error_rules(report) -> list[str]:
    return [f.rule for f in report.findings.errors]


def _source(module) -> str:
    return Path(module.__file__).read_text(encoding="utf-8")


class TestUnreducedProductMutation:
    """Overflow bug: the division by the top limb drops its conditional
    subtract and multiplies the lazy (< 2q) difference by the inverse.
    Below the host modulus limit of 2**30 the product still fits uint64,
    so every scheme stays bit-identical: only the lint sees it."""

    CLEAN = ("    s = chain.residues + (qq - lifted)  # < 2q: one conditional"
             " subtract\n"
             "    np.minimum(s, s - qq, out=s)\n"
             "    out = reduce_rows(s * inv_col, chain.primes)\n")
    MUTATED = ("    out = reduce_rows((chain.residues + (qq - lifted))"
               " * inv_col, chain.primes)\n")

    def _source(self) -> str:
        import repro.fhe.keyswitch as keyswitch

        return _source(keyswitch)

    def test_shipped_division_is_clean(self):
        assert lint_source(self._source()) == []

    def test_lazy_difference_yields_only_fhc003(self):
        source = self._source()
        assert source.count(self.CLEAN) == 1
        findings = lint_source(source.replace(self.CLEAN, self.MUTATED))
        assert [f.rule for f in findings] == ["FHC003"]


class TestStaleWaiverMutation:
    """Audit bug: a waiver outlives the finding it excused."""

    def test_waiver_on_a_clean_line_yields_only_fhc010(self):
        import repro.fhe.sampling as sampling

        source = _source(sampling)
        assert lint_source(source) == []
        mutated = source.replace("import numpy as np\n",
                                 "import numpy as np  # fhecheck: ok=FHC003\n")
        assert mutated != source
        findings = lint_source(mutated)
        assert [(f.rule, f.severity.value) for f in findings] == [
            ("FHC010", "warning")]


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


class TestEvictBeforeUseMutation:
    """Scheduling bug: a dimension's input is evicted before the
    dimension's transform reads it."""

    def test_evict_before_compute_yields_exactly_r002(self):
        plan = ntt_staging_plan(256, 16)
        steps = list(plan.steps)
        # [Stage x.v0 | Alloc x.v1, Compute dim0, Evict x.v0 | ...]
        assert isinstance(steps[2], Compute) and isinstance(steps[3], Evict)
        steps[2], steps[3] = steps[3], steps[2]
        report = analyze_staged_plan(StagedPlan(plan.label, tuple(steps)))
        assert [f.rule for f in report.findings] == ["R002"]
        assert "x.v0" in report.findings.findings[0].message


class TestPrefetchIntoLiveDigitMutation:
    """Double-buffering bug: each digit step prefetches the digit it is
    still consuming instead of the next one."""

    def test_prefetch_of_the_current_digit_yields_r004(self):
        plan = keyswitch_staging_plan(toy_params())
        steps = tuple(
            Compute(step.label, step.reads, step.writes,
                    (step.reads[0], step.prefetch[1]))
            if isinstance(step, Compute) and step.prefetch else step
            for step in plan.steps)
        report = analyze_staged_plan(StagedPlan(plan.label, steps))
        rules = [f.rule for f in report.findings]
        assert set(rules) <= {"R003", "R004"} and "R004" in rules


class TestShrunkSramMutation:
    """Provisioning bug: the scratchpad is half the proven peak."""

    def test_clean_plan_fits_default_sram(self):
        report = analyze_staged_plan(keyswitch_staging_plan(default_params()))
        assert list(report.findings) == []

    def test_one_mib_default_sram_yields_only_r001(self):
        """The default scratchpad shrunk from 4 MiB to 1 MiB: below the
        keyswitch plan's 1 344 KiB peak, and no accelerator test sees
        it."""
        report = analyze_staged_plan(keyswitch_staging_plan(default_params()),
                                     OnChipSram(capacity_bytes=1 << 20))
        # Once per overflow transition: each digit's key staging.
        assert {f.rule for f in report.findings} == {"R001"}

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
        import repro.recover.wal as wal

        return _source(wal)

    def test_shipped_wal_is_clean(self):
        findings = lint_source(self._wal_source(),
                               filename="src/repro/recover/wal.py")
        assert [f.rule for f in findings] == []

    def test_dropped_fsync_yields_only_fhc012(self):
        mutated = self._wal_source().replace(
            "os.fsync(self._fh.fileno())\n", "\n")
        assert mutated != self._wal_source()  # the mutation landed
        findings = lint_source(mutated,
                               filename="src/repro/recover/wal.py")
        assert set(f.rule for f in findings) == {"FHC012"}
        # Both write sites in append() lose their durability evidence.
        assert [f.rule for f in findings].count("FHC012") >= 1
