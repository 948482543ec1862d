"""The repository-specific AST lint rules (fhecheck lint)."""

import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import lint_paths, lint_source
from repro.ntt import negacyclic


def _rules(source: str) -> list[str]:
    return [f.rule for f in lint_source(textwrap.dedent(source))]


class TestFHC001ObjectLeak:
    def test_flags_object_narrowed_without_reduction(self):
        assert "FHC001" in _rules("""
            def f(x):
                return (x.astype(object) << 32).astype(np.uint64)
            """)

    def test_mod_reduction_exempts(self):
        assert _rules("""
            def f(x, q):
                return (x.astype(object) * x % q).astype(np.uint64)
            """) == []

    def test_floordiv_rebound_exempts(self):
        # The Shoup table precompute: (w << 32) // q is < 2**32.
        assert _rules("""
            def f(w, q):
                return ((w.astype(object) << 32) // q).astype(np.uint64)
            """) == []

    def test_flags_minimum_on_object(self):
        assert "FHC001" in _rules("""
            def f(x, q):
                return np.minimum(x.astype(object), x.astype(object) - q)
            """)


class TestFHC002Narrowing:
    def test_flags_unguarded_narrowing(self):
        assert "FHC002" in _rules("""
            def f(x):
                return x.astype(np.int64)
            """)

    def test_power_of_two_guard_exempts(self):
        assert _rules("""
            def f(x, q):
                assert x.max() < (1 << 31)
                return x.astype(np.int64)
            """) == []

    def test_unrelated_width_test_does_not_exempt(self):
        """A width test of the modulus bounds nothing that is narrowed."""
        assert _rules("""
            def f(x, q):
                if q >= (1 << 31):
                    raise ValueError(q)
                return x.astype(np.int64)
            """) == ["FHC002"]

    def test_guard_inside_the_receiver_exempts(self):
        assert _rules("""
            def f(x, q):
                return np.where(x > q // 2, x - q, x).astype(np.int64)
            """) == []

    def test_dtype_held_in_a_local_name_is_checked(self):
        """Each literal a local dtype name is bound to is checked."""
        assert _rules("""
            def f(v, q):
                dtype = np.uint32 if q <= (1 << 47) else np.uint64
                return np.stack([v & 7, v >> 3]).astype(dtype)
            """) == ["FHC002"]
        assert _rules("""
            def f(v, wide):
                dtype = "uint64"
                if not wide:
                    dtype = np.int32
                return v.astype(dtype)
            """) == ["FHC002"]

    def test_guard_on_a_local_dtype_narrowing_exempts(self):
        assert _rules("""
            def f(v, q):
                halves = np.stack([v & 7, v >> 3])
                narrow = halves.max() < (1 << 32)
                dtype = np.uint32 if narrow else np.uint64
                return halves.astype(dtype)
            """) == []

    def test_dtype_name_with_a_non_literal_binding_is_not_resolved(self):
        assert _rules("""
            def f(v, w):
                dtype = w.dtype
                return v.astype(dtype)
            """) == []
        assert _rules("""
            def f(v, dtype=np.int32):
                return v.astype(dtype)
            """) == []

    def test_centered_lift_idiom_exempts(self):
        assert _rules("""
            def f(x, q):
                signed = x.astype(np.int64)
                return np.where(signed > q // 2, signed - q, signed)
            """) == []

    def test_widening_to_uint64_exempt(self):
        assert _rules("""
            def f(x):
                return x.astype(np.uint64)
            """) == []


class TestFHC003UnreducedProduct:
    def test_flags_sum_times_value_mod_q(self):
        assert "FHC003" in _rules("""
            def f(u, v, tw, q):
                "operates on uint64 rows"
                return (u + v) * tw % q
            """)

    def test_scalar_python_int_code_exempt(self):
        assert _rules("""
            def f(u, v, tw, q):
                return (u + v) * tw % q
            """) == []

    @pytest.mark.parametrize("call", [
        "reduce_rows((u + v) * tw, primes)",
        "polynomial.reduce_rows(tw * (u - v), primes)",
    ])
    def test_flags_the_product_handed_to_the_row_reduction(self, call):
        """``reduce_rows`` takes its argument mod q like ``%`` does."""
        assert _rules(f"""
            def f(u, v, tw, primes):
                "operates on uint64 rows"
                return {call}
            """) == ["FHC003"]

    def test_a_reduced_product_at_the_row_reduction_passes(self):
        assert _rules("""
            def f(u, v, tw, primes):
                "operates on uint64 rows"
                return reduce_rows((u + v) % q * tw, primes)
            """) == []


class TestFHC004LazyEscape:
    def test_flags_unreduced_lazy_result(self):
        assert "FHC004" in _rules("""
            def f(a, q3, two_q3, tw):
                dif_stages_lazy(a, q3, two_q3, tw)
                return a
            """)

    def test_clamp_after_call_exempts(self):
        assert _rules("""
            def f(a, q, q3, two_q3, tw):
                dif_stages_lazy(a, q3, two_q3, tw)
                return np.minimum(a, a - q)
            """) == []

    @pytest.mark.parametrize("clamps, calls", [
        (["np.minimum(t, t - blk.q, out=t)"],
         ["dif_stages_lazy(t, blk.q4"]),
        (["np.remainder(xb, blk.q, out=out[blk.rows])",
          "np.minimum(xb, xb - blk.q, out=out[blk.rows])"],
         ["dit_stages_unclamped(t, blk.q4", "dit_stages_lazy(t, blk.q4"]),
    ])
    def test_sees_the_transposed_short_stage_calls(self, clamps, calls):
        """The numpy plan runs its short spans in calls of their own, on
        the transposed view: dropping the clamp that ends the forward,
        or the reductions that end the inverse, is reported there."""
        source = Path(negacyclic.__file__).read_text()
        assert "FHC004" not in [f.rule for f in lint_source(source)]
        for clamp in clamps:
            assert source.count(clamp) == 1
            source = source.replace(clamp, "pass")  # lines stay put
        flagged = {int(f.location.rsplit(":", 1)[1])
                   for f in lint_source(source) if f.rule == "FHC004"}
        lines = source.splitlines()
        for call in calls:
            [line] = [i for i, text in enumerate(lines, 1) if call in text]
            assert line in flagged


class TestFHC005FaultHookGuard:
    def test_flags_unguarded_attribute_dereference(self):
        assert "FHC005" in _rules("""
            def f(self, x):
                return self.fault_hook.filter_alu("mul", x)
            """)

    def test_flags_unguarded_alias(self):
        assert "FHC005" in _rules("""
            def f(self, x):
                hook = self.fault_hook
                return hook.filter_alu("mul", x)
            """)

    def test_guarded_alias_exempts(self):
        assert _rules("""
            def f(self, x):
                hook = self.fault_hook
                if hook is not None:
                    x = hook.filter_alu("mul", x)
                return x
            """) == []

    def test_accessor_alias_guarded_exempts(self):
        assert _rules("""
            def f(acc):
                hook = current_fault_hook()
                if hook is not None:
                    hook.corrupt_buffer("keyswitch", acc)
                return acc
            """) == []

    def test_installer_and_accessor_calls_exempt(self):
        assert _rules("""
            def f(vpu, injector):
                previous = install_fault_hook(injector)
                vpu.install_fault_hook(injector)
                install_fault_hook(previous)
                return current_fault_hook()
            """) == []

    def test_boolop_and_guard_exempts(self):
        assert _rules("""
            def f(self, x):
                hook = self.fault_hook
                return hook is not None and hook.filter_alu("mul", x)
            """) == []

    def test_ifexp_guard_exempts(self):
        assert _rules("""
            def f(self, x):
                hook = self.fault_hook
                return hook.filter_alu("mul", x) if hook is not None else x
            """) == []

    def test_dereference_outside_the_guard_still_flagged(self):
        assert "FHC005" in _rules("""
            def f(self, x):
                hook = self.fault_hook
                if hook is not None:
                    x = hook.filter_alu("mul", x)
                return hook.filter_alu("add", x)
            """)


class TestSuppressions:
    def test_same_line_suppression(self):
        assert _rules("""
            def f(x):
                return x.astype(np.int64)  # fhecheck: ok
            """) == []

    def test_preceding_line_rule_scoped(self):
        assert _rules("""
            def f(x):
                # fhecheck: ok=FHC002 — bounded by construction
                return x.astype(np.int64)
            """) == []

    def test_wrong_rule_does_not_suppress(self):
        # The finding still fires, and the mismatched suppression is
        # itself reported as stale (FHC010).
        assert _rules("""
            def f(x):
                return x.astype(np.int64)  # fhecheck: ok=FHC001
            """) == ["FHC002", "FHC010"]


class TestRuleCatalogue:
    RULES = ["FHC001", "FHC002", "FHC003", "FHC004", "FHC005", "FHC010",
             "FHC011", "FHC012"]

    def test_eight_rules_documented_and_declared(self):
        import repro.analysis.lint as lint
        from repro.analysis.sarif import RULE_DESCRIPTIONS

        assert sorted(set(re.findall(r"FHC\d+", lint.__doc__))) == self.RULES
        assert "eight" in lint.__doc__
        assert sorted(rule for rule in RULE_DESCRIPTIONS
                      if rule.startswith("FHC")) == ["FHC000"] + self.RULES

    def test_what_two_deleted_rules_policed_is_no_longer_lint(self):
        """An ungated lazy kernel and an unchecked SRAM staging are
        unwritable now (the binding and ``OnChipSram.stage`` refuse
        them), so their call shapes are ordinary code to the linter."""
        assert _rules("""
            def f(self, impl, plan, x, out, work):
                impl.fwd_ntt(plan, x, out, work)
                self.sram.stage(work)
            """) == []


class TestFHC010UnusedSuppression:
    def test_stale_suppression_warned(self):
        findings = lint_source(textwrap.dedent("""
            def f(x):
                return x + 1  # fhecheck: ok=FHC002
            """))
        assert [f.rule for f in findings] == ["FHC010"]
        assert findings[0].severity.value == "warning"

    def test_used_suppression_not_warned(self):
        assert _rules("""
            def f(x):
                return x.astype(np.int64)  # fhecheck: ok=FHC002
            """) == []

    def test_docstring_mention_is_inert(self):
        # Suppressions live in COMMENT tokens only; prose mentioning the
        # marker (docstrings, string fixtures) neither suppresses nor
        # counts as stale.
        assert _rules('''
            def f(x):
                """Explains the marker: # fhecheck: ok=FHC002 — unused."""
                return x.astype(np.int64)
            ''') == ["FHC002"]


class TestFHC011ServeDeadline:
    SERVE = "src/repro/serve/engine.py"

    def _serve_rules(self, source: str) -> list[str]:
        import textwrap

        from repro.analysis.lint import lint_source

        return [f.rule for f in
                lint_source(textwrap.dedent(source), filename=self.SERVE)]

    def test_flags_bare_backend_await(self):
        assert "FHC011" in self._serve_rules("""
            async def handler(backend, ct):
                return await backend.keyswitch(ct)
            """)

    def test_flags_executor_style_work_names(self):
        assert "FHC011" in self._serve_rules("""
            async def handler(pool, rows):
                return await pool.run_ntt_batch(rows)
            """)
        assert "FHC011" in self._serve_rules("""
            async def handler(loop, fn):
                return await loop.run_in_executor(None, fn)
            """)

    def test_deadline_wrapper_sanctions_the_await(self):
        assert self._serve_rules("""
            async def handler(backend, ct, deadline):
                return await with_deadline(backend.keyswitch(ct), deadline)
            """) == []

    def test_named_wrapper_variants_sanction(self):
        assert self._serve_rules("""
            async def handler(backend, ct, deadline):
                return await dispatch_with_deadline(backend, ct, deadline)
            """) == []

    def test_queue_and_sleep_awaits_exempt(self):
        assert self._serve_rules("""
            async def worker(queue, lock):
                item = await queue.get()
                await asyncio.sleep(0.1)
                async with lock:
                    pass
                return item
            """) == []

    def test_rule_scoped_to_serve_package(self):
        import textwrap

        from repro.analysis.lint import lint_source

        source = textwrap.dedent("""
            async def handler(backend, ct):
                return await backend.keyswitch(ct)
            """)
        assert lint_source(source, filename="src/repro/fhe/other.py") == []

    def test_suppression_comment_applies(self):
        assert self._serve_rules("""
            async def handler(backend, ct):
                return await backend.keyswitch(ct)  # fhecheck: ok=FHC011
            """) == []


class TestDriver:
    def test_syntax_error_is_a_finding(self):
        findings = lint_source("def f(:", filename="broken.py")
        assert [f.rule for f in findings] == ["FHC000"]

    def test_repo_source_tree_is_clean(self):
        import repro

        root = __import__("pathlib").Path(repro.__file__).parent
        assert lint_paths([root]) == []


class TestFHC012RecoverDurability:
    RECOVER = "src/repro/recover/wal.py"

    def _recover_rules(self, source: str) -> list[str]:
        import textwrap

        from repro.analysis.lint import lint_source

        return [f.rule for f in
                lint_source(textwrap.dedent(source),
                            filename=self.RECOVER)]

    def test_flags_bare_write(self):
        assert "FHC012" in self._recover_rules("""
            def append(fh, blob):
                fh.write(blob)
                fh.flush()
            """)

    def test_fsync_evidence_sanctions_the_write(self):
        assert self._recover_rules("""
            def append(fh, blob):
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            """) == []

    def test_fsync_helper_name_counts_as_evidence(self):
        assert self._recover_rules("""
            def append(fh, blob, fsync_fn):
                fh.write(blob)
                fsync_fn(fh)
            """) == []

    def test_rule_scoped_to_recover_package(self):
        import textwrap

        from repro.analysis.lint import lint_source

        source = textwrap.dedent("""
            def append(fh, blob):
                fh.write(blob)
            """)
        assert lint_source(source,
                           filename="src/repro/fhe/other.py") == []

    def test_every_write_in_the_function_flagged(self):
        rules = self._recover_rules("""
            def append_two(fh, a, b):
                fh.write(a)
                fh.write(b)
            """)
        assert rules == ["FHC012", "FHC012"]

    def test_suppression_comment_applies(self):
        assert self._recover_rules("""
            def append(fh, blob):
                fh.write(blob)  # fhecheck: ok=FHC012
            """) == []
