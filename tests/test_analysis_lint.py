"""The repository-specific AST lint rules (fhecheck lint)."""

import re
import textwrap

import pytest

from repro.analysis.lint import lint_paths, lint_source


def _rules(source: str) -> list[str]:
    return [f.rule for f in lint_source(textwrap.dedent(source))]


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
            def f(u, v, tw, q):
                "operates on uint64 rows"
                return (u + v) * tw % q  # fhecheck: ok
            """) == []

    def test_preceding_line_rule_scoped(self):
        assert _rules("""
            def f(u, v, tw, q):
                "operates on uint64 rows"
                # fhecheck: ok=FHC003 — bounded by construction
                return (u + v) * tw % q
            """) == []

    def test_wrong_rule_does_not_suppress(self):
        # The finding still fires, and the mismatched suppression is
        # itself reported as stale (FHC010).
        assert _rules("""
            def f(u, v, tw, q):
                "operates on uint64 rows"
                return (u + v) * tw % q  # fhecheck: ok=FHC005
            """) == ["FHC003", "FHC010"]


class TestRuleCatalogue:
    RULES = ["FHC003", "FHC005", "FHC010", "FHC012"]

    def test_four_rules_documented_and_declared(self):
        import inspect

        import repro.analysis.lint as lint

        assert sorted(set(re.findall(r"FHC\d+", lint.__doc__))) == self.RULES
        assert "four" in lint.__doc__
        source = inspect.getsource(lint).replace(lint.__doc__, "")
        assert sorted(set(re.findall(r'"(FHC\d+)"', source))) == self.RULES

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
                return x + 1  # fhecheck: ok=FHC003
            """))
        assert [f.rule for f in findings] == ["FHC010"]
        assert findings[0].severity.value == "warning"

    def test_used_suppression_not_warned(self):
        assert _rules("""
            def f(u, v, tw, q):
                "operates on uint64 rows"
                return (u + v) * tw % q  # fhecheck: ok=FHC003
            """) == []

    def test_docstring_mention_is_inert(self):
        # Suppressions live in COMMENT tokens only; prose mentioning the
        # marker (docstrings, string fixtures) neither suppresses nor
        # counts as stale.
        assert _rules('''
            def f(u, v, tw, q):
                """uint64 rows; the marker: # fhecheck: ok=FHC003 — unused."""
                return (u + v) * tw % q
            ''') == ["FHC003"]


class TestDriver:
    def test_syntax_error_raises(self):
        with pytest.raises(SyntaxError):
            lint_source("def f(:", filename="broken.py")

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
