"""The binding between ``CompiledBackend`` and ``kernels.c``.

The reduction schedule is the plan's and the gate is the callee's: no
binding entry and no plan-taking C entry has a schedule parameter, the
ctypes mirror matches ``plan_t`` field for field, and an ineligible
plan handed straight to the binding raises before the foreign call.
"""

import ctypes
import inspect
import re

import numpy as np
import pytest

from repro.arith.primes import find_ntt_prime, find_ntt_primes
from repro.kernels import cext, get_plan, resolve_provider

N = 64
PLAN_ENTRIES = {"repro_fwd_ntt_batch", "repro_inv_ntt_batch",
                "repro_ks_apply", "repro_drop_top_limb"}
SCHEDULE_WORDS = ("shoup", "mode", "lazy", "unclamped")


@pytest.fixture(scope="module")
def provider():
    impl = resolve_provider()
    if impl is None:
        pytest.skip("no compiled provider available (needs a C compiler)")
    return impl


def _poison(*shape):
    return np.full(shape, 0xDEAD, dtype=np.uint64)


def _calls(provider, plan):
    """Every plan-taking entry on ``plan``, each with a poisoned output
    it must leave untouched when it refuses."""
    rows = len(plan.primes)
    x = np.zeros((rows, N), dtype=np.uint64)
    key = np.zeros((rows, 2, rows, N), dtype=np.uint64)
    keep = np.arange(rows, dtype=np.int64)
    ones = np.ones(rows - 1, dtype=np.uint64)
    out, acc0, acc1 = _poison(rows, N), _poison(rows, N), _poison(rows, N)
    work = np.zeros((3 * rows, N), dtype=np.uint64)
    return {
        "fwd_ntt": (lambda: provider.fwd_ntt(plan, x, out, work), [out]),
        "inv_ntt": (lambda: provider.inv_ntt(plan, x, out, work), [out]),
        "ks_apply": (lambda: provider.ks_apply(
            plan, x[:-1], key, keep, acc0, acc1, work), [acc0, acc1]),
        "drop_top": (lambda: provider.drop_top(
            plan, x, ones, out, work), [out]),
    }


class TestGatesLiveInTheCallee:
    @pytest.mark.parametrize("entry", ["fwd_ntt", "inv_ntt", "ks_apply",
                                       "drop_top"])
    def test_table_less_plan_never_reaches_c(self, provider, entry):
        """q >= 2^31: ``lazy_stages_ok`` is False, the plan has no
        tables, and nothing is written."""
        plan = get_plan(N, tuple(find_ntt_primes(2 * N, 32, 3)))
        assert not plan.lazy_stages_ok and not hasattr(plan, "q")
        call, outputs = _calls(provider, plan)[entry]
        with pytest.raises(ValueError, match=f"{entry}: no compiled schedule"):
            call()
        assert all((out == 0xDEAD).all() for out in outputs)

    @pytest.mark.parametrize("entry", ["ks_apply", "drop_top"])
    def test_mixed_width_chain_never_reaches_c(self, provider, entry):
        """A 30-bit source lifted against a 20-bit target: the NTTs are
        fine, ``centered_lift_lazy_ok`` refuses both lift users."""
        small = find_ntt_prime(2 * N, 20)
        wide = tuple(find_ntt_primes(2 * N, 30, 2))
        plan = get_plan(N, (small,) + wide)
        assert plan.lazy_stages_ok
        assert not plan.keyswitch_ok and not plan.drop_top_ok
        calls = _calls(provider, plan)
        call, outputs = calls[entry]
        with pytest.raises(ValueError, match=f"{entry}: no compiled schedule"):
            call()
        assert all((out == 0xDEAD).all() for out in outputs)
        calls["fwd_ntt"][0]()  # the same plan still transforms
        assert not (calls["fwd_ntt"][1][0] == 0xDEAD).any()

    def test_eligible_plan_runs_every_entry(self, provider):
        plan = get_plan(N, tuple(find_ntt_primes(2 * N, 30, 3)))
        assert plan.keyswitch_ok and plan.drop_top_ok
        for call, outputs in _calls(provider, plan).values():
            call()
            assert not any((out == 0xDEAD).any() for out in outputs)

    @pytest.mark.parametrize("bits, schedule", [
        (30, (1, 2, 1)),   # Shoup forward, clamp-free inverse
        (31, (0, 0, 1)),   # Barrett both ways (mode 1 needs n >= 2^16)
    ])
    def test_schedule_is_resolved_once_on_the_plan(self, provider, bits,
                                                   schedule):
        plan = get_plan(N, tuple(find_ntt_primes(2 * N, bits, 3)))
        assert (plan.fwd_shoup, plan.inv_mode, plan.ks_lazy) == schedule
        tables = cext._tables(plan, "test")
        assert (tables.fwd_shoup, tables.inv_mode, tables.ks_lazy) == schedule
        assert cext._tables(plan, "test") is tables
        # Six 31-bit products overflow uint64: reduced accumulate.
        assert get_plan(N, tuple(find_ntt_primes(2 * N, 31, 6))).ks_lazy == 0


def _c_source():
    return re.sub(r"/\*.*?\*/", "", cext._SOURCE.read_text(), flags=re.S)


class TestNoScheduleParameterAnywhere:
    def test_plan_taking_c_entries_have_no_flag(self):
        protos = dict(re.findall(r"^void (repro_\w+)\(([^)]*)\)", _c_source(),
                                 flags=re.M))
        taking_plan = {name for name, params in protos.items()
                       if "plan_t" in params}
        assert taking_plan == PLAN_ENTRIES
        for name in PLAN_ENTRIES:
            params = [p.split() for p in protos[name].split(",")]
            assert params[0][:2] == ["const", "plan_t"]
            for *ctype, ident in params:
                assert "int" not in ctype, f"{name}: flag {ident}"
                assert not any(w in ident for w in SCHEDULE_WORDS), ident

    def test_binding_entries_have_no_schedule_parameter(self):
        for name in ("fwd_ntt", "inv_ntt", "auto", "ks_accum", "ks_apply",
                     "drop_top"):
            params = inspect.signature(
                getattr(cext.CExtProvider, name)).parameters
            assert not [p for p in params
                        if any(w in p for w in SCHEDULE_WORDS)], name

    def test_plan_tables_mirror_plan_t_field_for_field(self):
        body = re.search(r"typedef struct \{(.*?)\} plan_t;", _c_source(),
                         flags=re.S).group(1)
        fields = []
        for decl in filter(None, (d.strip() for d in body.split(";"))):
            ctype, names = re.fullmatch(r"((?:const )?\w+) (.+)", decl,
                                        flags=re.S).groups()
            for name in (part.strip() for part in names.split(",")):
                fields.append((name.lstrip("*"),
                               ctypes.c_void_p if name.startswith("*")
                               else {"int": ctypes.c_int}[ctype]))
        assert fields == cext.PlanTables._fields_
