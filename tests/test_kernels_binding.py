"""The binding between ``CompiledBackend`` and ``kernels.c``.

The reduction schedule is the plan's and the gate is the callee's: no
binding entry and no plan-taking C entry has a schedule parameter, the
ctypes mirrors match ``plan_t`` and ``check_t`` field for field, and an
ineligible plan — or an integrity request the plan's checksum gate
refuses, or one with ill-shaped tables — handed straight to the binding
raises before the foreign call.
"""

import ctypes
import inspect
import re

from types import SimpleNamespace

import numpy as np
import pytest

from repro.arith.primes import find_ntt_prime, find_ntt_primes
from repro.kernels import cext, resolve_provider
from repro.ntt.negacyclic import HostModulusError, get_batched_ntt, plan_cache

N = 64
PLAN_ENTRIES = {"repro_fwd_ntt_batch", "repro_inv_ntt_batch",
                "repro_ks_apply", "repro_drop_top_limb", "repro_tensor"}
SCHEDULE_WORDS = ("shoup", "mode", "lazy", "unclamped")


@pytest.fixture(scope="module")
def provider():
    impl = resolve_provider()
    if impl is None:
        pytest.skip("no compiled provider available (needs a C compiler)")
    return impl


def _poison(*shape):
    return np.full(shape, 0xDEAD, dtype=np.uint64)


def _work(entry, rows):
    """The uint32 ``work`` buffer ``entry`` takes for a plan of
    ``rows`` primes."""
    count = {"ks_apply": 5 * (rows - 1) + 3, "drop_top": rows + 1}
    return np.zeros((count.get(entry, rows), N), dtype=np.uint32)


def _calls(provider, plan):
    """Every plan-taking entry on ``plan``, each with a poisoned output
    it must leave untouched when it refuses."""
    rows = len(plan.primes)
    x = np.zeros((rows, N), dtype=np.uint64)
    key = np.zeros((rows, 2, rows, N), dtype=np.uint64)
    keep = np.arange(rows, dtype=np.int64)
    ones = np.ones(rows - 1, dtype=np.uint64)
    out, acc0, acc1 = (_poison(rows, N), _poison(1, rows, N),
                       _poison(1, rows, N))
    parts = [_poison(rows, N) for _ in range(3)]
    return {
        "fwd_ntt": (lambda: provider.fwd_ntt(
            plan, x, out, _work("fwd_ntt", rows)), [out]),
        "inv_ntt": (lambda: provider.inv_ntt(
            plan, x, out, _work("inv_ntt", rows)), [out]),
        "ks_apply": (lambda: provider.ks_apply(
            plan, x[:-1], [key], keep, acc0, acc1,
            _work("ks_apply", rows)), [acc0, acc1]),
        "drop_top": (lambda: provider.drop_top(
            plan, x, ones, out, _work("drop_top", rows)), [out]),
        "tensor": (lambda: provider.tensor(plan, [x] * 4, parts), parts),
    }


class TestGatesLiveInTheCallee:
    @pytest.mark.parametrize("entry", ["fwd_ntt", "inv_ntt", "ks_apply",
                                       "drop_top", "tensor"])
    def test_table_less_plan_never_reaches_c(self, provider, entry):
        """q >= 2^30: no plan is built — :class:`HostModulusError`
        names the prime and the cache keeps nothing — so no entry has a
        plan to hand C.  A host plan reaches it and writes."""
        wide = tuple(find_ntt_primes(2 * N, 32, 3))
        cached = len(plan_cache())
        with pytest.raises(HostModulusError, match=str(wide[0])):
            get_batched_ntt(N, wide)
        assert len(plan_cache()) == cached
        plan = get_batched_ntt(N, tuple(find_ntt_primes(2 * N, 30, 3)))
        call, outputs = _calls(provider, plan)[entry]
        call()
        assert not all((out == 0xDEAD).all() for out in outputs)

    @pytest.mark.parametrize("entry", ["ks_apply", "drop_top"])
    def test_mixed_width_chain_never_reaches_c(self, provider, entry):
        """A 30-bit source lifted against a 20-bit target: the NTTs are
        fine, ``centered_lift_lazy_ok`` refuses both lift users."""
        small = find_ntt_prime(2 * N, 20)
        wide = tuple(find_ntt_primes(2 * N, 30, 2))
        plan = get_batched_ntt(N, (small,) + wide)
        assert not plan.keyswitch_ok and not plan.drop_top_ok
        calls = _calls(provider, plan)
        call, outputs = calls[entry]
        with pytest.raises(ValueError, match=f"{entry}: no compiled schedule"):
            call()
        assert all((out == 0xDEAD).all() for out in outputs)
        calls["fwd_ntt"][0]()  # the same plan still transforms
        assert not (calls["fwd_ntt"][1][0] == 0xDEAD).any()

    def test_eligible_plan_runs_every_entry(self, provider):
        plan = get_batched_ntt(N, tuple(find_ntt_primes(2 * N, 30, 3)))
        assert plan.keyswitch_ok and plan.drop_top_ok
        for call, outputs in _calls(provider, plan).values():
            call()
            assert not any((out == 0xDEAD).any() for out in outputs)

    @pytest.mark.parametrize("bits, schedule", [
        (30, (2, 1)),  # clamp-free inverse, unreduced accumulator
        (31, (1, 1)),  # past the host limit: no plan, no schedule
    ])
    def test_schedule_is_resolved_once_on_the_plan(self, provider, bits,
                                                   schedule):
        """The plan holds ``(inv_mode, ks_lazy)`` and ``plan_t`` carries
        ``ks_lazy``: ``inv_mode`` picks numpy's inverse stages, and C
        runs the one inverse schedule there is.  From 2^30 up no plan
        is built: :class:`HostModulusError` is raised where it would
        be, so no schedule reaches C."""
        primes = tuple(find_ntt_primes(2 * N, bits, 3))
        if bits > 30:
            with pytest.raises(HostModulusError, match=str(primes[0])):
                get_batched_ntt(N, primes)
            return
        plan = get_batched_ntt(N, primes)
        assert (plan.inv_mode, plan.ks_lazy) == schedule
        tables = cext._tables(plan, "test")
        assert tables.ks_lazy == schedule[1]
        assert "inv_mode" not in dict(cext.PlanTables._fields_)
        assert cext._tables(plan, "test") is tables


def _check(plan, key=None):
    """A well-formed integrity request for ``plan`` (zero tables)."""
    table = np.zeros((len(plan.primes), 2, 2, N), dtype=np.uint32)
    return SimpleNamespace(
        intt=table, ntt=table.copy(), spare_modulus=1_048_573,
        key_images=None if key is None else [np.zeros(key.shape, np.uint32)])


class TestCheckRequestIsValidatedInTheCallee:
    """``check`` reaches C through the binding only, as ``check_t``."""

    @pytest.fixture
    def plan(self):
        return get_batched_ntt(N, tuple(find_ntt_primes(2 * N, 30, 3)))

    def _checked_calls(self, provider, plan, check_of):
        rows = len(plan.primes)
        x = np.zeros((rows, N), dtype=np.uint64)
        key = np.zeros((rows, 2, rows, N), dtype=np.uint64)
        keep = np.arange(rows, dtype=np.int64)
        out, acc0, acc1 = (_poison(rows - 1, N), _poison(1, rows, N),
                           _poison(1, rows, N))
        ks, drop = check_of(plan, key), check_of(plan, None)
        return {
            "ks_apply": (lambda: provider.ks_apply(
                plan, x[:-1], [key], keep, acc0, acc1,
                _work("ks_apply", rows), None, ks), [acc0, acc1], ks),
            "drop_top": (lambda: provider.drop_top(
                plan, x, np.ones(rows - 1, dtype=np.uint64), out,
                _work("drop_top", rows), drop), [out], drop),
        }

    def test_a_well_formed_request_gets_its_sums(self, provider, plan):
        limbs = len(plan.primes) - 1
        for entry, (call, outputs, check) in self._checked_calls(
                provider, plan, _check).items():
            call()
            assert not any((out == 0xDEAD).any() for out in outputs)
            # A drop leaves the evaluation domain in its top row only.
            row_ntts = (limbs + limbs * limbs if entry == "ks_apply"
                        else 1 + limbs)
            assert check.sums.shape == (row_ntts, 2, 2)
            assert not check.sums.any()  # zero rows against zero weights
            if entry == "ks_apply":
                assert check.spare.shape == (1, limbs + 1, 2, 2)
            else:
                assert check.spare is None

    @pytest.mark.parametrize("entry", ["ks_apply", "drop_top"])
    @pytest.mark.parametrize("spoil", [
        lambda c: setattr(c, "intt", c.intt[:-1]),
        lambda c: setattr(c, "ntt", c.ntt.astype(np.uint64)),
        lambda c: setattr(c, "intt", c.intt[:, ::-1]),
    ], ids=["short-table", "uint64-table", "strided-table"])
    def test_ill_shaped_tables_never_reach_c(self, provider, plan, entry,
                                             spoil):
        call, outputs, check = self._checked_calls(
            provider, plan, _check)[entry]
        spoil(check)
        with pytest.raises(ValueError, match=rf"{entry}: check\.\w+ must be"):
            call()
        assert all((out == 0xDEAD).all() for out in outputs)

    def test_key_image_must_mirror_the_key_block(self, provider, plan):
        call, outputs, check = self._checked_calls(
            provider, plan, _check)["ks_apply"]
        check.key_images = [check.key_images[0][:, :1]]
        with pytest.raises(ValueError, match="check.key_images"):
            call()
        assert all((out == 0xDEAD).all() for out in outputs)

    @pytest.mark.parametrize("entry", ["ks_apply", "drop_top"])
    def test_refused_checksum_gate_never_reaches_c(self, provider, plan,
                                                   entry, monkeypatch):
        """The gate is the plan's (``checksum_dot_lazy_ok`` at ``max_x =
        2**32 - 1``, asked once where the plan is built): it refuses
        30-bit primes at n = 2^18 and nothing the toy shapes reach, so
        the refusal itself is forced here."""
        assert plan.checksum_ok
        call, outputs, _ = self._checked_calls(provider, plan, _check)[entry]
        monkeypatch.setattr(plan, "checksum_ok", False)
        with pytest.raises(ValueError, match=f"{entry}: in-kernel integrity"):
            call()
        assert all((out == 0xDEAD).all() for out in outputs)

    def test_reduced_accumulator_refuses_the_spare_channel(self, provider):
        """17 30-bit products overflow uint64 (16 do not), so the
        accumulator is reduced at every step and has no ``mod q_s`` to
        compare."""
        primes = tuple(find_ntt_primes(2 * N, 30, 18))
        assert get_batched_ntt(N, primes[:17]).ks_lazy
        plan = get_batched_ntt(N, primes)
        assert plan.keyswitch_ok and plan.checksum_ok and not plan.ks_lazy
        calls = self._checked_calls(provider, plan, _check)
        with pytest.raises(ValueError, match="ks_apply: in-kernel integrity"):
            calls["ks_apply"][0]()
        calls["drop_top"][0]()  # row sums only: no accumulator involved

    def test_the_gate_is_the_analysis_closed_form(self):
        from repro.analysis.bounds import checksum_dot_lazy_ok

        for bits in (28, 29, 30):
            plan = get_batched_ntt(N, tuple(find_ntt_primes(2 * N, bits, 3)))
            assert plan.checksum_ok == all(
                checksum_dot_lazy_ok(N, 2**32 - 1, q) for q in plan.primes)
        assert checksum_dot_lazy_ok(1 << 17, 2**32 - 1, (1 << 30) - 1)
        assert not checksum_dot_lazy_ok(1 << 18, 2**32 - 1, (1 << 30) - 1)


def _c_source():
    return re.sub(r"/\*.*?\*/", "", cext._SOURCE.read_text(), flags=re.S)


def _c_struct_fields(struct):
    """``struct``'s fields in ``kernels.c``, as a ctypes ``_fields_``."""
    body = re.search(r"typedef struct \{([^{}]*)\} %s;" % struct,
                     _c_source()).group(1)
    scalars = {"int": ctypes.c_int, "u64": ctypes.c_uint64,
               "u32": ctypes.c_uint32, "i64": ctypes.c_int64}
    fields = []
    for decl in filter(None, (d.strip() for d in body.split(";"))):
        ctype, names = re.fullmatch(r"((?:const )?\w+) (.+)", decl,
                                    flags=re.S).groups()
        for name in (part.strip() for part in names.split(",")):
            if not name.startswith("*"):
                fields.append((name, scalars[ctype]))
            elif struct == "plan_t":  # typed pointers
                fields.append((name[1:], ctypes.POINTER(
                    scalars[ctype.removeprefix("const ")])))
            else:
                fields.append((name.lstrip("*"), ctypes.c_void_p))
    return fields


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
                     "drop_top", "tensor"):
            params = inspect.signature(
                getattr(cext.CExtProvider, name)).parameters
            assert not [p for p in params
                        if any(w in p for w in SCHEDULE_WORDS)], name

    def test_plan_tables_mirror_plan_t_field_for_field(self):
        assert _c_struct_fields("plan_t") == cext.PlanTables._fields_

    def test_check_tables_mirror_check_t_field_for_field(self):
        assert _c_struct_fields("check_t") == cext.CheckTables._fields_
