"""The program IR (`repro.fhe.program`): the op table against the
abstract interpreter and the real schemes, the executor's two refusals
(an unclean verdict, a feed of the wrong length), and the absence of any
other way to execute an op."""

import inspect

import numpy as np
import pytest

import repro.analysis
import repro.analysis.ctstate as ctstate
import repro.fhe.program as program
from repro.analysis.ctstate import CtStateError, check_sequence, run_checked
from repro.fhe.bfv import BfvContext
from repro.fhe.bgv import BgvContext, BgvParams
from repro.fhe.ckks import CkksContext
from repro.fhe.params import toy_params
from repro.fhe.program import (OP_TABLE, SCHEMES, Op, ProgramExecutor,
                               feed_count, op_to_row, ops_digest, scheme_of)
from repro.recover.checkpoint import state_matches
from repro.recover.executor import (JOURNAL_NAME, DurableExecutor,
                                    golden_outputs_digest)

BGV_PARAMS = BgvParams(n=256, levels=3, plaintext_modulus=65537,
                       prime_bits=30)

#: A minimal program per kind: two encrypts, then these ops, the last of
#: which is the kind under test.
TAILS = {
    "encrypt": [],
    "add": [Op("add", (0, 1))],
    "sub": [Op("sub", (0, 1))],
    "multiply": [Op("multiply", (0, 1))],
    "multiply_plain": [Op("multiply_plain", (0,))],
    "tensor": [Op("tensor", (0, 1))],
    "relinearize": [Op("tensor", (0, 1)), Op("relinearize", (2,))],
    "rescale": [Op("multiply", (0, 1)), Op("rescale", (2,))],
    "rotate": [Op("rotate", (0,), arg=1)],
    "conjugate": [Op("conjugate", (0,))],
    "mod_reduce": [Op("mod_reduce", (0,))],
    "mod_switch": [Op("mod_switch", (0,))],
    "ntt": [Op("intt", (0,)), Op("ntt", (2,))],
    "intt": [Op("intt", (0,))],
}


@pytest.fixture(scope="module")
def contexts():
    ckks = CkksContext(toy_params(), seed=3)
    ckks.generate_galois_keys([1], conjugation=True)
    bgv = BgvContext(BGV_PARAMS, seed=3)
    bgv.generate_galois_keys([1])
    return {"ckks": ckks, "bgv": bgv, "bfv": BfvContext(BGV_PARAMS, seed=3)}


def _inputs(scheme, count):
    rng = np.random.default_rng(11)
    if scheme == "ckks":
        return [rng.uniform(-1, 1, toy_params().slots) for _ in range(count)]
    return [rng.integers(0, 16, size=BGV_PARAMS.n) for _ in range(count)]


class TestOpTable:
    def test_every_kind_has_a_test_program(self):
        assert set(TAILS) == set(OP_TABLE)

    @pytest.mark.parametrize("scheme,kind", [
        (scheme, kind) for kind, spec in OP_TABLE.items()
        for scheme in SCHEMES if scheme in spec.run])
    def test_kind_checks_and_executes(self, contexts, scheme, kind):
        assert callable(getattr(ctstate._Interp, f"_op_{kind}"))
        ctx = contexts[scheme]
        ops = [Op("encrypt"), Op("encrypt")] + TAILS[kind]
        assert ops[-1].kind == kind
        report = check_sequence(ops, ctx.params, scheme=scheme)
        assert report.ok, list(report.findings)
        values = ProgramExecutor(
            report, ctx, _inputs(scheme, feed_count(ops))).run()
        assert len(values) == len(ops) and None not in values
        for value, state in zip(values, report.states):
            assert state_matches(value, state) is None

    def test_unsupported_pairs_are_refused_by_the_checker(self):
        for kind, spec in OP_TABLE.items():
            for scheme in set(SCHEMES) - set(spec.run):
                params = toy_params() if scheme == "ckks" else BGV_PARAMS
                ops = [Op("encrypt"), Op("encrypt")] + TAILS[kind]
                report = check_sequence(ops, params, scheme=scheme)
                assert "C005" in [f.rule for f in report.findings]

    def test_journal_forms_are_pinned(self):
        """Journals written before the move must still resume: the
        digest preimage (kind, srcs, arg — not the label) and the BEGIN
        row are byte-for-byte what `recover` produced."""
        ops = [Op("encrypt"), Op("rotate", (0,), arg=1, label="x"),
               Op("mod_reduce", (1,))]
        assert ops_digest(ops, "ckks") == (
            "ee2b177b0bb2e1f7968ab9c9bfdfd3016237428f18d19c30a153c32c935a1cf9")
        assert op_to_row(ops[1]) == ["rotate", [0], 1, "x"]


class TestSchemeTag:
    """`scheme_of` reads the declared tag, never the class name."""

    def test_subclass_of_any_name_is_its_base_scheme(self):
        class Bgvish(CkksContext):  # the name says bgv; the tag says ckks
            pass

        ctx = Bgvish(toy_params(), seed=3)
        assert scheme_of(ctx) == "ckks"
        x = np.linspace(-1, 1, toy_params().slots)
        values = run_checked([Op("encrypt"), Op("encrypt"),
                              Op("multiply", (0, 1)), Op("rescale", (2,))],
                             ctx, [x, x])
        np.testing.assert_allclose(ctx.decrypt(values[-1]).real, x * x,
                                   atol=1e-3)

    def test_every_context_class_declares_its_tag(self, contexts):
        assert {scheme_of(ctx) for ctx in contexts.values()} == set(SCHEMES)
        assert all(scheme_of(ctx) == name for name, ctx in contexts.items())

    def test_untagged_object_is_a_type_error(self):
        class CkksLookalike:  # named like a context, declares nothing
            params = toy_params()

        with pytest.raises(TypeError, match="scheme"):
            scheme_of(CkksLookalike())


class CkksCountingContext:
    """Stands in for a CKKS context (``scheme_of`` reads the ``scheme``
    tag) and counts every attribute touched."""

    scheme = "ckks"
    params = toy_params()

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        self.calls += 1
        raise AssertionError(f"context.{name} reached without a verdict")


class TestOnlyCheckedExecution:
    def test_findings_raise_before_any_context_call(self):
        ops = [Op("encrypt"), Op("encrypt"), Op("multiply", (0, 1)),
               Op("multiply", (2, 2))]  # scale overflow: C002
        report = check_sequence(ops, toy_params())
        assert not report.ok
        ctx = CkksCountingContext()
        with pytest.raises(CtStateError) as excinfo:
            ProgramExecutor(report, ctx, [np.zeros(4)] * 2)
        assert excinfo.value.report is report
        assert ctx.calls == 0

    def test_nothing_public_executes_a_bare_op(self):
        """What the deleted lint rule FHC008 policed call site by call
        site: the only executor is built from a verdict, and the old
        per-op / per-sequence entry points are gone."""
        for module in (program, ctstate, repro.analysis):
            for gone in ("execute_op", "execute_sequence"):
                assert not hasattr(module, gone)
        executors = [name for name in program.__all__
                     if "execut" in name.lower()]
        assert executors == ["ProgramExecutor"]
        first = list(inspect.signature(ProgramExecutor).parameters)[0]
        assert first == "report"


OPS = [Op("encrypt"), Op("encrypt"), Op("add", (0, 1))]


def _via_run_checked(ctx, inputs, directory):
    run_checked(OPS, ctx, inputs)


def _via_golden(ctx, inputs, directory):
    golden_outputs_digest(ctx, OPS, inputs, run_seed=1)


def _via_durable_run(ctx, inputs, directory):
    DurableExecutor(ctx, OPS, inputs, directory, run_seed=1).run()


def _via_generator(ctx, inputs, directory):
    def produced():
        yield from run_checked(OPS, ctx, inputs)

    list(produced())


class TestFeedLength:
    """A feed shorter or longer than the program's feed count used to
    surface as a bare StopIteration (RuntimeError inside a generator),
    after ops had run and the journal had begun."""

    @pytest.mark.parametrize("supplied", [1, 3])
    @pytest.mark.parametrize("caller", [
        _via_run_checked, _via_golden, _via_durable_run, _via_generator])
    def test_wrong_length_is_a_value_error_before_anything_runs(
            self, caller, supplied, tmp_path):
        ctx = CkksCountingContext()
        inputs = [np.zeros(toy_params().slots)] * supplied
        with pytest.raises(ValueError, match=rf"2 feed.*{supplied} input"):
            caller(ctx, inputs, tmp_path)
        assert ctx.calls == 0
        journal = tmp_path / JOURNAL_NAME
        assert not journal.exists() or journal.read_bytes() == b""
