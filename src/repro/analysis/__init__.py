"""``fhecheck`` — static bound/overflow verification for the repository.

The lazy-reduction kernels (:mod:`repro.ntt.cooley_tukey`) and the fused
keyswitch accumulation (:mod:`repro.fhe.keyswitch`) earn their speed by
*postponing* modular reduction: intermediate lane values deliberately
exceed the modulus, and correctness rests on inequalities such as
``((log2(n)+1)q - 1)(q - 1) < 2**64``.  This package holds those
inequalities and checks the planned work against its models.  A
compiled VPU micro-program is checked by the unit that runs it: its
lowering refuses port, register-range and opcode faults, and its
binding a constant slot past the table.

* :mod:`repro.analysis.bounds` — the production gates: the closed-form
  inequalities the NTT/keyswitch/integrity fast paths ask before they
  postpone a reduction.
* :mod:`repro.analysis.dataflow` — def-use facts over a VPU's lowered
  steps: the register and memory demands of a compiled program.
* :mod:`repro.analysis.resources` — symbolic SRAM/DRAM occupancy replay
  of staged accelerator plans: capacity overflow, use-after-evict,
  double-buffer conflicts.
* :mod:`repro.analysis.ctstate` — ciphertext-state abstract
  interpretation of recorded CKKS/BFV/BGV op sequences (level, scale,
  NTT/coeff domain, noise budget).  Its verdict is what the program
  executor (:class:`repro.fhe.program.ProgramExecutor`) is built from;
  :func:`~repro.analysis.ctstate.run_checked` composes the two.
* :mod:`repro.analysis.lint` — four repository-specific AST lint rules
  (unreduced products under ``%``, unguarded fault-hook dereferences,
  non-durable writes in the recovery layer, stale suppressions).

Run everything with ``python -m repro.analysis`` (see
:mod:`repro.analysis.cli`); ``--json`` prints the findings as one JSON
report.  Exit status: 0 clean, 1 when any error-severity finding fired,
2 on usage errors.
"""
