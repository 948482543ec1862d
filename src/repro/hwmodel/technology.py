"""7 nm technology constants.

The paper targets the ASAP7 predictive PDK at 1 GHz with 64-bit
datapaths, and models SRAM/register files with FN-CACTI scaled to 7 nm.
We cannot synthesize RTL here, so each constant below is **calibrated**:
chosen once so that the structural formulas in this package reproduce the
paper's published design points, then *shared by every design* so that
the Table II comparison is a consequence of structure, not tuning.

Calibration provenance
----------------------

* ``MUX2_*`` and ``LANE_NET_OVERHEAD_*``: least-squares fit of
  ``area = a * (m * stages) + b * m`` (and likewise for power) against
  all seven rows of Table IV (our network at m = 4 .. 256).  Max residual
  0.9 % for m >= 16, 8.9 % at m = 4.  Physical reading: ~0.14 um^2 and
  ~0.4 uW per 2:1 mux bit including local routing, plus a per-lane cost
  for the butterfly pair links and control drivers.
* ``SRAM_*``: solved from the F1 and SHARP rows of Table II given their
  published buffer structures (F1: dual-port m*m*64 b quadrant-swap
  buffers; SHARP: double-depth 36-bit-word buffers).  The resulting
  0.06 um^2/bit effective cell and ~4 um^2 per IO bit-port sit inside the
  envelope of published 7 nm SRAM macros.
* ``XBAR_*``: solved from the BTS row (full 64x64 crossbar with 64-bit
  links): ~0.074 um^2 per crosspoint bit (a tristate driver is roughly
  half a mux2), wire energy ~0.34 fJ per bit per lane pitch.
* Lane components (Barrett multiplier / modular adder / register file):
  partitioned from the Table II "Ours" whole-VPU row after subtracting
  the network (lane total: 3823.28 um^2, 11.697 mW), split in proportions
  typical of published 64-bit modular-arithmetic units.
* ``ARK_ACTIVITY_FACTOR``: ARK/SHARP ship two always-clocked dedicated
  networks; the paper measures ~1.9x more switching power per mux than
  our fine-grained-gated unified network.  This is the single
  behavioral (non-structural) constant in the model.
"""

#: Target clock (all power numbers are at this frequency).
CLOCK_GHZ = 1.0

#: Datapath word width used throughout the paper's evaluation.
WORD_BITS = 64

# --- mux-based network structures (fit to Table IV) -----------------------

#: Area of one 2:1 mux bit, including local routing [um^2].
MUX2_AREA_PER_BIT = 8.95279 / 64

#: Switching power of one 2:1 mux bit at 1 GHz [mW].
MUX2_POWER_PER_BIT = 0.02546 / 64

#: Per-lane overhead of a lane-attached network unit: butterfly-pair
#: links, control decode, output drivers [um^2 and mW per lane].
LANE_NET_OVERHEAD_AREA = 20.74173
LANE_NET_OVERHEAD_POWER = 0.03803

#: Fixed control/sequencing power of one network unit [mW].
NETWORK_CONTROL_POWER = 0.0942

# --- SRAM macros (solved from F1 + SHARP rows of Table II) ----------------

#: Effective storage area per bit for a small dual-port streaming buffer,
#: array overheads included [um^2/bit].
SRAM_CELL_AREA_PER_BIT = 0.05963

#: Sense-amp / write-driver area per IO bit-port [um^2].
SRAM_IO_AREA_PER_BIT_PORT = 4.158

#: Access energy per IO bit at 1 GHz expressed as power [mW per bit-port
#: at 100% duty].  9.5 uW/bit-GHz = 9.5 fJ/bit.
SRAM_ACCESS_POWER_PER_BIT_PORT = 9.51e-3

#: Leakage per bit [mW] — negligible at these sizes but kept explicit.
SRAM_LEAKAGE_PER_BIT = 3.0e-8

# --- crossbars (solved from the BTS row of Table II) -----------------------

#: Area per crosspoint bit of a full crossbar [um^2].
XBAR_CROSSPOINT_AREA_PER_BIT = 0.074039

#: Wire switching power per bit per lane pitch traversed at 1 GHz [mW].
XBAR_WIRE_POWER_PER_BIT_LANE = 3.44e-4

# --- activity factors -------------------------------------------------------

#: Power multiplier for designs with separate always-clocked permutation
#: units relative to our clock-gated unified network.  ARK runs both its
#: dedicated networks hot (calibrated to its Table II power row); the
#: SHARP instantiation of the same automorphism unit is gated alongside
#: its phase-alternating SRAM buffers and measures near unity.  These are
#: the only behavioral (non-structural) constants in the model — switching
#: activity is a property of each baseline's RTL that cannot be derived
#: from structure alone.
ARK_ACTIVITY_FACTOR = 1.88
SHARP_ACTIVITY_FACTOR = 1.07

# --- lane datapath (partitioned from Table II "Ours" VPU row) --------------

#: Barrett modular multiplier: area ~ coef * width^2 (operand product plus
#: the mu- and q-multiplies of the reduction, pipelined).
BARRETT_AREA_PER_BIT2 = 2580.00 / (64 * 64)
BARRETT_POWER_PER_BIT2 = 8.35 / (64 * 64)

#: Modular adder/subtractor: area ~ coef * width.
MODADD_AREA_PER_BIT = 133.28 / 64
MODADD_POWER_PER_BIT = 0.30 / 64

#: Register file (2R1W, flop-based): area ~ coef * entries * width.
REGFILE_AREA_PER_BIT = 1110.00 / (64 * 64)
REGFILE_POWER_PER_BIT = 3.0472 / (64 * 64)

#: Default register-file depth per lane (entries of WORD_BITS each).
REGFILE_DEFAULT_ENTRIES = 64

# --- the published values the constants are fit to ------------------------

#: Paper Table II (m = 64), in its row order: design -> (network area
#: um^2, VPU area um^2, network power mW, VPU power mW).
PAPER_TABLE_II = {
    "F1": (55616.42, 300306.61, 93.50, 842.12),
    "BTS": (19405.16, 264095.35, 45.13, 793.75),
    "ARK": (9480.50, 254170.69, 46.35, 794.97),
    "SHARP": (44453.51, 289143.70, 44.04, 792.66),
    "Ours": (5913.62, 250603.81, 15.59, 764.21),
}

#: Paper Table IV: our network on m lanes -> (area um^2, power mW).
PAPER_TABLE_IV = {4: (208.99, 0.59), 8: (509.45, 1.38), 16: (1180.83, 3.13),
                  32: (2664.50, 7.02), 64: (5913.62, 15.59),
                  128: (12975.47, 34.28), 256: (28226.38, 75.02)}
