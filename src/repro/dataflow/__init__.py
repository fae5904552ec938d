"""Generic bit-vector dataflow machinery.

The paper's efficiency argument is that Lazy Code Motion needs only
*unidirectional* bit-vector problems, which are simpler and cheaper to
solve than Morel–Renvoise's bidirectional system.  This package provides
the machinery to measure that claim:

* :mod:`repro.dataflow.bitvec` — fixed-width bit vectors over an indexed
  universe, with optional per-operation counting;
* :mod:`repro.dataflow.order` — postorder / reverse-postorder traversals;
* :mod:`repro.dataflow.problem` — declarative problem descriptions
  (direction, confluence, boundary, transfer functions);
* :mod:`repro.dataflow.solver` — round-robin and worklist iterative
  solvers for unidirectional problems;
* :mod:`repro.dataflow.dense` — the allocation-free int-array backend
  the default ``"auto"`` strategy compiles problems to;
* :mod:`repro.dataflow.fused` — the fused LCM plan: the whole
  earliest/later/insert/replace quartet (edge-based and node-level) as
  one back-to-back int-array cascade over a single compiled plan;
* :mod:`repro.dataflow.bidirectional` — a fixpoint solver for coupled
  equation systems (used by the Morel–Renvoise baseline);
* :mod:`repro.dataflow.stats` — counters shared by all of the above.
"""

from repro.dataflow.bitvec import BitVector, OpCounter, counting, counting_active
from repro.dataflow.dense import DenseGraph, compile_plan, solve_dense
from repro.dataflow.fused import (
    LCMPlan,
    compile_lcm_plan,
    run_fused_krs,
    run_fused_lcm,
)
from repro.dataflow.order import postorder, reverse_postorder, backward_order
from repro.dataflow.problem import (
    Confluence,
    DataflowProblem,
    Direction,
    GenKillTransfer,
)
from repro.dataflow.solver import STRATEGIES, Solution, solve, solve_worklist
from repro.dataflow.bidirectional import EquationSystem, solve_system
from repro.dataflow.stats import SolverStats

__all__ = [
    "BitVector",
    "STRATEGIES",
    "Confluence",
    "DataflowProblem",
    "DenseGraph",
    "Direction",
    "EquationSystem",
    "GenKillTransfer",
    "LCMPlan",
    "OpCounter",
    "Solution",
    "SolverStats",
    "backward_order",
    "compile_lcm_plan",
    "compile_plan",
    "counting",
    "counting_active",
    "postorder",
    "reverse_postorder",
    "run_fused_krs",
    "run_fused_lcm",
    "solve",
    "solve_dense",
    "solve_system",
    "solve_worklist",
]
