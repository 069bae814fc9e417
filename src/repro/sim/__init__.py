"""Event-driven Verilog simulator (the paper's VCS substitute).

Public API:

* :func:`run_simulation` — parse + elaborate + simulate a source string
  (``backend="codegen"|"interp"``; codegen is the default and falls
  back to the interpreter on unsupported designs);
* :func:`run_testbench` — simulate design + self-checking testbench and
  count PASS/FAIL vectors; :func:`run_testbench_batch` scores many
  candidates against one shared (parsed-once) testbench;
* :class:`Value` — four-state bit-vector values;
* :func:`elaborate` / :class:`Simulator` — the interpreter pieces, the
  reference every compiled run is checked against;
* :func:`generate_module` / :func:`load_generated` — the codegen
  backend's source emitter and loader (see :mod:`repro.sim.codegen`),
  whose artefacts :class:`CompiledSimulator` runs (see
  :mod:`repro.sim.compile`).
"""

from .codegen import (SIM_CODEGEN_VERSION, codegen_key, generate_module,
                      load_generated)
from .compile import (SIM_COMPILE_VERSION, BackendStats,
                      CompiledDesign, CompiledDesignCache,
                      CompiledSimulator, CompileUnsupported,
                      backend_stats, configure_design_cache,
                      design_cache, reset_backend_stats, source_digest)
from .elaborate import Design, ElaborationError, Signal, elaborate
from .engine import SimulationError, SimulationTimeout, Simulator
from .testbench import (BACKENDS, DEFAULT_BACKEND, SimResult,
                        TestbenchVerdict, find_top, run_simulation,
                        run_testbench, run_testbench_batch)
from .values import Value, from_literal
from .vcd import Tracer

__all__ = [
    "Value", "from_literal", "elaborate", "Design", "Signal",
    "Simulator", "SimulationError", "SimulationTimeout",
    "ElaborationError", "run_simulation", "run_testbench",
    "run_testbench_batch", "find_top",
    "SimResult", "TestbenchVerdict", "Tracer",
    "BACKENDS", "DEFAULT_BACKEND", "SIM_COMPILE_VERSION",
    "SIM_CODEGEN_VERSION", "BackendStats", "CompileUnsupported",
    "CompiledDesign",
    "CompiledDesignCache", "CompiledSimulator", "backend_stats",
    "codegen_key", "configure_design_cache",
    "design_cache", "generate_module", "load_generated",
    "reset_backend_stats", "source_digest",
]
