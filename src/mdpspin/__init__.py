"""MDP-to-spin compilation toolkit.

Pipeline: build or load a tabular MDP, compile it into a truncated
pseudo-Boolean cost function over policy bits, reduce to QUBO by pair
substitution, solve by exhaustive search or simulated annealing, and
validate recovered policies against exact dynamic programming.
"""

from .anneal import (AnnealSchedule, SaRead, TtsEstimate, TtsSweepResult,
                     default_beta_range, exhaustive_ground_state, simulated_anneal,
                     success_probability, tts, tts_sweep)
from .compiler import (CompiledHamiltonian, CompilerConfig, compile_hamiltonian,
                       minimal_truncation_order, truncated_q_table)
from .dp import (QLearningConfig, best_policy_exhaustive, policy_evaluation_exact,
                 q_learning, value_iteration)
from .errors import InstanceTooLargeError
from .mdp import (Mdp, ParseError, PolicyAssignment, ValidationError, build_hallway,
                  flat_index, load_mdp, save_mdp, terminal_states)
from .pseudoboolean import (Monomial, PseudoBooleanPolynomial, all_assignment_energies,
                            normalize_monomial)
from .quadratize import (AncillaRegistry, QuboProblem, consistency_violations, project,
                         quadratize, rosenberg_penalty, to_qubo_text)
from .resources import GateVolume, ResourceReport, count_resources, qaoa_gate_volume, scaling_fit

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
