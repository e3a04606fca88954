"""MDP-to-spin compilation toolkit.

Pipeline: build or load a tabular MDP, compile it into a truncated
pseudo-Boolean cost function over policy bits, reduce to QUBO by pair
substitution, solve by exhaustive search or simulated annealing, and
validate recovered policies against exact dynamic programming.
"""

from .anneal import (AnnealSchedule, SaRead, TtsEstimate, default_beta_range, simulated_anneal,
                     success_probability, tts)
from .compiler import CompiledHamiltonian, CompilerConfig, compile_hamiltonian
from .dp import (QLearningConfig, best_policy_exhaustive, minimal_truncation_order,
                 policy_evaluation_exact, q_learning, truncated_q_table, value_iteration)
from .errors import InstanceTooLargeError, NoTruncationError
from .mdp import (Mdp, ParseError, PolicyAssignment, ValidationError, build_hallway,
                  flat_index, load_mdp, save_mdp, terminal_states)
from .pseudoboolean import (Monomial, PseudoBooleanPolynomial, all_assignment_energies,
                            exhaustive_ground_state, normalize_monomial)
from .quadratize import (AncillaRegistry, QuboProblem, consistency_violations, project,
                         quadratize, rosenberg_penalty, to_qubo_text)
from .resources import ResourceReport, count_resources, scaling_fit

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
