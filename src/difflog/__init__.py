"""difflog: learn Datalog programs from examples by continuous relaxation.

Rule selection is relaxed to per-rule weights in [0,1]; programs are
evaluated under the Viterbi semiring with provenance, weights are tuned by
a hybrid Newton / simulated-annealing search, and an exact discrete
program is recovered from the optimum.
"""

from .core import (Atom, CandidateRuleSet, Const, Database, Fact, LabelSet,
                   ParseError, Problem, ProblemError, RelationDecl, Rule,
                   SemanticError, boolean_fixpoint, check_solution, ground,
                   parse_problem, write_problem, write_rules)
from .optimizer import (SearchConfig, SearchOutcome, SearchRunner, loss,
                        mcmc_accept, mcmc_propose, newton_step, search,
                        separation_check, temperature)
from .rulegen import GenConfig, augment, chain_seeds, generate
from .testkit import brute_force_value, encode_3cnf, random_instance
from .viterbi import EvaluationResult, Evaluator, gradient

__version__ = "0.1.0"
