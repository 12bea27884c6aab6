"""Measurable graphings for multihead probabilistic machines.

The package builds graph-shaped measurable dynamics over a product space
(symbol tape, unit cube, ternary cylinder coordinates), compiles multihead
machines with an optional stack into them, and checks machine behaviour two
independent ways: an exact configuration-level probability solver, and a
dialogue semantics where the compiled graphing is executed against a word
representation and judged through orthogonality tests.
"""

from .automata import (ACCEPT, INIT, REJECT, Automaton, Instruction,
                       accept_probability, format_automaton, parse_automaton,
                       read_vector, trace_enumerate)
from .compiler import (CompiledMachine, DialectState, compile_automaton,
                       format_compiled, prune_reachable)
from .errors import (ClosureViolation, FormatError, GraphingError,
                     TruncationError, ValidationError)
from .execution import (CutSpec, ExecOptions, PathSum, accept_path_sum,
                        enumerate_paths, plug)
from .graphing import (Edge, GraphingRep, Weight, WEIGHT_ONE, equivalent,
                       format_graphing, format_realizer, format_weight,
                       is_deterministic, is_refinement, is_subprobabilistic,
                       parse_graphing, parse_realizer, parse_weight)
from .measurement import (MemberReport, Test, TestMember, TestReport,
                          check_uniformity, make_test, membership,
                          orthogonal_to_test)
from .realizer import Realizer, in_microcosm, perm_compose, perm_of, swap
from .space import (EXT_SYMBOLS, FULL, RESULT_SYMBOLS, SYMBOLS, Atom, Interval,
                    Region, ae_equal, disjoint_ae, format_atom, format_region,
                    full_symbol_region, parse_atom, parse_region,
                    refine_regions, subset_ae, sym_index, sym_of, sym_shift)
from .theta import (format_theta, parse_theta, reduce, reduce_random,
                    split_normal)
from .words import (WordRepresentation, bang_representation,
                    canonical_representation)

__all__ = [name for name in dir() if not name.startswith("_")]
