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
                        cut_between, enumerate_paths, plug, plug_dialect_pairs)
from .graphing import (Edge, GraphingRep, Weight, WEIGHT_ONE, equivalent,
                       format_graphing, format_realizer, format_weight,
                       is_deterministic, is_refinement, is_subprobabilistic,
                       parse_graphing, parse_realizer, parse_weight)
from .measurement import (MemberReport, Test, TestMember, TestReport,
                          check_uniformity, make_test, membership,
                          orthogonal_to_test)
from .realizer import Realizer, in_microcosm, perm_compose, perm_inverse, perm_of, swap
from .space import (EXT_SYMBOLS, FULL, RESULT_SYMBOLS, SYMBOLS, Atom, Interval,
                    Region, ae_equal, box_measure, cyl_measure, difference,
                    disjoint_ae, format_atom, format_region, full_symbol_region,
                    parse_atom, parse_region, refine_regions, region_of,
                    subset_ae, sym_index, sym_of, sym_shift)
from .theta import (format_theta, from_ops, is_normal, is_stack_accepting,
                    parse_theta, reduce, reduce_random, split_normal, theta_mul)
from .words import (WordRepresentation, bang_representation,
                    canonical_representation, rep_family)

__all__ = [name for name in dir() if not name.startswith("_")]
