"""Computational group theory workbench around the subgroup generated by
commutators and p-th powers, with integer Smith normal form, Todd-Coxeter
coset enumeration, automorphism group search, and the lens-space preimage
obstructions for knots built on top of them.
"""

from .errors import (BudgetExhausted, CapExceeded, ConjugationNotInnerError,
                     PresentationSyntaxError)
from .homalg import (AbelianStructure, E2Table, IntMatrix, TRIVIAL, Z,
                     cokernel_structure, cyclic, cyclic_homology,
                     five_term_from_multiplication, lhs_e2_table,
                     smith_diagonal, smith_normal_form, tensor_with_zp)
from .perm import (AutomorphismSet, Perm, PermGroup, QuotientAction,
                   alternating_group, aut_group_search, center, centralizer,
                   commutator, cyclic_group, derived_subgroup, dihedral_group,
                   direct_product, format_cycles, klein_four_group,
                   normal_closure, parse_cycles, quotient_regular_action,
                   symmetric_group, trivial_group)
from .fp import (CosetTable, FpPresentation, Word, abelianization,
                 evaluate_word, kernel_coset_table, parse_presentation,
                 parse_word, reidemeister_schreier, todd_coxeter, verify_hom)
from .cp import (CpVerdict, PSeriesLevel, PSeriesReport, S6PipelineReport,
                 cp_group_verdict, cp_kernel_coset_table,
                 cp_kernel_presentation, cp_quotient_fp, cp_quotient_perm,
                 cp_subgroup, derived_p_series,
                 verify_exact_sequence, verify_s6_pipeline)
from .knot import (LensSurgeryAnswer, OutObstructionReport, TorusKnotParams,
                   TrefoilObstructionReport, chbili_q,
                   complete_group_obstruction, preimage_component_count,
                   torus_knot_group, torus_preimage_exists,
                   trefoil_even_obstruction)

__version__ = "0.1.0"
