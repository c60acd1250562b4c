"""Toolkit for constraint-satisfaction non-redundancy experiments."""

from .predicates import (ConditionalPredicate, IndexFamily, Predicate,
                         PredicateError, box_product, permute,
                         permute_conditional, project, project_conditional)
from .catalog import catalog_names
from .balance import BalanceReport, is_balanced_bounded, is_balanced_lattice
from .cancellation import cancel, catalan_matrix_check, catalan_search
from .hypergraph import (Hypergraph, NrdCertificate, NrdFailure,
                         PartiteHypergraph, nrd_exact, shrinking_report,
                         verify_nrd)
from .substructure import (SubstructureCertificate, dependency_analysis,
                           find_substructure, search_families,
                           verify_certificate)
from .generators import (ShrinkingInstance, build_R1S1_instance,
                         build_R2S2_instance, gen_girth6, girth,
                         girth6_witness)
from .pipeline import (apply_reduction, conditional_to_plain, fit_exponent,
                       paper_verify, reduction_family)

__version__ = "0.1.0"
