"""Cyclic branched coverings of 2-bridge knots and links, in exact arithmetic.

Normal forms and equivalence of b(alpha, beta), the taxonomy of cyclic
coverings by branching exponents, coloured-graph and face-paired-ball models,
three families of fundamental group presentations, first homology by several
independent routes, and the factorization of singly-cyclic coverings.
"""

from .covering import (CoveringClass, CoveringSpec, GenusBounds, GeometryType,
                       classify, covering_equivalent, genus_bounds, geometry,
                       hyperbolic_homeomorphic, lens_recognize)
from .decomposition import decompose
from .gems import (CYCLIC_ORDERS, ColouredGraph, LMParams, SPHERE,
                   build_generalized, build_lins_mandel, gem_closed_form,
                   graph_isomorphic, heegaard_genus, is_crystallization, is_gem,
                   lm_isomorphic_closed_form, represented_covering)
from .homology import (AbelianGroup, IntMatrix, h1, h1_closed_form,
                       order_via_resultant, smith_normal_form, verify_consistency)
from .polyhedral import (MinkusSchema, build_minkus, quotient_counts,
                         schema_presentation)
from .presentations import (alexander_polynomial, minkus_cyclic,
                            minkus_presentation, mu3_presentation,
                            takahashi_word)
from .two_bridge import (TwoBridge, cf_expand, equivalent, even_cf_expand,
                         is_genus_one, linking_number, mirror, normalize)
from .words import (CyclicPresentation, FreeWord, LaurentPolynomial,
                    Presentation, format_word)

__version__ = "0.1.0"
