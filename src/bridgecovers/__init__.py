"""Cyclic branched coverings of 2-bridge knots and links, in exact arithmetic.

Normal forms and equivalence of b(alpha, beta), the taxonomy of cyclic
coverings by branching exponents, coloured-graph and face-paired-ball models,
three families of fundamental group presentations, first homology by several
independent routes, and the factorization of singly-cyclic coverings.

The presentation, polyhedral, homology, word and decomposition layers load on
first use: each sits in ``sys.modules`` as an unexecuted module from the
start, and runs when one of its attributes is first read.  So the gem, info
and classify verbs never compile them.
"""

from .covering import (CoveringClass, CoveringSpec, GenusBounds, GeometryType,
                       classify, covering_equivalent, genus_bounds, geometry,
                       hyperbolic_homeomorphic, lens_recognize)
from .gems import (CYCLIC_ORDERS, ColouredGraph, LMParams, SPHERE,
                   build_generalized, build_lins_mandel, gem_closed_form,
                   graph_isomorphic, heegaard_genus, is_crystallization, is_gem,
                   lm_isomorphic_closed_form, represented_covering)
from .two_bridge import (TwoBridge, cf_expand, equivalent, even_cf_expand,
                         is_genus_one, linking_number, mirror, normalize)

# the names each lazy layer exports from the package
_LAZY = {
    "decomposition": ("decompose",),
    "homology": ("AbelianGroup", "IntMatrix", "h1", "h1_closed_form",
                 "order_via_resultant", "smith_normal_form", "verify_consistency"),
    "polyhedral": ("MinkusSchema", "build_minkus", "quotient_counts",
                   "schema_presentation"),
    "presentations": ("alexander_polynomial", "minkus_cyclic", "minkus_presentation",
                      "mu3_presentation", "takahashi_word"),
    "words": ("CyclicPresentation", "FreeWord", "LaurentPolynomial", "Presentation",
              "format_word"),
}
_SOURCE = {attr: layer for layer, attrs in _LAZY.items() for attr in attrs}


def _register(layer):
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    spec = find_spec(__name__ + "." + layer)
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _layer in _LAZY:
    # bound here as the import system binds a loaded submodule
    globals()[_layer] = _register(_layer)
del _layer


def __getattr__(name):
    if name in _SOURCE:
        return getattr(globals()[_SOURCE[name]], name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(_SOURCE))


__all__ = [name for name in __dir__() if not name.startswith("_")]

__version__ = "0.1.0"
