"""Exact weight multiplicities for semisimple Lie algebras.

Root data and the recursions are integer arithmetic; `fractions.Fraction`
appears only for genuinely rational values (the form on weights and the
root coordinates of a weight), and no floating point is used anywhere.
Weights are tuples of coordinates in the basis of fundamental weights,
root vectors are tuples of coordinates in the basis of simple roots, and
both are indexed in the standard Bourbaki order for each family.

Quick tour::

    from weightmult import build_root_system, multiplicity_value

    a2 = build_root_system("A", 2)
    multiplicity_value(a2, (1, 1), (0, 0))   # 2: the adjoint zero weight
"""

from . import errors, multiplicity, oracle, partition, rootsys

# captured before the star imports below rebind `multiplicity` to the function
_MODULES = (errors, rootsys, partition, multiplicity, oracle)

from .errors import *
from .rootsys import *
from .partition import *
from .multiplicity import *
from .oracle import *

__version__ = "1.0.0"

__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
