"""fiberlab: exact blow-up algebra invariants of equigenerated ideals.

Special fibers, Rees algebras and associated graded rings over Q or a
prime field, with reduction numbers, Cohen-Macaulay tests, graded free
resolutions, and the predicate suite (G_s, analytic tightness and
adjustment, Valabrega-Valla, multiplicity formulas) behind the
``fiberlab`` command line.
"""

from .fields import GF, QQ, FieldSpec
from .groebner import GroebnerBasis, buchberger, eliminate, normal_form
from .ideals import Ideal
from .parse import ParseError, parse_ideal_file
from .polyring import GREVLEX, LEX, Elimination, Polynomial, Ring, WeightThen

__all__ = [
    "GF", "QQ", "FieldSpec",
    "GroebnerBasis", "buchberger", "eliminate", "normal_form",
    "Ideal", "ParseError", "parse_ideal_file",
    "GREVLEX", "LEX", "Elimination", "Polynomial", "Ring", "WeightThen",
]

__version__ = "0.1.0"
