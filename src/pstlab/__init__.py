"""Deterministic Liouville-space simulator of pseudo-twirled non-Clifford gates.

Builds the exact twirl-ensemble channel of a Pauli-generated gate under
coherent errors and Lindblad noise, extracts effective Hamiltonian
weights through the channel log, evaluates the first- and second-order
averaged interaction terms (quadrature and closed form), and inverts the
sinc-law calibration relation for the drive duration.

The package re-exports every module's ``__all__``; each public name is
declared once, in the module that defines it.
"""

from . import errors, experiments, liouville, magnus, numerics, pauli, pst_core
from .errors import *
from .pauli import *
from .liouville import *
from .numerics import *
from .magnus import *
from .pst_core import *
from .experiments import *

__version__ = "0.1.0"

__all__ = []
__all__ += errors.__all__
__all__ += pauli.__all__
__all__ += liouville.__all__
__all__ += numerics.__all__
__all__ += magnus.__all__
__all__ += pst_core.__all__
__all__ += experiments.__all__
