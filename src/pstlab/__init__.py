"""Deterministic Liouville-space simulator of pseudo-twirled non-Clifford gates.

Builds the exact twirl-ensemble channel of a Pauli-generated gate under
coherent errors and Lindblad noise, extracts effective Hamiltonian
weights through the channel log, evaluates the first- and second-order
averaged interaction terms (quadrature and closed form), and inverts the
sinc-law calibration relation for the drive duration.

The package re-exports every module's ``__all__``; each public name is
declared once, in the module that defines it.  Names resolve on first
access (PEP 562), so ``import pstlab`` loads no submodule and no numpy.
The numpy-free modules (`errors`, `sinc_law`, `schema`, `pauli`) come
first in the search order, so ``pstlab.over_rotation_factor`` or
``pstlab.sign_table_csv`` still loads no numpy; any name of a numeric
module, ``pstlab.__all__``, ``dir(pstlab)`` and ``from pstlab import *``
import every module.
"""

import importlib

__version__ = "0.1.0"

# Every submodule whose ``__all__`` the package re-exports, in export order.
_MODULES = (
    "errors", "sinc_law", "schema", "pauli",
    "liouville", "numerics", "magnus", "pst_core", "experiments",
)


def _module(name: str):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    # A submodule, the CLI included, imports on first access, so that
    # ``from pstlab import cli`` searches no numeric module.
    if name in _MODULES or name == "cli":
        return _module(name)
    if name == "__all__":
        value = [export for module in _MODULES for export in _module(module).__all__]
    elif name.startswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        for module in map(_module, _MODULES):
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
