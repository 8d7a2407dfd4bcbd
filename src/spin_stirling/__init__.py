"""Quantum Stirling cycle of a spin-1/2 exchange-coupled dimer.

The package is organized in thin layers:

``core``
    Closed-form equilibrium state functions of the dimer (populations,
    entropy, internal energy, susceptibility shape factor) plus a 4x4
    Gibbs-state numerical oracle that cross-checks them.
``cycle``
    Per-stroke heat accounting for the four-stroke Stirling cycle, net
    work, operational-mode classification, and efficiency.
``phasemap``
    Grid sweeps over the (coupling ratio, temperature ratio) plane,
    zero-work boundary tracing, and CSV/JSON export.
``magnetometry``
    Ingestion and Bleaney-Bowers fitting of experimental molar
    susceptibility data, bridging-angle conversion, and engine curves
    driven by fitted couplings.
``cli``
    The ``spin-stirling`` command-line tool.

Energies are carried internally as J/k_B in kelvin; eV appears only in
reporting layers.
"""

# Each submodule's ``__all__`` is its public interface, republished here,
# so a public name is declared once: in the module that defines it.
from . import constants, core, cycle, errors, magnetometry, phasemap
from .constants import *
from .core import *
from .cycle import *
from .errors import *
from .magnetometry import *
from .phasemap import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *constants.__all__,
    *core.__all__,
    *cycle.__all__,
    *phasemap.__all__,
    *magnetometry.__all__,
    *errors.__all__,
]
