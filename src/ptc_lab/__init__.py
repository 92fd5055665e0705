"""Design and verification toolkit for prescribed-time controllers.

The package designs state-feedback controllers that drive an uncertain
integrator chain to zero by a user-chosen deadline, simulates the closed
loop up to the controller's terminal singularity, and certifies the
resulting traces against triangular stability and attractivity envelopes.
"""

from . import analysis, combinatorics, controller, errors, expressions, linalg, plant, sim
from .analysis import *
from .combinatorics import *
from .controller import *
from .errors import *
from .expressions import *
from .linalg import *
from .plant import *
from .sim import *

__version__ = "0.1.0"

# Each module's __all__ is its public API; the package re-exports them all.
__all__ = [
    "__version__",
    *errors.__all__,
    *combinatorics.__all__,
    *linalg.__all__,
    *controller.__all__,
    *expressions.__all__,
    *plant.__all__,
    *sim.__all__,
    *analysis.__all__,
]
