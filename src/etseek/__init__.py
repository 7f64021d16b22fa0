"""Event-triggered extremum seeking on a scalar quadratic map.

Simulates the discrete-time seeking loop with a static relative-error
trigger, its averaged counterpart, and the analysis checks (gradient
expansion, Lyapunov decay, convergence envelopes) that tie the two together.
Config files, experiment outputs and sweeps live in etseek.cli, which the
package does not import, so that `python -m etseek.cli` runs it fresh.

Each module's __all__ is its public API; etseek re-exports the four lists
(importing a submodule binds its name here) and adds __version__.
"""

from etseek.analysis import *
from etseek.average import *
from etseek.escore import *
from etseek.trigger import *

__version__ = "0.1.0"

__all__ = [*analysis.__all__, *average.__all__, *escore.__all__,
           *trigger.__all__, "__version__"]
