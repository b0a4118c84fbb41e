"""Two independent routes to a radial oscillator-plus-linear-term spectrum.

`frobenius` builds isolated polynomial solutions by truncating the power
series in exact arithmetic. `spectrum` solves the same reduced operator
numerically and sees a continuous eigenvalue curve per branch. `analysis`
holds the two against each other: every truncation point lands on a
curve, so truncation selects isolated samples of a continuum rather than
a discrete set of allowed couplings.
"""

from . import analysis, frobenius, spectrum
from .analysis import *  # noqa: F401,F403
from .frobenius import *  # noqa: F401,F403
from .spectrum import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = analysis.__all__ + frobenius.__all__ + spectrum.__all__
