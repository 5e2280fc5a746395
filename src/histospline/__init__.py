"""Histogram cubic-spline probability density estimation.

Workflow: pick a bin count (:func:`select_bin_count`), histogram the
samples, interpolate the cumulative bin masses with a cubic spline under
a boundary condition, and differentiate the spline to get a smooth,
evaluable density (:func:`estimate_pdf`).  A synthetic emergency-braking
corpus generator (:mod:`histospline.datagen`) provides validation data,
and :mod:`histospline.cli` wraps the workflows for the command line.
"""

# The package exports exactly the ``__all__`` of each module below.
from . import datagen, errors, estimator, histogram, spline
from .datagen import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .estimator import *  # noqa: F401,F403
from .histogram import *  # noqa: F401,F403
from .spline import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    datagen.__all__ + errors.__all__ + estimator.__all__ + histogram.__all__ + spline.__all__
)
