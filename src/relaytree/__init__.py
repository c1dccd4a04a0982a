"""Error evolution, bounds, and simulation for relay-tree hypothesis testing.

A balanced m-ary tree of relays repeats a binary decision upward:
leaves measure, every interior node fuses the m bits (or counts) below
it into one message.  This package computes the exact per-level false
alarm and miss probabilities for the standard fusion rules, the proved
two-sided bounds and decay exponents, the message-alphabet tradeoff,
and Monte Carlo corroboration with reproducible counter-based streams.

The public names are those of each module's own __all__.
"""

import sys as _sys

from .alphabet import *  # noqa: F401,F403
from .bounds import *  # noqa: F401,F403
from .kernel import *  # noqa: F401,F403
from .logdomain import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in ("alphabet", "bounds", "kernel", "logdomain", "oracle", "simulate")
    for name in _sys.modules[f"{__name__}.{module}"].__all__
)
