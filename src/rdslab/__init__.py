"""rdslab: a simulation laboratory for respondent-driven sampling.

Modules
-------
netgen
    Synthetic two-group networked populations from moment-level specs.
sampler
    The coupon-based referral process with controllable respondent behavior.
estimators
    Five population-proportion estimators computed from a sample alone.
harness
    Replicated experiments, summaries, paired comparisons, CSV export.
cli
    Config-driven command line front end.

The package root re-exports exactly the names in the ``__all__`` of
`errors` and of each module above except ``cli``, which is imported on its
own.
"""

from .errors import *
from .netgen import *
from .sampler import *
from .estimators import *
from .harness import *

__version__ = "0.1.0"
