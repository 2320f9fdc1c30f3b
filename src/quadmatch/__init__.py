"""Graph matching under explicit quadratic structural constraints.

Import each name from its module (``from quadmatch.qap import objective``).
``import quadmatch`` loads every module but the command line, and the package
itself names only what the benchmark reads from it.
"""

from . import autodiff, bench, errors, files, graphs, losses, projections, qap, refine, synth, train
from .errors import InvalidInputError, NumericalFailureError
from .refine import init_parameters

__version__ = "0.1.0"
