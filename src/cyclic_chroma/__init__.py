"""Cyclically interval edge colorings of simple cycles.

Closed-form feasibility, deterministic witness construction, validity
checking, and an exhaustive-search oracle for cross-validation.
"""

from . import characterization, constructor, model, oracle, verifier
from .characterization import *
from .constructor import *
from .model import *
from .oracle import *
from .verifier import *

__version__ = "0.1.0"

__all__ = [
    *model.__all__,
    *characterization.__all__,
    *constructor.__all__,
    *verifier.__all__,
    *oracle.__all__,
]
