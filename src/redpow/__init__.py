"""Reduced graph powers, cycle bases, and reversibility of coupled automata."""

from .errors import *
from .graph import *
from .power import *
from .cyclespace import *
from .squares import *
from .ctmc import *

__version__ = "0.1.0"
