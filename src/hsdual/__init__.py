"""Finite-dimensional operator kinds, trace-pairing duality, and friends.

The package is organised in layers:

- :mod:`hsdual.linalg` — matrices, a self-contained Hermitian eigensolver,
  JSON (de)serialisation.
- :mod:`hsdual.operators` — the kind lattice (bounded, self-adjoint,
  positive, effect, projection, density), classification, splittings,
  the Loewner order, and deterministic samplers.
- :mod:`hsdual.duality` — operators as linear functionals via the trace
  pairing, and reconstruction of the operator from a black-box functional.
- :mod:`hsdual.algebra` — formal sums over four coefficient semirings with
  exact arithmetic, monad structure, and carrier interpretation.
- :mod:`hsdual.effect` — effect-algebra instances and a law-checking suite.
- :mod:`hsdual.free` — weighted points, formal differences, and complex
  pairs, with the isomorphisms onto operator kinds.
- :mod:`hsdual.wp` — channels on density operators and the weakest
  precondition of an effect, computed through the duality layer.

Each layer declares its public names in its ``__all__``, and the package
re-exports every one of them: ``hsdual.__all__`` is the union of the seven
lists.  ``hsdual.wp`` is therefore the weakest-precondition function; the
module itself is ``sys.modules["hsdual.wp"]``.
"""

from importlib import import_module as _import_module

from .algebra import *
from .duality import *
from .effect import *
from .free import *
from .linalg import *
from .operators import *
from .wp import *

__version__ = "0.1.0"

_LAYERS = ("algebra", "duality", "effect", "free", "linalg", "operators", "wp")

__all__ = sorted(
    {name for layer in _LAYERS for name in _import_module(f"{__name__}.{layer}").__all__}
)
