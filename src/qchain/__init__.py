"""qchain: q-Hermite and Al-Salam-Chihara polynomial families, exact
arithmetic in Q(sqrt(D)), and the discrete Markov transition kernels
supported on their zeros.

The package has an exact lane (Fraction / QuadraticNumber scalars, every
identity holds identically) and a float lane (fast simulation); all
polynomial evaluators are generic over both.

Each module's __all__ is the one list of the package's public names: the
package re-exports exactly the union of those lists, so a new public name
is declared once, in its module.
"""

from .exactnum import *
from .markov import *
from .qcore import *
from .spectra import *

__version__ = "0.1.0"
