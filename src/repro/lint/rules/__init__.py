"""The rule set: one module per hazard family.

* :mod:`repro.lint.rules.rng` — D001 stdlib ``random``, D002 ``np.random``
* :mod:`repro.lint.rules.wallclock` — D003 wall-clock reads
* :mod:`repro.lint.rules.identity` — D004 ``id()`` keys/membership
* :mod:`repro.lint.rules.ordering` — D005 set iteration -> ordered output
* :mod:`repro.lint.rules.defaults` — D006 mutable default arguments
* :mod:`repro.lint.rules.atomicio` — D011 raw write-mode ``open()``
"""

from repro.lint.rules.atomicio import AtomicWriteRule
from repro.lint.rules.defaults import MutableDefaultRule
from repro.lint.rules.identity import IdentityKeyRule
from repro.lint.rules.ordering import SetIterationRule
from repro.lint.rules.rng import NumpyRandomRule, StdlibRandomRule
from repro.lint.rules.wallclock import WallClockRule

#: Every rule, in code order.
RULES = (
    StdlibRandomRule(),
    NumpyRandomRule(),
    WallClockRule(),
    IdentityKeyRule(),
    SetIterationRule(),
    MutableDefaultRule(),
    AtomicWriteRule(),
)
