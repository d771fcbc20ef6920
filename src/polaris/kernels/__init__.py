"""Backend selection for the geometry kernels.

The compiled extension is used when it was built and imports cleanly,
otherwise the pure-Python backend.  Both backends produce bit-identical
results, so the choice only affects speed.
"""

from . import _pure

try:
    from . import _ckernel as _backend
except ImportError:
    _backend = _pure

BACKEND = _backend.NAME

INSIDE = _pure.INSIDE
EXIT_R_PLUS = _pure.EXIT_R_PLUS
EXIT_R_MINUS = _pure.EXIT_R_MINUS
EXIT_TH_PLUS = _pure.EXIT_TH_PLUS
EXIT_TH_MINUS = _pure.EXIT_TH_MINUS

eval_cell = _backend.eval_cell
classify = _backend.classify
integrate_cell = _backend.integrate_cell
integrate_many = _backend.integrate_many
