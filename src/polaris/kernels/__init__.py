"""The geometry kernels: cell-field evaluation and fixed-step integration
with exit-facet classification, implemented in pure Python in ``_pure``."""

from ._pure import (
    EXIT_R_MINUS,
    EXIT_R_PLUS,
    EXIT_TH_MINUS,
    EXIT_TH_PLUS,
    INSIDE,
    eval_cell,
    integrate_cell,
    integrate_many,
)

# the only implementation; perfbench names it in each result header
BACKEND = "pure"
