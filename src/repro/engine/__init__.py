"""Query execution engine (Section 4): pipelines + swappable kernels.

The pipelines (:mod:`~repro.engine.executor`,
:mod:`~repro.engine.semijoin`, :mod:`~repro.engine.factorized`) encode
the paper's six strategies; the data-plane primitives they run on —
probes, gathers, repeats, mask evaluation — live behind the kernel
interface of :mod:`~repro.engine.kernels`, selectable per execution via
the ``execution`` knob (``"vectorized"`` NumPy kernels or the
pure-Python ``"interpreted"`` oracle, bit-identical by construction).
"""

from .executor import BudgetExceededError, execute

__all__ = ["BudgetExceededError", "execute"]
