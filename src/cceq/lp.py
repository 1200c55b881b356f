"""Linear programs in column-wise sparse form, solved by HiGHS.

A program is held the way HiGHS takes it: the constraint matrix column by
column (``start``/``index``/``value``, compressed sparse column), with row
bounds instead of separate inequality and equality blocks. The solver is the
dual revised simplex of HiGHS (Huangfu & Hall 2018), bundled with scipy as
one self-contained extension module. That module alone is loaded, on the
first solve, without ``scipy.optimize`` (see :func:`load_highs`), and called
directly through its array interface, which skips the option checks and
sparse conversions ``scipy.optimize.linprog`` spends per call. Presolve
is off: on the selection programs of this package it slows every size
measured. Serial simplex runs are deterministic for a given program.

Each thread keeps one HiGHS instance and solves every program on it: the
selection programs take a handful of simplex iterations, so creating an
instance and growing its buffers anew would be a large share of each call. The
model is cleared after every solve, so no basis or solution carries over,
but the instance keeps its buffers' capacity: after the default grid's
largest program (1.08M nonzeros) a process holds 181 MB of RSS, against
52 MB once the instance is gone. :func:`release_solver` frees it; the
selection program's memory guard calls it before refusing a program.

HiGHS's default scaling stays on. Turning it off
(``simplex_scale_strategy`` 0) cuts about a quarter of the solve time on
the selection programs, but it changes what a batch records (master seed
0, flights 6..10): at sigma 10 (60 trials) one program proved infeasible
with scaling ended in a solver failure without it, and on a two-runway
scenario whose optima are mostly not point masses (mu 2 and 2, congestion
threshold 2, lateness threshold 100; 40 trials) the records at sigma 0.5
changed.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearProgram",
    "LpSolution",
    "SolverFailureError",
    "load_highs",
    "release_solver",
    "solve",
]


class SolverFailureError(RuntimeError):
    """The solver stopped without an optimal or infeasible verdict: a limit,
    a numerical failure or an unbounded program."""


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """minimize objective . v  s.t.  row_lower <= A @ v <= row_upper,  v >= 0.

    ``A`` is stored column-wise: column j has the coefficients
    ``value[start[j]:start[j + 1]]`` in the rows ``index[start[j]:start[j + 1]]``.
    An inequality row has ``row_lower = -inf``; an equality row has equal bounds.
    Equality is identity: the fields are arrays.
    """

    objective: np.ndarray
    start: np.ndarray
    index: np.ndarray
    value: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.objective, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("objective must be a nonempty vector")
        n = c.size
        start = np.ascontiguousarray(self.start, dtype=np.int32).reshape(-1)
        index = np.ascontiguousarray(self.index, dtype=np.int32).reshape(-1)
        value = np.ascontiguousarray(self.value, dtype=float).reshape(-1)
        lo = np.ascontiguousarray(self.row_lower, dtype=float).reshape(-1)
        hi = np.ascontiguousarray(self.row_upper, dtype=float).reshape(-1)
        if start.size != n + 1 or start[0] != 0 or np.any(np.diff(start) < 0):
            raise ValueError("start must hold num_vars + 1 nondecreasing offsets from 0")
        if index.size != value.size or start[-1] != value.size:
            raise ValueError("index and value must hold start[-1] entries each")
        if lo.size != hi.size or np.isnan(lo).any() or np.isnan(hi).any() or (lo > hi).any():
            raise ValueError("row bounds must pair up with row_lower <= row_upper")
        if index.size and (index.min() < 0 or index.max() >= lo.size):
            raise ValueError("row index out of range")
        if not (np.isfinite(c).all() and np.isfinite(value).all()):
            raise ValueError("all LP coefficients must be finite")
        for name, arr in (("objective", c), ("start", start), ("index", index),
                          ("value", value), ("row_lower", lo), ("row_upper", hi)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_vars(self) -> int:
        return self.objective.size

    @property
    def num_constraints(self) -> int:
        return self.row_upper.size


@dataclass(frozen=True, eq=False)
class LpSolution:
    values: np.ndarray | None = None
    objective_value: float | None = None


@functools.cache
def load_highs():
    """scipy's bundled HiGHS bindings, loaded on first use.

    Only the self-contained extension module ``scipy.optimize._highspy._core``
    is loaded, without running ``scipy/__init__.py`` or
    ``scipy/optimize/__init__.py``: that takes about 10 ms and 3 MB, where
    ``import scipy.optimize`` takes about 0.7 s and 50 MB. The module is
    registered under its full name, so a later ``import scipy.optimize``
    reuses it, and one already imported that way is returned as it is.
    """
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")  # a top-level name: not imported
    location = None
    if scipy_spec is not None and scipy_spec.submodule_search_locations:
        package_dirs = [os.path.join(d, "optimize", "_highspy")
                        for d in scipy_spec.submodule_search_locations]
        found = importlib.machinery.PathFinder.find_spec("_core", package_dirs)
        location = found.origin if found is not None else None
    if location is None:
        raise ImportError(f"HiGHS extension module {name} not found; "
                          "cceq needs scipy >= 1.17 installed")
    spec = importlib.util.spec_from_file_location(name, location)
    module = importlib.util.module_from_spec(spec)  # loads the shared library
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_local = threading.local()


def _thread_solver():
    """This thread's HiGHS instance, created on first use with its output
    and presolve off."""
    highs = getattr(_local, "highs", None)
    if highs is None:
        highs = load_highs()._Highs()
        highs.setOptionValue("output_flag", False)
        highs.setOptionValue("presolve", "off")
        _local.highs = highs
    return highs


def release_solver() -> None:
    """Drop this thread's HiGHS instance and the buffers it keeps; the next
    solve on the thread creates a new one."""
    _local.__dict__.pop("highs", None)


def solve(lp: LinearProgram, deadline: float | None = None) -> LpSolution:
    """Solve a linear program on this thread's HiGHS instance.

    An optimal program returns its values and objective; one proved
    infeasible returns an :class:`LpSolution` without values, never an
    exception. Any other stop, unboundedness included, raises
    :class:`SolverFailureError`.
    ``deadline``, a ``time.perf_counter()`` value, bounds the call: the time
    left when the model is loaded becomes the solver's time limit, and
    passing it raises ``TimeoutError``. The model is cleared however the
    call ends.
    """
    core = load_highs()
    n = lp.num_vars
    highs = _thread_solver()
    try:
        # an (n + 1)-entry start needs an explicit all-continuous integrality
        # array: with an empty one the array overload rejects the model
        status = highs.passModel(
            n, lp.num_constraints, lp.value.size, core.MatrixFormat.kColwise,
            core.ObjSense.kMinimize, 0.0, lp.objective, np.zeros(n),
            np.full(n, np.inf), lp.row_lower, lp.row_upper, lp.start, lp.index,
            lp.value, np.zeros(n, dtype=np.int32),
        )
        if status == core.HighsStatus.kError:
            raise SolverFailureError("HiGHS rejected the model")
        remaining = math.inf if deadline is None else deadline - time.perf_counter()
        if remaining <= 0.0:
            raise TimeoutError("LP solve passed its deadline before the solver ran")
        highs.setOptionValue("time_limit", remaining)
        highs.run()

        model_status = highs.getModelStatus()
        states = core.HighsModelStatus
        if model_status == states.kOptimal:
            values = np.array(highs.getSolution().col_value, dtype=float)
            return LpSolution(values, float(lp.objective @ values))
        if model_status == states.kInfeasible:
            return LpSolution()
        if model_status == states.kTimeLimit:
            raise TimeoutError("HiGHS reached its time limit")
        reason = highs.modelStatusToString(model_status)
        raise SolverFailureError(f"HiGHS stopped with status {reason!r}")
    finally:
        highs.clearModel()
