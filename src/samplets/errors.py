"""Exception types shared across the package, and the guarded allocation
that turns an array too large to allocate into ResourceLimit."""

import math


class InvalidInput(ValueError):
    """Malformed or inconsistent user input (files, shapes, parameters)."""


class ResourceLimit(RuntimeError):
    """A guarded dense operation would exceed its configured size cap."""


class NonPositivePivot(ArithmeticError):
    """A Cholesky pivot was not positive; the matrix is not positive definite.

    Usually this means the entry threshold was too aggressive or the ridge
    parameter too small.  Attributes ``column`` and ``value`` identify the
    offending pivot.
    """

    def __init__(self, column, value):
        self.column = int(column)
        self.value = float(value)
        super().__init__(
            f"non-positive pivot {value:.6e} in column {column}; "
            "increase the ridge parameter or decrease the entry threshold"
        )


def allocate(make, shape: tuple, what: str, **kwargs):
    """``make(shape, **kwargs)`` for a float64 array constructor such as
    ``np.empty``; raises ResourceLimit, naming ``what``, when the array cannot
    be allocated."""
    try:
        return make(shape, **kwargs)
    # ValueError: beyond the address space; OSError: a memory mapping refused
    except (MemoryError, OSError, ValueError) as exc:
        raise ResourceLimit(f"{what} would take {8 * math.prod(shape)} bytes, "
                            "more than can be allocated") from exc
