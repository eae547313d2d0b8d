"""Exception taxonomy shared by every module in the package.

Errors are semantic, not positional: callers catch the *kind* of failure
(bad shape, bad value, resource blowup, failed search) without string
matching.  Each subclass carries the structured payload its contract
promises, so tests and the CLI can report the offending coordinate or the
size that tripped a cap.
"""

from __future__ import annotations


class CoordsimError(Exception):
    """Base class for all package errors."""


class ShapeError(CoordsimError, ValueError):
    """Structural mismatch: wrong rank, incompatible sizes, ragged input."""


class DomainError(CoordsimError, ValueError):
    """Value-level violation: bad normalization, support mismatch, parameter
    outside its documented domain.

    ``index`` optionally pins the offending coordinate (e.g. the support
    cell where an absolute-continuity check failed).
    """

    def __init__(self, message: str, index: tuple | int | None = None):
        super().__init__(message if index is None else f"{message} (at index {index})")
        self.index = index


class ResourceLimitError(CoordsimError, RuntimeError):
    """An exact computation would exceed the configured memory cap.

    ``required`` is the number of table entries the computation needed, or
    None when that count is too large to form.
    """

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class SearchError(CoordsimError, RuntimeError):
    """An iterative search failed to meet its convergence contract.

    ``diagnostics`` is a dict with whatever the failing search can say
    about itself (best objective, residuals, restart index, ...).
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})
