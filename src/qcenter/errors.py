"""Exception hierarchy shared across the package."""

from __future__ import annotations


class QCenterError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(QCenterError):
    """Operands live over different variable sets or incompatible spaces."""


class TruncationError(QCenterError):
    """Series operands carry different truncation orders."""


class ParseError(QCenterError):
    """A scenario file or polynomial expression could not be parsed."""


class ValidationError(QCenterError):
    """Structural or mathematical validation of input data failed."""


class DegreeCapError(ValidationError):
    """An expression would expand past the degree cap its parser was given."""

    def __init__(self, degree: int, cap: int):
        self.degree = degree
        super().__init__(f"degree {degree} is over the cap of {cap}")


class InvalidActionError(ValidationError):
    """Quantum hamiltonians are inconsistent with the Lie algebra structure."""


class NonSimpleRootError(QCenterError):
    """The derivative of the monic relation vanishes at the lift target."""


class LiftObstructionError(QCenterError):
    """Exact division failed while solving a lift order.

    The recursion demands that each order's defect be divisible by the
    relation derivative inside the polynomial ring; when it is not, the
    correction would only exist after localizing away from the zero set of
    the derivative, which this package does not model.  The failing order
    and the undividable defect are reported.
    """

    def __init__(self, order: int, remainder):
        self.order = order
        self.remainder = remainder
        super().__init__(
            f"lift obstructed at series order {order}: the defect is not "
            f"divisible by the relation derivative (a localized extension "
            f"would be required, which is out of scope)"
        )


class RelationViolationError(QCenterError):
    """A polynomial relation among center generators fails after lifting."""

    def __init__(self, relation: str, order: int):
        self.relation = relation
        self.order = order
        super().__init__(
            f"quantum image of relation '{relation}' fails at series order {order}"
        )
