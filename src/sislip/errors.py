"""Exception hierarchy shared by all sislip modules."""


class SislipError(Exception):
    """Base class for all mathematical errors raised by sislip."""


class DivisionByZero(SislipError):
    pass


class ContextMismatch(SislipError):
    """Operands live in different field contexts."""


class NotIrreducible(SislipError):
    """A proposed minimal polynomial factors over the base field."""


class TowerDepthExceeded(SislipError):
    pass


class ParseError(SislipError):
    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownVariable(ParseError):
    pass


class UnknownGenerator(ParseError):
    pass


class ZeroPolynomial(SislipError):
    pass


class DegreeTooLarge(SislipError):
    pass


class NonReduced(SislipError):
    pass


class FieldExtensionFailure(SislipError):
    pass


class CenterNotOnDivisor(SislipError):
    pass


class CurveUnknown(SislipError):
    pass


class CommonComponent(SislipError):
    pass


class NotHomogeneous(SislipError):
    pass


class DegreeMismatch(SislipError):
    pass


class TangentConeNotReduced(SislipError):
    pass


class NotSuperisolated(SislipError):
    """A singular point of the tangent cone lies on the degree d+1 curve."""


class GenericityAlarm(SislipError):
    """Random samples meant to be generic failed the agreement certificate."""


class ZeroOnComponent(SislipError):
    """A function vanishes identically on the surface or a component."""


class SchemaVersionMismatch(SislipError):
    pass
