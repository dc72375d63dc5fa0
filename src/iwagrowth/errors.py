"""Exception hierarchy shared by all modules, the one integer check and the
one tower-level check."""


class IwagrowthError(Exception):
    """Base class for all library errors."""


class ValidationError(IwagrowthError):
    """Malformed or inconsistent input data."""


def require_int(value, name: str) -> int:
    """value when it is an integer; bool, float and str are refused.  Every
    integer a caller passes the library is checked here."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return value


def require_level(n: int, floor: int = 1) -> None:
    """Refuse a tower level n that is not an integer or is below floor:
    ValidationError("n must be >= floor").  Every public entry point with a
    plain level floor checks it here."""
    if require_int(n, "n") < floor:
        raise ValidationError(f"n must be >= {floor}")


class PrecisionExhausted(IwagrowthError):
    """A result cannot be decided at the working modulus p^N."""


class NonUnitLeadingCoefficient(IwagrowthError):
    """Polynomial division is by monic polynomials only (X, Phi_n, omega_n)."""


class ZeroPolynomial(IwagrowthError):
    """Operation undefined for the zero polynomial."""


class PhiDividesF(IwagrowthError):
    """The closed-form rank formula requires the cyclotomic factor not to divide f."""


class NotFinite(IwagrowthError):
    """An oracle restricted to finite modules was asked about an infinite one."""


class NonUnit(IwagrowthError):
    """A p-adic unit was required."""


class InfiniteTerm(IwagrowthError):
    """A growth summand is infinite (inconsistent signature choice)."""


class NotAvZero(IwagrowthError):
    """Closed form only valid when every trace of Frobenius is zero."""
