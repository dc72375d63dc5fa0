"""Exception hierarchy shared by all modules."""


class IwagrowthError(Exception):
    """Base class for all library errors."""


class ValidationError(IwagrowthError):
    """Malformed or inconsistent input data."""


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
