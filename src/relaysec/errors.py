"""Exception types shared across the simulator."""


class ConfigError(ValueError):
    """Invalid scenario configuration, config file, or sweep specification."""


class NumericError(ArithmeticError):
    """A matrix-rate computation produced a value outside its numeric contract:
    a non-finite determinant, a determinant with a nonpositive real part
    where a metric-valued log-determinant must raise, or a non-finite
    reception power or SINR.  The imaginary part of a determinant is not
    checked."""
