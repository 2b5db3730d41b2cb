"""Exception types shared across the package, and strict input coercion.

Every value read from outside the program, a YAML config field or a token
of a network, sample or replication-CSV file, goes through an ``as_*``
helper below.  Each takes a location label, a dotted config path such as
``network.n_nodes`` or a file position ``path:lineno``, and raises
`ConfigError` naming it when the value is not of the declared kind.  Input
files are read with `read_text`, so undecodable bytes raise it too.
"""

__all__ = ["RdslabError", "ConfigError", "SamplingError", "EstimationError"]


class RdslabError(Exception):
    """Base class for all package errors."""


class ConfigError(RdslabError, ValueError):
    """An input value or configuration document is invalid.

    The message names the offending field and the violated bound.
    """


class SamplingError(RdslabError, RuntimeError):
    """The referral process could not be started or continued."""


class EstimationError(RdslabError, RuntimeError):
    """An estimator could not produce a value for this sample.

    Attributes
    ----------
    code : str
        Stable machine-readable failure token; the replication CSV's
        ``failure_code`` cell carries it, and nothing else of the failure.
    """

    def __init__(self, message: str, code: str = "estimation_error"):
        super().__init__(message)
        self.code = code


def as_int(value, where: str) -> int:
    """Integer; rejects booleans, fractional numbers and other text."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{where} must be an integer, got {value!r}")


def as_float(value, where: str) -> float:
    """Real number; YAML reads exponents without a dot (``1e-6``) as text."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except ValueError:
            pass
    raise ConfigError(f"{where} must be a number, got {value!r}")


def as_bool(value, where: str) -> bool:
    """YAML true/false only, never a string such as ``"false"`` or a number."""
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{where} must be true or false, got {value!r}")


def as_str(value, where: str) -> str:
    """Text only, never a number, boolean or null read as text."""
    if isinstance(value, str):
        return value
    raise ConfigError(f"{where} must be text, got {value!r}")


def as_flag(token: str, where: str) -> bool:
    """A 0/1 flag token of a text file."""
    if token in ("0", "1"):
        return token == "1"
    raise ConfigError(f"{where} must be 0 or 1, got {token!r}")


def read_text(path) -> str:
    """A UTF-8 text file's contents; undecodable bytes raise `ConfigError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text (byte {err.start})") from None
