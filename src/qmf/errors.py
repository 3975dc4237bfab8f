"""Shared exception types.

The CLI maps these onto exit codes: bad input files exit 2,
``CapExceededError`` exits 3 and ``ValidationError`` exits 4.
"""


class InputError(ValueError):
    """An input file is missing, malformed, or has the wrong schema."""


class ValidationError(ValueError):
    """A numeric or structural precondition was violated."""


class NonFiniteError(ValidationError):
    """A value is NaN or infinite, or a PSD value below 0; its maker names the inputs."""


class CapExceededError(RuntimeError):
    """A configured resource cap (qubits, memory) would be exceeded."""
