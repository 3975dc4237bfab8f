"""Shared exception types, and the one byte budget of every memory cap.

The CLI maps these onto exit codes: bad input files exit 2,
``CapExceededError`` exits 3 and ``ValidationError`` exits 4.
"""

BYTE_BUDGET = 1 << 30  # what qsim's default cap, an injection and mf-snr may hold


class InputError(ValueError):
    """An input file is missing, malformed, or has the wrong schema."""


class ValidationError(ValueError):
    """A numeric or structural precondition was violated."""


class NonFiniteError(ValidationError):
    """A value is NaN or infinite, or a PSD value below 0; its maker names the inputs."""


class CapExceededError(RuntimeError):
    """A configured resource cap (qubits, memory) would be exceeded."""


def check_bytes(what: str, need: int, budget: int = BYTE_BUDGET) -> None:
    """Refuse ``what`` when the ``need`` bytes it would hold pass ``budget``."""
    if need > budget:
        raise CapExceededError(f"{what} needs {need} bytes, over the budget of {budget}")
