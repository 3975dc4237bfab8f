"""Grover-accelerated matched filtering toolkit.

Its layers are the classical matched-filter engine (:mod:`qmf.dsp`),
synthetic chirp template banks (:mod:`qmf.bank`), the closed-form
amplitude-amplification / quantum-counting model (:mod:`qmf.amplify`),
an exact state-vector circuit simulator (:mod:`qmf.qsim`), the
detection/retrieval orchestration and query-cost benchmarks
(:mod:`qmf.pipeline`), and a continuous-wave search cost estimator
(:mod:`qmf.cw`).

``import qmf`` registers those six layers as lazy modules, and
:mod:`qmf.seeding`, the Monte Carlo trials' substreams: a layer's body
runs when its first attribute is read, so a command pays only for the
layers it uses.  Every module imports a layer as a module, at its
top (``from . import bank``), and names the member where it is used.
"""

import importlib.util
import sys

__version__ = "0.1.0"

from .errors import CapExceededError, InputError, ValidationError

__all__ = ["CapExceededError", "InputError", "ValidationError", "__version__"]


def _register_lazily(*names: str) -> None:
    """Register each layer as a lazy module of this package (``importlib.util.LazyLoader``).

    The module object is the one that loads, so a layer keeps its
    identity in ``sys.modules``.
    """
    for name in names:
        spec = importlib.util.find_spec(f"{__name__}.{name}")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        globals()[name] = module
        spec.loader.exec_module(module)


_register_lazily("amplify", "bank", "cw", "dsp", "pipeline", "qsim", "seeding")
