"""numpy for the package's modules, imported at the first attribute access.

Modules bind it as ``from . import _numpy as np`` and use ``np.<name>``
as they would numpy itself.  A command that never touches an array
(analytic ``phase-est``, ``--version``, ``--help``, a usage error) then
never pays numpy's import, the largest part of the CLI's start-up.

The first lookup of a name imports numpy if nothing has yet, and copies
the attribute into this module, so every later lookup of that name is a
plain module-attribute read.  Two threads that make the first access at
once both get the whole module: ``import numpy`` holds numpy's module
lock until its body has run, whereas ``importlib.util.LazyLoader`` swaps
the module's class before running it.
"""


def __getattr__(name: str):
    # introspection (``__path__``, ``__all__``, ...) asks about this module, not numpy
    if name.startswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy

    value = getattr(numpy, name)
    globals()[name] = value
    return value
