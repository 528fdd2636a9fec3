"""Normed groupoids with dilations, their induced approximate operations,
numerical certification of the zero-scale limit structures, and exact
optimal-transport categories on finite metric spaces.

`ngd.X` reaches every public function and class X defined in one of the
modules of `_MODULES`, read off that module on each access; `import ngd`
imports none of them, and `ngd.core` names a submodule and loads only it.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the exact modules come first: resolving one of their names never loads
# the analytic modules, and with them numpy
_MODULES = ("core", "constructions", "transport", "scales",
            "models", "emergent", "limits", "dsl")


def __getattr__(name):
    if name in _MODULES or name in ("cli", "fixtures"):
        return _import_module(f"{__name__}.{name}")
    if not name.startswith("_"):
        for sub in _MODULES:
            module = _import_module(f"{__name__}.{sub}")
            obj = getattr(module, name, None)
            # defined there, not imported there (np, Fraction, ...)
            if getattr(obj, "__module__", None) == module.__name__:
                return obj
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
