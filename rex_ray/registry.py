"""Namespace registry + dynamic package import — the engine's
user-extension surface (reference semantics:
rex/utils/registry.py:33-53 ``@register`` / ``get_registered`` and
:107-148 AllenNLP-style ``--include-package`` imports)."""

from __future__ import annotations

import importlib
import pkgutil
from typing import Any, Callable, Dict, List

_REGISTRY: Dict[str, Dict[str, Any]] = {}


def register(namespace: str, name: str | None = None) -> Callable:
    """Decorator: ``@register("pipeline", "flagship")`` (name defaults
    to the callable's __name__).  Re-registering a name overwrites —
    last writer wins, so user packages can shadow built-ins."""

    def deco(obj):
        _REGISTRY.setdefault(namespace, {})[name or obj.__name__] = obj
        return obj

    return deco


def get_registered(namespace: str, name: str) -> Any:
    try:
        return _REGISTRY[namespace][name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY.get(namespace, {}))) or "<none>"
        raise KeyError(
            f"no '{name}' registered under '{namespace}' (known: {known})"
        ) from None


def registered(namespace: str) -> Dict[str, Any]:
    """A copy of the namespace's ``{name: object}`` table."""
    return dict(_REGISTRY.get(namespace, {}))


def list_registered(namespace: str) -> List[str]:
    return sorted(_REGISTRY.get(namespace, {}))


def import_module_and_submodules(package_name: str) -> None:
    """Import a package and every submodule so its ``@register``
    decorators run (the ``-m`` / ``--include-package`` mechanism)."""
    module = importlib.import_module(package_name)
    path = getattr(module, "__path__", None)
    if path is None:
        return
    for info in pkgutil.walk_packages(path, prefix=f"{package_name}."):
        importlib.import_module(info.name)
