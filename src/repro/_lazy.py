"""Import-on-demand re-exports for the package ``__init__`` modules.

Every ``repro`` package re-exports its public names, and doing that
eagerly made ``import repro.core.framework`` load the whole tree — the
sharded ledger, both consensus protocols, every privacy mechanism, an
HTTP server, ``multiprocessing`` — before the first update.  A package now
declares *where* each public name lives and resolves it on first
attribute access (PEP 562), so a process imports what it uses.
"""

import importlib
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, object],
    modules: Mapping[str, Sequence[str]],
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair for a package ``__init__``.

    ``modules`` maps an absolute module name to the public names it
    provides; a name equal to the module's own last component
    (``"repro.crypto.zkp": ("zkp",)``) exports the module itself.
    ``namespace`` is the package's ``globals()``: a resolved name is
    stored there, so only the first access pays for the import.
    """
    home = {name: module for module, names in modules.items()
            for name in names}

    def __getattr__(name: str) -> object:
        module_name = home.get(name)
        if module_name is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        module = importlib.import_module(module_name)
        if module_name.rpartition(".")[2] == name:
            value = module
        else:
            value = getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__
