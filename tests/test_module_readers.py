"""Every ``src/repro`` module has a reader outside its own tests.

A module earns its place when the product (another ``src/`` module,
package ``__init__`` re-export tables excepted), an example or a
benchmark imports it.  One read only by its own tests is kept only with
an entry in :data:`ALLOWLIST` naming the DESIGN or EXPERIMENTS row that
justifies it; anything else is a candidate for deletion (EXPERIMENTS.md,
"Earn or delete").

Imports are read statically (AST, no module is executed; the tree uses
absolute imports only).  A name
imported from a package resolves through that package's lazy
re-export table (``repro._lazy.lazy_exports``), transitively:
``from repro import EventLog`` reads ``repro.obs.events``.
"""

import ast
import functools
from pathlib import Path
from typing import Dict, Iterator, Optional, Set

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
READER_DIRS = ("src", "examples", "benchmarks")

#: Modules kept without a product reader, each with the row that
#: justifies it.
ALLOWLIST = {
    "repro._lazy": "package plumbing: every package __init__ builds its "
                   "lazy re-export table with it",
    "repro.privacy.psi": "DESIGN.md §4b GROUP BY / JOIN row (PSI over "
                         "pseudonyms); run with Separ by "
                         "tests/test_integration_extensions.py",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _source_modules() -> Dict[str, Path]:
    return {_module_name(p): p for p in sorted(SRC.rglob("*.py"))}


def _lazy_table(path: Path) -> Dict[str, str]:
    """A package ``__init__``'s ``lazy_exports`` table: name → module."""
    table: Dict[str, str] = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "lazy_exports"
                and len(node.args) == 2
                and isinstance(node.args[1], ast.Dict)):
            mapping = ast.literal_eval(node.args[1])
            for module, names in mapping.items():
                for name in names:
                    table[name] = module
    return table


class _Resolver:
    def __init__(self):
        self.modules = _source_modules()
        self.tables = {
            name: _lazy_table(path) for name, path in self.modules.items()
            if path.name == "__init__.py"
        }

    def resolve(self, dotted: str) -> Optional[str]:
        """The source module an import of ``dotted`` reads, if any."""
        while dotted not in self.modules:
            package, _, name = dotted.rpartition(".")
            target = self.tables.get(package, {}).get(name)
            if target is None:
                return None
            # A table entry names the module holding ``name``, or a
            # package whose own table re-exports it.
            dotted = f"{target}.{name}" if target in self.tables else target
        return dotted

    def imports_of(self, path: Path) -> Set[str]:
        names = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.append(node.module)
                names += [f"{node.module}.{alias.name}" for alias in node.names]
        return {module for module in map(self.resolve, names) if module}


def _reader_files() -> Iterator[Path]:
    for directory in READER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.is_relative_to(SRC) and path.name == "__init__.py":
                continue
            yield path


@functools.lru_cache(maxsize=None)
def census() -> Dict[str, Set[str]]:
    """Every non-package source module → the files that import it."""
    resolver = _Resolver()
    readers: Dict[str, Set[str]] = {
        name: set() for name, path in resolver.modules.items()
        if path.name != "__init__.py"
    }
    for path in _reader_files():
        own = _module_name(path) if path.is_relative_to(SRC) else None
        for module in resolver.imports_of(path):
            if module in readers and module != own:
                readers[module].add(str(path.relative_to(ROOT)))
    return readers


def test_every_module_has_a_reader_or_an_allowlist_row():
    readers = census()
    unread = sorted(m for m, files in readers.items()
                    if not files and m not in ALLOWLIST)
    assert unread == [], (
        f"modules no src/, example or benchmark imports: {unread}; "
        "delete them with their tests and docs, or add an ALLOWLIST "
        "entry naming the DESIGN/EXPERIMENTS row that keeps them"
    )


def test_allowlist_names_only_unread_modules():
    readers = census()
    stale = sorted(m for m in ALLOWLIST if readers.get(m, {"missing"}))
    assert stale == [], f"allowlisted but read or missing: {stale}"


def test_lazy_reexports_count_as_reads():
    """``EventLog`` reaches the examples only through ``repro``'s table
    and ``repro.obs``'s table behind it."""
    resolver = _Resolver()
    assert resolver.resolve("repro.EventLog") == "repro.obs.events"
    assert resolver.resolve("repro.crypto.zkp") == "repro.crypto.zkp"


if __name__ == "__main__":
    for module, files in sorted(census().items()):
        print(f"{module:40s} {len(files):3d}  {', '.join(sorted(files)[:3])}")
