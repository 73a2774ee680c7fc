"""The documents cannot drift from the tree.

Four pins, in the spirit of the docs/PROTOCOL.md byte pins in
``tests/test_serve_protocol.py``: every script, test, result file or
``src/repro`` module a document cites exists (and every
``tests/x.py::name`` / ``package/module.py::Name`` in it), every
``REPRO_*`` environment variable a document or example names is one
the code reads (and docs/OPERATIONS.md catalogues every one it reads),
every ``Durability`` keyword a document shows is a field of it, and
the one end-to-end numbers table (EXPERIMENTS.md) is exactly the
rendering of the committed ``BENCH_e2e.json``.
"""

import importlib.util
import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCUMENTS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
             *sorted((ROOT / "docs").glob("*.md"))]

#: ``benchmarks/x.py``, ``examples/x.py``, ``tests/x.py`` (sub-directories
#: included) and root-level ``BENCH*.json``, as the documents write them.
CITED_PATH = re.compile(
    r"(?<![\w/.])((?:benchmarks|examples|tests)/[\w/]+\.py|BENCH\w*\.json)\b")
#: A bare ``bench_x.py`` / ``test_x.py`` names a file of its directory.
BARE_SCRIPT = re.compile(r"(?<![\w/])((bench|test)_\w+\.py)\b")
BARE_HOME = {"bench": "benchmarks", "test": "tests"}
#: ``tests/x.py::name`` — a test, a family of tests by prefix
#: (``test_served_equals_in_process_*``) or a module-level table.
CITED_NAME = re.compile(r"\b(tests/[\w/]+\.py)::(\w+)")
#: ``core/sharded.py`` / ``core/replicated.py::ShardHandle`` — a module
#: of a ``src/repro`` package, and a function, class or method in it.
SOURCE = ROOT / "src" / "repro"
PACKAGES = "|".join(sorted(p.name for p in SOURCE.iterdir() if p.is_dir()))
CITED_MODULE = re.compile(
    rf"(?<![\w/.])(?:src/repro/)?((?:{PACKAGES})/\w+\.py)(?:::(\w+))?")
#: Their audit rows name deleted ``src/repro`` files on purpose.
AUDIT_LOGS = ("EXPERIMENTS.md", "DESIGN.md")

ENV_KNOB = re.compile(r"\bREPRO_[A-Z0-9_]+")
#: A knob the code reads: the whole of a string literal.
ENV_KNOB_LITERAL = re.compile(r"""["'](REPRO_[A-Z0-9_]+)["']""")
#: Where knobs are documented (EXPERIMENTS.md, DESIGN.md and CHANGES.md
#: record history, so deleted knobs stay named there).
KNOB_DOCUMENTS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
                  ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
                  *sorted((ROOT / "examples").glob("*.py"))]


def test_cited_scripts_tests_and_result_files_exist():
    missing = []
    for document in DOCUMENTS:
        text = document.read_text(encoding="utf-8")
        cited = set(CITED_PATH.findall(text))
        cited |= {f"{BARE_HOME[kind]}/{name}"
                  for name, kind in BARE_SCRIPT.findall(text)}
        missing += [f"{document.name}: {path}" for path in sorted(cited)
                    if not (ROOT / path).is_file()]
        missing += [f"{document.name}: {path}::{name}"
                    for path, name in sorted(set(CITED_NAME.findall(text)))
                    if (ROOT / path).is_file() and not re.search(
                        rf"^(?:def |class )?{name}",
                        (ROOT / path).read_text(encoding="utf-8"), re.M)]
        if document.name in AUDIT_LOGS:
            continue
        for path, name in sorted(set(CITED_MODULE.findall(text))):
            module = SOURCE / path
            if not module.is_file() or (name and not re.search(
                    rf"^\s*(?:def|class)\s+{name}\b",
                    module.read_text(encoding="utf-8"), re.M)):
                missing.append(f"{document.name}: {path}::{name}")
    assert not missing, "documents cite what does not exist: " + \
        ", ".join(missing)


def test_environment_knobs_are_read_and_catalogued():
    read = {knob for module in sorted(SOURCE.rglob("*.py"))
            for knob in ENV_KNOB_LITERAL.findall(
                module.read_text(encoding="utf-8"))}
    assert read, "no REPRO_* knob literal found under src/repro"
    unread = [f"{document.relative_to(ROOT)}: {knob}"
              for document in KNOB_DOCUMENTS
              for knob in sorted(set(ENV_KNOB.findall(
                  document.read_text(encoding="utf-8"))) - read)]
    assert not unread, "documents name knobs nothing reads: " + \
        ", ".join(unread)
    operations = (ROOT / "docs" / "OPERATIONS.md").read_text(encoding="utf-8")
    uncatalogued = sorted(read - set(ENV_KNOB.findall(operations)))
    assert not uncatalogued, "docs/OPERATIONS.md does not name: " + \
        ", ".join(uncatalogued)

#: ``Durability(...)`` / ``Durability.wal(...)`` calls (one level of
#: nested parentheses), and the keywords passed in them.
DURABILITY_CALL = re.compile(
    r"\bDurability(?:\.\w+)?\(((?:[^()]|\([^()]*\))*)\)")
KEYWORD = re.compile(r"\b(\w+)=")
#: A docs/OPERATIONS.md durability-list item's leading backticked names.
KNOB_ITEM = re.compile(r"^- ((?:`[^`]+`(?:, )?)+)", re.M)


def test_durability_knobs_named_in_docs_exist():
    import dataclasses

    from repro.durability.policy import Durability

    fields = {field.name for field in dataclasses.fields(Durability)}
    shown = set()
    for document in (ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))):
        text = document.read_text(encoding="utf-8")
        shown |= {(document.name, name)
                  for call in DURABILITY_CALL.findall(text)
                  for name in KEYWORD.findall(call)}
    operations = (ROOT / "docs" / "OPERATIONS.md").read_text(encoding="utf-8")
    section = operations.split("## Durability modes", 1)[1].split("\n## ", 1)[0]
    listed = {name for item in KNOB_ITEM.findall(section)
              for name in re.findall(r"`(\w+)", item)}
    assert listed, "docs/OPERATIONS.md lists no durability knobs"
    shown |= {("OPERATIONS.md", name) for name in listed}
    unknown = sorted(f"{document}: {name}" for document, name in shown
                     if name not in fields)
    assert not unknown, "documents show Durability knobs it does not have: " \
        + ", ".join(unknown)


def test_experiments_medians_table_is_the_rendering_of_bench_e2e():
    spec = importlib.util.spec_from_file_location(
        "render_e2e", ROOT / "benchmarks" / "render_e2e.py")
    render_e2e = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(render_e2e)
    result = json.loads((ROOT / "BENCH_e2e.json").read_text(encoding="utf-8"))
    contract = json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result["workloads"]) == {
        w["name"] for w in contract["workloads"]}
    assert all(w["correct"] for w in result["workloads"].values())

    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    blocks = re.findall(
        r"<!-- BENCH_e2e:begin -->\n(.*?)<!-- BENCH_e2e:end -->", text,
        flags=re.DOTALL)
    assert len(blocks) == 1, "EXPERIMENTS.md must carry the table once"
    assert blocks[0] == render_e2e.render(result, contract), (
        "EXPERIMENTS.md medians table is not the rendering of "
        "BENCH_e2e.json — paste the output of "
        "`python3 benchmarks/render_e2e.py` between the markers")
