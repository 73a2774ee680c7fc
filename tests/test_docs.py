"""The documents cannot drift from the tree.

Two pins, in the spirit of the docs/PROTOCOL.md byte pins in
``tests/test_serve_protocol.py``: every script, test, result file or
``src/repro`` module a document cites exists (and every
``tests/x.py::name`` / ``package/module.py::Name`` in it), and the one
end-to-end numbers table (EXPERIMENTS.md) is exactly the rendering
of the committed ``BENCH_e2e.json``.
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
