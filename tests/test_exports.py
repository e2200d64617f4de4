"""Names that other code looks up by string: the attributes the benchmark's
tracer wraps, and the package exports.  A deletion that leaves one of them
dangling fails here, not in a traced benchmark run or at
`from chartscribe import *`.  Also what a bare `import chartscribe` loads,
what the catalog-and-bank set-up loads and may import, what its
dataclasses cost it, and that it needs nothing beyond the standard
library."""

import ast
import dataclasses
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
import types
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import chartscribe

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_attributes():
    """(owner, attribute) of every wrapped or counted trace point; an owner
    is a module path, with ":Class" for a class attribute."""
    tracing = load_tracing()
    points = [owner for owners in tracing.WRAPPED.values() for owner in owners]
    points += tracing.COUNTED.values()
    points += [("pathlib:Path", attr) for attrs in tracing.IO_WRAPPED.values()
               for attr in attrs]
    return points


@pytest.mark.parametrize("owner, attr", traced_attributes(),
                         ids=lambda value: value)
def test_traced_attribute_exists(owner, attr):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    if class_name:
        target = getattr(target, class_name)
    assert hasattr(target, attr), f"{owner}.{attr} is gone"


@pytest.mark.parametrize("owner, attr", [
    (owner, attr) for owner, attr in traced_attributes() if ":" in owner],
    ids=lambda value: value)
def test_traced_class_attribute_is_in_its_class_dict(owner, attr):
    # the tracer reads a class attribute from the class's own __dict__,
    # where a staticmethod or classmethod is still wrapped as one: an
    # attribute a base class or a metaclass supplies fails the traced run
    module_name, _, class_name = owner.partition(":")
    cls = getattr(importlib.import_module(module_name), class_name)
    assert attr in vars(cls), f"{owner}.{attr} is not in {class_name}.__dict__"


@pytest.mark.parametrize("module", [chartscribe],
                         ids=lambda module: module.__name__)
def test_exported_names_exist(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_exports_are_the_public_imports():
    assert [name for name in chartscribe.__all__ if name.startswith("_")
            or isinstance(getattr(chartscribe, name), types.ModuleType)] == []
    namespace: dict = {}
    exec("from chartscribe import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(chartscribe.__all__)


# the exports, in the order the package lists them
EXPORTS = [
    "Rng", "derive_seed", "mix64",
    "GbmParams", "ShapeTransform", "TrendClass", "TrendSpec",
    "apply_transform", "classify_trend", "gbm_path", "preset",
    "synth_trend_series",
    "Catalog", "DataSeries", "load_catalog", "perturb_to_trend",
    "sample_series", "synth_catalog", "write_catalog",
    "ChartKind", "ChartMeta", "ChartSpec", "build_chart_spec", "render",
    "Template", "TemplateBank", "load_bank", "load_default_bank", "query",
    "ChartFacts", "Description", "PlanParams", "baseline_generate",
    "check_move_order", "extract_facts", "format_number",
    "generate_description", "generate_description_set",
    "hallucination_check", "plan_moves", "realize",
    "References", "bleu", "corpus_report", "format_report", "rouge_l",
    "rouge_n", "score_pair", "tokenize",
    "CorpusConfig", "default_config", "generate_corpus", "load_config",
    "load_manifest", "regenerate_record", "stats", "validate_corpus",
]
SUBMODULES = ["rng", "trend", "catalog", "chartgen", "templatebank",
              "narrate", "evalmetrics", "corpus"]
# what a catalog and the packaged bank need: no chart, narration, eval or
# corpus code
SETUP_MODULES = ["catalog", "rng", "templatebank", "trend"]


def test_all_is_the_export_list():
    assert chartscribe.__all__ == EXPORTS
    assert set(EXPORTS) <= set(dir(chartscribe))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        chartscribe.no_such_name


def fresh_import(code: str):
    """What code, run after `import chartscribe` in a fresh interpreter,
    prints with repr, and the chartscribe submodules loaded by then."""
    script = ("import sys, chartscribe\n"
              f"{code}\n"
              "print(repr(sorted(name.partition('.')[2] for name in sys.modules\n"
              "                  if name.startswith('chartscribe.'))))")
    out = subprocess.run([sys.executable, "-S", "-c", script], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    return [ast.literal_eval(line) for line in out.stdout.splitlines()]


def test_bare_import_loads_no_submodule():
    assert fresh_import("") == [[]]


def test_catalog_and_bank_load_only_the_setup_modules():
    assert fresh_import("chartscribe.synth_catalog(41, 24, 30)\n"
                        "chartscribe.load_default_bank()") == [SETUP_MODULES]


def test_every_submodule_resolves_after_a_bare_import():
    printed, _ = fresh_import(
        f"print(repr([getattr(chartscribe, m).__name__ for m in {SUBMODULES!r}]))")
    assert printed == [f"chartscribe.{m}" for m in SUBMODULES]


def package_imports(module: str):
    """The package modules that module's top-level `from .x import` and
    `from . import x` statements name."""
    tree = ast.parse((ROOT / "src" / "chartscribe" / f"{module}.py").read_text(
        encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module
                         else [alias.name for alias in node.names])
    return names


@pytest.mark.parametrize("module", SETUP_MODULES)
def test_setup_modules_import_only_each_other(module):
    # an edge like templatebank -> chartgen would load the chart code, and
    # all it imports, into every catalog-and-bank set-up
    assert sorted(package_imports(module) - set(SETUP_MODULES)) == []


def test_category_constants_have_one_definition():
    from chartscribe import chartgen, templatebank, trend
    for name in ("CATEGORIES", "REACHABLE_CELLS"):
        assert getattr(chartgen, name) is getattr(trend, name)
        assert getattr(templatebank, name) is getattr(trend, name)


def test_pool_hook_exists():
    # the tracer subclasses chartscribe.corpus.ProcessPoolExecutor and sets
    # its subclass there; the module imports the pool on first use
    corpus = importlib.import_module("chartscribe.corpus")
    assert corpus.ProcessPoolExecutor is ProcessPoolExecutor
    assert not hasattr(corpus, "ThreadPoolExecutor")


def test_import_loads_no_pool_logging_expat_or_csv():
    # a serial generate, validate, eval or describe uses none of these (the
    # packaged bank's reader, importlib.resources with tempfile, loads on
    # its first call), and every CLI call, regenerate and pool worker pays
    # for what the import loads; -S keeps site-packages' start-up files
    # from loading them
    lazy = ["multiprocessing", "concurrent.futures", "logging",
            "xml.parsers.expat", "csv", "importlib.resources", "tempfile"]
    code = ("import sys, chartscribe, chartscribe.cli\n"
            f"print([name for name in {lazy!r} if name in sys.modules])")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.stdout.strip() == "[]"


def test_no_dataclass_docstring_is_generated():
    # a dataclass without a docstring gets "Name(field: type, ...)", which
    # `dataclass` writes with inspect.signature at every import
    modules = [importlib.import_module(f"chartscribe.{info.name}")
               for info in pkgutil.iter_modules(chartscribe.__path__)]
    classes = [(name, cls) for module in modules
               for name, cls in vars(module).items()
               if dataclasses.is_dataclass(cls) and isinstance(cls, type)
               and cls.__module__ == module.__name__]
    assert len(classes) >= 28
    assert [name for name, cls in classes
            if (cls.__doc__ or "").startswith(f"{name}(")] == []


def test_runtime_is_the_standard_library_alone():
    # every module the package imports, at the top or inside a function,
    # is the standard library's or its own, and the project declares no
    # dependency
    imported = set()
    for path in sorted((ROOT / "src" / "chartscribe").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0]
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    assert {"json", "math"} <= imported
    assert sorted(imported - sys.stdlib_module_names - {"chartscribe"}) == []
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(
        encoding="utf-8"))["project"]
    assert project.get("dependencies", []) == []
    assert "optional-dependencies" not in project
