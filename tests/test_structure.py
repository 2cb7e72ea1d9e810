"""Design rules of the package, checked on its source with `ast`.

* No module imports an underscore name from another module: what a module
  shares, it shares under a public name.
* Every public top-level function, class and method has a caller in the
  program (`src/` or `scripts/`) outside its own definition, except the
  names in UNCALLED, each with the reason it stays. A method is called only
  through an attribute (`x.name`), so a local variable of the same name
  does not count. An exemption "called by the benchmark" holds only while
  `bench/workloads.py` names it.
* No public function or method takes a `bool` parameter, by annotation or
  by a True/False default: a flag forks one function into two code paths.
  FLAGS would name an exception with the reason it stays; it is empty.
* Training has one owner: only `cli._peak` calls `train_peak_network`, so
  every command takes the peak its output directory holds or one training,
  and a study takes the trained peak it is handed and never trains.
* One front end: only the CLI runs a study or the report, and only
  `cli._commands` takes the peak and runs the command bodies, for `main` and
  the study script alike, so the script holds no study flow.
* One rule per input: `OfdmParams`, `PeakNetSpec` and `NotchSpec` raise only
  `FieldError` from `__post_init__`, and each of their fields is the scenario
  key `section + field` (DOMAIN_SECTIONS), so the scenario maps every failure
  to a key with no table. The notch angle alone has no key: it is the
  interferer's, whose rule the scenario checks first. The default scenario
  builds each domain type's defaults, so a default is stated once.
* One declaration per scenario key: each `Scenario` field carries its key
  and an annotation the parser converts, and `_SCHEMA` is those keys in
  field order, so the schema and the domain builders are derived from it.
* One declaration per table: each named-tuple row of `fileio` is its
  table, whose header is its fields and whose column kinds are its
  annotations, each an `int` or a `float`, the kinds the writer formats.
* One rule per report check: every check `report` makes is appended by
  `experiments._check`, and only `ReportResult.verdict` names the verdicts
  other than pass and fail.

The rules hold for the package and for `scripts/`. The first holds for the
test references in `tests/oracles.py` too, so they stay independent of the
code they check.
"""

import ast
import dataclasses
import inspect
import textwrap
import typing
from pathlib import Path

import pytest

from risradar import fileio
from risradar.arrays import OfdmParams
from risradar.scenario import _SCHEMA, Scenario, default_scenario
from risradar.synthesis import NotchSpec, PeakNetSpec

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "risradar"
PROGRAM = sorted([*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")])
ORACLES = ROOT / "tests" / "oracles.py"
BENCH_WORKLOADS = ROOT / "bench" / "workloads.py"
BENCH_REASON = "called by the benchmark"

UNCALLED = {
    "synthesis.analytic_peak": "the closed-form peak training is tested against",
    "arrays.RisConfig.static_column": BENCH_REASON,
    "experiments.run_trial": BENCH_REASON,
    "fileio.read_peak_records": BENCH_REASON,
    "fileio.read_sweep_table": BENCH_REASON,
}

FLAGS = {}

# name: (the module that may use it, the definition there it is confined to, or None)
TRAINING_OWNERS = {"train_peak_network": ("cli", "_peak")}
STUDY_OWNERS = {
    name: ("cli", None) for name in ("run_pattern_study", "run_interference_sweep", "run_multinotch_study", "report")
}


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def definitions(tree):
    """(dotted name, node) of each public top-level function and class, and of
    each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def references(tree):
    """(identifier, line, whether through an attribute) of every name,
    attribute and imported name the tree uses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, False


@pytest.mark.parametrize("path", [*PROGRAM, ORACLES], ids=lambda path: path.name)
def test_no_module_imports_a_private_name(path):
    private = [
        f"line {node.lineno}: {alias.name} from {'.' * node.level}{node.module or ''}"
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and node.module != "__future__"
    ]
    assert private == []


def test_every_public_name_has_a_caller_in_the_program():
    uses = {path: list(references(parse(path))) for path in PROGRAM}
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in definitions(parse(path)):
            owner, _, identifier = name.rpartition(".")
            inside = range(node.lineno, node.end_lineno + 1)
            called = any(
                used == identifier and (attribute or not owner) and not (other == path and line in inside)
                for other, found in uses.items()
                for used, line, attribute in found
            )
            if not called:
                uncalled.append(f"{path.stem}.{name}")
    assert sorted(uncalled) == sorted(UNCALLED)


def test_every_benchmark_exemption_is_named_by_the_benchmark():
    # once the benchmark stops calling a name, its exemption goes and the name must be deleted
    named = {used for used, _, attribute in references(parse(BENCH_WORKLOADS)) if attribute}
    exempt = [name for name, reason in UNCALLED.items() if reason == BENCH_REASON]
    assert [name for name in exempt if name.rpartition(".")[2] not in named] == []


def bool_parameters(node):
    """Names of the parameters of a function node annotated `bool` or defaulting to True or False."""
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    defaults = dict(zip(reversed(positional), reversed(args.defaults)))
    defaults.update(zip(args.kwonlyargs, args.kw_defaults))
    for arg in [*positional, *args.kwonlyargs]:
        default = defaults.get(arg)
        annotated = arg.annotation is not None and "bool" in ast.unparse(arg.annotation).split(" | ")
        if annotated or (isinstance(default, ast.Constant) and isinstance(default.value, bool)):
            yield arg.arg


def test_no_public_function_takes_a_bool_flag():
    flags = [
        f"{path.stem}.{name}.{parameter}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, node in definitions(parse(path))
        if not isinstance(node, ast.ClassDef)
        for parameter in bool_parameters(node)
    ]
    assert sorted(flags) == sorted(FLAGS)


def strays(owners):
    """Each use in the program of a name in `owners` outside the module and definition it is confined to."""
    found = []
    for path in PROGRAM:
        tree = parse(path)
        spans = {
            node.name: range(node.lineno, node.end_lineno + 1)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        imports = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        for used, line, _ in references(tree):
            if used not in owners:
                continue
            module, scope = owners[used]
            if path.stem != module or not (scope is None or line in imports or line in spans[scope]):
                found.append(f"{path.stem} line {line}: {used}")
    return found


def test_training_has_one_owner():
    assert strays(TRAINING_OWNERS) == []


def test_only_the_cli_runs_a_study_or_the_report():
    assert strays(STUDY_OWNERS) == []


def test_one_flow_runs_the_command_bodies():
    assert strays({name: ("cli", "_commands") for name in ("_peak", "_run")}) == []


SCENARIO_ANNOTATIONS = {"float", "int", "str", "tuple[float, ...]"}


def test_each_scenario_key_is_declared_once_on_its_field():
    fields = dataclasses.fields(Scenario)
    assert [f.name for f in fields if set(f.metadata) != {"key"} or f.type not in SCENARIO_ANNOTATIONS] == []
    assert list(_SCHEMA) == [f.metadata["key"] for f in fields]
    assert [attr for attr, _ in _SCHEMA.values()] == [f.name for f in fields]


DOMAIN_SECTIONS = {OfdmParams: "ofdm.", PeakNetSpec: "network.", NotchSpec: "notch."}
UNKEYED_FIELDS = {"notch.notch_angle_rad"}


def test_every_domain_field_is_a_scenario_key():
    keys = {section + field.name for cls, section in DOMAIN_SECTIONS.items() for field in dataclasses.fields(cls)}
    assert sorted(keys - set(_SCHEMA)) == sorted(UNKEYED_FIELDS)


def test_the_default_scenario_builds_the_domain_defaults():
    scenario = default_scenario()
    assert scenario.network_spec() == PeakNetSpec()
    assert scenario.notch_spec() == NotchSpec(scenario.interferer_angle_rad)
    params = scenario.ofdm_params()
    assert params == OfdmParams(params.carrier_freq_hz, params.bandwidth_hz, params.num_subcarriers, params.num_symbols)


@pytest.mark.parametrize("cls", list(DOMAIN_SECTIONS), ids=lambda cls: cls.__name__)
def test_domain_rules_raise_only_field_errors(cls):
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls.__post_init__)))
    raised = [ast.unparse(node.exc) for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    assert raised
    assert [text for text in raised if not text.startswith("FieldError(")] == []


ROWS = {name: value for name, value in vars(fileio).items() if isinstance(value, type) and hasattr(value, "_fields")}


def test_fileio_declares_six_row_types():
    assert sorted(ROWS) == ["ConfigRow", "LossRow", "MultinotchRow", "PatternRow", "PeakRecord", "SweepPoint"]


@pytest.mark.parametrize("name", sorted(ROWS))
def test_each_row_type_is_its_table(name, tmp_path):
    row = ROWS[name]
    path = fileio.write_rows(tmp_path / "table.csv", row, [])
    assert path.read_text() == ",".join(row._fields) + "\n"
    assert set(typing.get_type_hints(row).values()) <= {int, float}


VERDICTS = ("nothing-run", "nothing-checked")


def test_each_report_rule_is_stated_once():
    trees = {path: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    tree = trees[PACKAGE / "experiments.py"]
    appends = [
        node.name
        for node in tree.body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and ast.unparse(sub.func) == "checks.append"
    ]
    assert appends == ["_check"]
    result = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ReportResult")
    verdict = next(node for node in result.body if isinstance(node, ast.FunctionDef) and node.name == "verdict")
    inside = {id(node) for node in ast.walk(verdict)}
    named = [
        f"{path.stem} line {node.lineno}: {node.value!r}"
        for path, module in trees.items()
        for node in ast.walk(module)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and any(v in node.value for v in VERDICTS)
        if id(node) not in inside
    ]
    assert named == []
