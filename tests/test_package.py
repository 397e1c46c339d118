"""The package's version, public names, module imports and README example."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mutagame
from mutagame.presets import PRESETS
from mutagame.protocol import has_unique_stationary, row_entropies
from mutagame.scenario import scale_kernel_epsilon

# Retired in 0.2.0: the scalar single-round API (now the reference engine in
# tests/oracles.py) and the per-replica record views of a batch. Retired in
# 0.3.0: the per-round sample statistics (now the risk-adjusted reference in
# tests/oracles.py), the engine's separate summary pass and the uncalled
# truncation horizon. Retired in 0.4.0: the Action enum (pure_nash returns
# C/D keys; the scalar reference keeps its own in tests/oracles.py) and the
# wrappers around the preset table. Retired in 0.5.0: apply_overrides
# (parse_document takes the overrides). Retired in 0.7.0: apply_meta_influence
# (kernel_as_run holds the contest; tests/oracles.py keeps a one-row
# reference) and Scenario.meta_investors. Retired in 0.9.0:
# cooperation_condition (CooperationCondition derives holds from its fields;
# tests/oracles.py keeps the 0.8.0 verdict).
RETIRED = {
    "Action",
    "PayoffVariance",
    "PlayHistory",
    "ReplicaTrace",
    "RoundRecord",
    "SpiralReport",
    "apply_meta_influence",
    "apply_overrides",
    "block_lottery",
    "cooperation_condition",
    "cooperation_duration",
    "detect_spiral",
    "parse_profile",
    "payoff_variance",
    "preset_names",
    "preset_text",
    "profile_key",
    "resolve_actions",
    "risk_adjusted_utility",
    "sample_from_cumulative",
    "sample_theta",
    "stage_payoffs",
    "step_protocol",
    "summarize_batch",
    "truncation_horizon",
}


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert mutagame.__version__ == project["version"] == "0.21.0"


def test_public_names_resolve_and_retired_names_are_gone():
    for name in mutagame.__all__:
        assert getattr(mutagame, name) is not None, name
    assert not RETIRED & set(mutagame.__all__)
    assert not RETIRED & set(vars(mutagame))
    for module in pkgutil.iter_modules(mutagame.__path__):
        namespace = vars(importlib.import_module(f"mutagame.{module.name}"))
        assert not RETIRED & set(namespace), module.name
    assert not hasattr(mutagame.NormalFormGame, "from_stage_game")
    assert not hasattr(mutagame.StrategyKind, "honest")
    assert not hasattr(mutagame.BatchTrace, "profile_masks")
    assert not hasattr(mutagame.TransitionKernel, "row")
    assert not hasattr(mutagame.TransitionKernel, "identity")
    assert not hasattr(mutagame.Scenario, "validate")
    assert not hasattr(mutagame.Scenario, "meta_investors")


def test_every_module_level_import_is_used():
    # No linter runs on this project, so an import whose last user was
    # deleted is caught here. __init__ imports to re-export, so it is skipped.
    unused = []
    for path in sorted(Path(mutagame.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.split(".")[0]: node.lineno
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_every_private_helper_is_named_elsewhere():
    # A module-level _helper whose last caller was deleted is caught here: it
    # must be named outside its own definition, in some module of the package.
    # The module hooks the interpreter calls are exempt, and only they.
    hooks = {"__getattr__", "__dir__"}
    statements = [
        (path.name, node)
        for path in sorted(Path(mutagame.__file__).parent.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    named = [
        {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
         if isinstance(sub, (ast.Name, ast.Attribute))}
        for _, node in statements
    ]
    dead = [
        f"{module}:{node.lineno} {node.name}"
        for i, (module, node) in enumerate(statements)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
        and node.name not in hooks
        and not any(node.name in names for j, names in enumerate(named) if j != i)
    ]
    assert dead == []


def test_scenario_imports_nothing_from_the_engine():
    # The engine reads the scenario model; the model never reads the engine.
    tree = ast.parse((Path(mutagame.__file__).parent / "scenario.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert [name for name in imported if "simulate" in name.split(".")] == []


def test_only_the_engine_loads_numpy_at_import():
    # numpy is most of a child process's start-up, so only the engine and its
    # ziggurat tables may import it at module level, directly or through a
    # module-level import of a package module that does. Imports inside a
    # function or under TYPE_CHECKING run no numpy at import time.
    direct, imports = set(), {}
    for path in Path(mutagame.__file__).parent.glob("*.py"):
        module, imports[path.stem] = path.stem, set()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.ImportFrom):  # relative: the package's own modules
                imports[module] |= ({node.module} if node.module else
                                    {alias.name for alias in node.names})
                continue
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                direct.add(module)
    loads = set(direct)
    while True:
        grown = loads | {module for module, used in imports.items() if used & loads}
        if grown == loads:
            break
        loads = grown
    assert sorted(loads) == ["_ziggurat", "simulate"]


def test_discounting_names_no_numpy():
    # The discount side is Python floats throughout: no import of numpy, not
    # even inside a function or under TYPE_CHECKING, and no array annotation.
    source = (Path(mutagame.__file__).parent / "discounting.py").read_text(encoding="utf-8")
    names = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
    assert "numpy" not in source and "np" not in names


BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}
FORK_NAMES = {"fork", "forkpty", "posix_spawn", "posix_spawnp"}
FORK_MODULES = {"multiprocessing", "concurrent", "tempfile"}


def package_nodes():
    """(module file name, node, the name the node reads or None) over every
    node of every module of the package."""
    for path in sorted(Path(mutagame.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else None)
            yield path.name, node, name


def test_no_module_calls_blas():
    # `run` and `sweep` start numpy with one OpenBLAS thread, and README says
    # the package makes no BLAS call: a matrix product or a linalg routine
    # would run on that one thread. Any such name or operator fails here.
    found = []
    for module, node, name in package_nodes():
        if name in BLAS_NAMES or isinstance(getattr(node, "op", None), ast.MatMult):
            found.append(f"{module}:{node.lineno} {name or '@'}")
    assert found == []


def test_no_module_calls_builtin_sum():
    # Builtin sum() is compensated from Python 3.12 on (Neumaier 1974), so its
    # bits would depend on the interpreter. The model sums left to right
    # through protocol._sum, numpy's order below 8 items, on every Python.
    found = [f"{module}:{node.lineno}" for module, node, _ in package_nodes()
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum"]
    assert found == []


SCALAR_KINDS = ("_is_number", "_INT", "_BOOL", "_TEXT", "_NUMBER", "_REAL", "_range", "_UNIT",
                "_OPEN_UNIT", "_NONNEGATIVE", "_POSITIVE", "_COUNT", "_INDEX", "_items",
                "_NONEMPTY")


def test_one_module_holds_the_scalar_rule():
    # The schema and every constructor check a scalar's type and range, and a
    # sequence's length, with protocol's kinds: no `numbers.Real` test beside
    # them, and no second copy of a kind or of the rule that makes a range kind.
    imports_numbers = [
        f"{module}:{node.lineno}" for module, node, _ in package_nodes()
        if isinstance(node, ast.Import) and "numbers" in [alias.name for alias in node.names]
        or isinstance(node, ast.ImportFrom) and node.module == "numbers"]
    assert imports_numbers == []
    homes = {kind: [] for kind in SCALAR_KINDS}
    for module, node, _ in package_nodes():
        targets = ([node.name] if isinstance(node, ast.FunctionDef) else
                   [t.id for t in node.targets if isinstance(t, ast.Name)]
                   if isinstance(node, ast.Assign) else [])
        for target in targets:
            if target in homes:
                homes[target].append(module)
    assert homes == {kind: ["protocol.py"] for kind in SCALAR_KINDS}


@pytest.mark.parametrize("call, message", [
    # Each raised AttributeError up to 0.19.0.
    (lambda: mutagame.mutation_rate([[1.0]]), "kernel: expected a TransitionKernel, got [[1.0]]"),
    (lambda: mutagame.kernel_entropy([[1.0]]), "kernel: expected a TransitionKernel, got [[1.0]]"),
    (lambda: mutagame.integrity([[1.0]]), "kernel: expected a TransitionKernel, got [[1.0]]"),
    (lambda: mutagame.stationary_distribution([[1.0]]),
     "kernel: expected a TransitionKernel, got [[1.0]]"),
    (lambda: mutagame.pure_nash(3), "game: expected a NormalFormGame, got 3"),
    (lambda: mutagame.grim_trigger_threshold(3), "game: expected a NormalFormGame, got 3"),
    (lambda: mutagame.mixed_nash_2x2(3), "game: expected a NormalFormGame, got 3"),
    (lambda: mutagame.grim_cooperation_verdict(3, 0.9, 0.1),
     "game: expected a NormalFormGame, got 3"),
    (lambda: mutagame.kernel_as_run("x"), "scenario: expected a Scenario, got 'x'"),
    (lambda: mutagame.run_batch("x"), "scenario: expected a Scenario, got 'x'"),
    (lambda: mutagame.run_replica("x", 0), "scenario: expected a Scenario, got 'x'"),
    # Each raised AttributeError up to 0.20.0.
    (lambda: row_entropies([[1.0]]), "kernel: expected a TransitionKernel, got [[1.0]]"),
    (lambda: has_unique_stationary([[1.0]]), "kernel: expected a TransitionKernel, got [[1.0]]"),
    (lambda: scale_kernel_epsilon([[1.0]], 0.0),
     "kernel: expected a TransitionKernel, got [[1.0]]"),
])
def test_each_function_refuses_a_wrong_typed_model_object(call, message):
    with pytest.raises(mutagame.ConfigurationError) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_no_module_forks():
    # Every command runs in one process: README says so, and `trace.csv` is
    # written by this process alone. A fork or spawn, a process or thread
    # pool, or a temporary file to merge a second writer's output fails here.
    found = []
    for module, node, name in package_nodes():
        imported = ([alias.name for alias in node.names] if isinstance(node, ast.Import) else
                    [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        if name in FORK_NAMES or any(i.split(".")[0] in FORK_MODULES for i in imported):
            found.append(f"{module}:{node.lineno} {name or ', '.join(imported)}")
    assert found == []


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    (tmp_path / "mutable_core.yaml").write_text(PRESETS["mutable_core"], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace, values = {}, []
    for statement in ast.parse(block).body:
        if isinstance(statement, ast.Expr):
            code = compile(ast.Expression(statement.value), "README.md", "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    nash, delta_star, coop_value, utility, states, profiles, defects, payoffs, replica = values
    assert nash == ["DD"]
    assert delta_star == 0.5
    assert str(coop_value).startswith("4.2631")
    assert utility == pytest.approx(8.13, abs=1e-12)
    scenario = namespace["scenario"]
    shape = (scenario.replica_count, scenario.horizon)
    assert (states.shape, states.dtype) == (shape, np.uint8)
    assert profiles.shape == (3,) and defects.shape == (3, scenario.n)
    assert (payoffs.shape, payoffs.dtype) == ((*shape, scenario.n), np.float64)
    assert replica.tolist() == payoffs[0].tolist()


FAILING_HYPOTHESIS_TEST = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # Hypothesis reports a failure through libcst, whose import warns; under
    # this project's warnings-as-errors that once ended the whole session.
    (tmp_path / "test_example.py").write_text(FAILING_HYPOTHESIS_TEST, encoding="utf-8")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(pyproject),
         "--rootdir", str(tmp_path), "test_example.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout.splitlines()[-1], done.stdout[-2000:]
