"""Static checks on the package source."""

import ast
import json
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fdbt"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
MUTANTS = SRC.parent.parent / "tools" / "mutants.json"


def _unused_imports(tree: ast.Module) -> list:
    """Names a module imports but never reads (the package __init__
    re-exports by design, so it is not checked; __future__ imports are
    compiler directives)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_name_it_imports(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert _unused_imports(tree) == []


def _imported_modules(tree: ast.Module) -> set:
    """Top-level names of the absolute modules a module imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "linalg.py")
)
def test_only_linalg_imports_scipy(module):
    # every LAPACK and BLAS call goes through linalg's routine handles
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert "scipy" not in _imported_modules(tree)


def test_exports_are_exactly_the_imported_names():
    # a name dropped from an import cannot leave a stale __all__ entry
    tree = ast.parse((SRC / "__init__.py").read_text(), filename="__init__.py")
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    (exports,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    ]
    assert len(exports) == len(set(exports))
    assert set(exports) == imported | {"__version__"}


def test_one_numerical_rank_rule():
    # linalg.rank_cutoff is the only place machine epsilon enters a verdict
    sources = [(SRC / name).read_text() for name in MODULES + ["__init__.py"]]
    assert sum(text.count("finfo") for text in sources) == 1


@pytest.mark.parametrize("module", MODULES)
def test_only_reduction_builds_result_records(module):
    # every method's record comes from reduction.truncation_result
    built = [
        node
        for node in ast.walk(ast.parse((SRC / module).read_text(), filename=module))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "ReductionResult"
    ]
    assert module == "reduction.py" or built == []


def test_one_band_rule():
    # reduction.IntervalConfig validates the band of both band methods
    sources = [(SRC / name).read_text() for name in MODULES + ["__init__.py"]]
    assert sum(text.count("band needs finite w1 < w2") for text in sources) == 1


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_one_solve(module):
    # a guarded solve is linalg.solve(..., guarded=True), not a second function
    tree = ast.parse((SRC / module).read_text(), filename=module)
    defined = {
        node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    }
    assert "solve_guarded" not in defined | _imported_names(module)


def test_no_random_estimator():
    # the logarithm takes exact norms: fdbt never calls scipy's logm, whose
    # scaling reads a randomized norm estimate from scipy.sparse, and never
    # touches numpy's global random state; the one numpy.random use is the
    # harness's Generator, seeded by its RandomModelSpec
    uses = {}
    for name in MODULES + ["__init__.py"]:
        text = (SRC / name).read_text()
        assert not re.search(r"\blogm\b|scipy\.sparse", text), name
        found = re.findall(r"\b(?:np|numpy)\.random\b[.\w]*", text)
        if found:
            uses[name] = found
    assert uses == {"harness.py": ["np.random.default_rng"]}


def _imported_names(module: str) -> set:
    tree = ast.parse((SRC / module).read_text(), filename=module)
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_eta_chain_solves_no_eigenvalue_problem():
    # a balanced record's leading blocks pass the band-factor spectrum rules
    # (see _EtaChain), so the chain keeps no per-order guard
    tree = ast.parse((SRC / "interval.py").read_text(), filename="interval.py")
    assert "eigvals" not in _imported_names("interval.py")
    (chain,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "_EtaChain"
    ]
    defined = {node.name for node in chain.body if isinstance(node, ast.FunctionDef)}
    attributes = {
        node.attr for node in ast.walk(chain)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }
    assert "_guard" not in defined and "guarded" not in attributes


def test_each_gramian_pair_property_checked_once():
    # balance_gramians' PSD factors are the one indefiniteness test (as
    # IndefiniteGramian), Balanced.rank_deficient the one rank record the
    # eta chain reads, and sqrt_principal the band factors' one branch-cut
    # test
    sources = [(SRC / name).read_text() for name in MODULES + ["__init__.py"]]
    assert not any("NotPSD" in text for text in sources)
    assert "eigh" not in _imported_names("baselines.py")
    assert not {"check_off_branch_cut", "rank_cutoff"} & _imported_names("interval.py")


def _defined_names(module: str) -> set:
    """Functions, classes and assigned names (fields included) a module defines."""
    names = set()
    for node in ast.walk(ast.parse((SRC / module).read_text(), filename=module)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_one_answer_per_question():
    # eigenvalues come from gees alone, realness from the dtype alone, eta
    # as plain numbers, and the CLI writes JSON files by harness.write_json
    sources = {name: (SRC / name).read_text() for name in MODULES + ["__init__.py"]}
    assert not any("geev" in text for text in sources.values())
    defined = set().union(*(_defined_names(name) for name in sources))
    assert not {"eigvals", "EtaStep", "per_step", "is_real", "REAL_TOL"} & defined
    assert "json.dump(" not in sources["cli.py"]


def test_no_imitation_of_another_librarys_rounding():
    # the Padé sum's Gauss-Legendre rule is computed (linalg._gauss_legendre,
    # by syevd, not numpy's LAPACK), and a 1 x 1 response's sigma_max is |z|
    sources = [(SRC / name).read_text() for name in MODULES + ["__init__.py"]]
    defined = set().union(*(_defined_names(name) for name in MODULES + ["__init__.py"]))
    assert not {"_GAUSS_LEGENDRE", "_SIGMA_CLOSED_FORM", "_svd_1x1"} & defined
    assert not any(re.search(r"leggauss|roots_legendre", text) for text in sources)


def _parameters(tree: ast.AST, function: str | None = None) -> set:
    """Parameter names of every function in tree, or of the named one."""
    return {
        arg.arg
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and function in (None, node.name)
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
    }


def test_parameters_the_inputs_already_answer():
    # the model keeps its whole-axis Gramian pair (no caller passes it, and
    # only sysmodel solves it), and a Schur form's arithmetic is its
    # argument's dtype
    trees = {
        name: ast.parse((SRC / name).read_text(), filename=name)
        for name in MODULES + ["__init__.py"]
    }
    assert not any("standard" in _parameters(tree) for tree in trees.values())
    assert _parameters(trees["linalg.py"], "schur") == {"a"}
    read = {
        node.attr for node in ast.walk(trees["harness.py"]) if isinstance(node, ast.Attribute)
    }
    assert not {"Wc", "Wo"} & read
    for name in ("baselines.py", "interval.py", "sf.py"):
        assert "solve_lyapunov" not in _imported_names(name), name


def _called_names(module: str, function: str) -> set:
    """Names of the plain functions that the named function calls."""
    tree = ast.parse((SRC / module).read_text(), filename=module)
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    return {
        call.func.id
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
    }


def test_ef_gaps_belong_to_their_methods():
    # int-fdbt's gaps are realizations on A and A_r, so no caller passes a
    # build callback for a reduced extension, and the shared plumbing
    # estimates no gap: sf-fdbt builds its error systems in sf_ef_bound,
    # against the truncation its reduced model was mapped back from
    trees = [
        ast.parse((SRC / name).read_text(), filename=name) for name in MODULES + ["__init__.py"]
    ]
    assert not any("build" in _parameters(tree) for tree in trees)
    assert not {"hinf_estimate", "error_system"} & _imported_names("reduction.py")
    assert "error_system" not in _imported_names("interval.py")
    assert "build_sf_extended" not in _called_names("sf.py", "sf_ef_bound")


def test_sf_fdbt_is_a_prepare_step_and_a_truncate_step():
    # as int-fdbt: one record per system and anchor, truncated per order
    assert _called_names("sf.py", "sf_reduce") == {"check_order", "prepare_sf", "sf_truncate"}


def test_the_experiment_measures_on_the_one_reproduction_path():
    # the experiment's cells are the harness constants, and each band's
    # runs are run, swept and failed by _measured, as the examples' are
    tree = ast.parse((SRC / "harness.py").read_text(), filename="harness.py")
    assert _parameters(tree, "run_randomized_experiment") == {"spec"}
    (records,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_model_records"
    ]
    read = {node.id for node in ast.walk(records) if isinstance(node, ast.Name)}
    assert "_measured" in read and not {"_error_sweeps", "error_sweeps"} & read
    assert not any(isinstance(node, ast.Try) for node in ast.walk(records))


def test_one_home_per_rule():
    # each reduction leaves its ef bound's stability question to the bound,
    # a response without inputs or outputs is sysmodel._static's answer,
    # not the resolvent's, and the experiment's model law is its constants
    assert "is_hurwitz" not in _called_names("sf.py", "sf_truncate")
    assert "is_hurwitz" not in _called_names("interval.py", "interval_truncate")
    def top_level(module, name):
        tree = ast.parse((SRC / module).read_text(), filename=module)
        (node,) = [n for n in tree.body if getattr(n, "name", None) == name]
        return node

    resolvent = top_level("linalg.py", "resolvent")
    assert "size" not in {n.attr for n in ast.walk(resolvent) if isinstance(n, ast.Attribute)}
    spec = top_level("harness.py", "RandomModelSpec")
    fields = [n.target.id for n in spec.body if isinstance(n, ast.AnnAssign)]
    assert fields == ["n", "seed", "count"]


def test_one_search_per_peak():
    # each refined peak runs its own Brent search to the end, calling its
    # probe function f: no generator protocol and no padded pole rows
    tree = ast.parse((SRC / "sysmodel.py").read_text(), filename="sysmodel.py")
    assert not any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in ast.walk(tree))
    assert "_screens" not in _defined_names("sysmodel.py")
    (search,) = [node for node in tree.body if getattr(node, "name", None) == "_peak_search"]
    assert search.args.args[0].arg == "f"


def test_every_mutant_names_one_place_in_src():
    # tools/mutants.py replaces each entry's text in a copy of the tree: a
    # text that no longer occurs exactly once would mutate nothing, or the
    # wrong place, and the mutant would prove nothing
    mutants = json.loads(MUTANTS.read_text())
    sources = [p.read_text() for p in SRC.glob("*.py")]
    root = SRC.parent.parent
    assert len({m["name"] for m in mutants}) == len(mutants)
    for m in mutants:
        assert m["find"] != m["replace"] and m["breaks"], m["name"]
        assert (root / m["file"]).read_text().count(m["find"]) == 1, m["name"]
        assert sum(text.count(m["find"]) for text in sources) == 1, m["name"]
