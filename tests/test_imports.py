"""Runtime hygiene: the package and its CLI never load oracle-only code, a
verb loads only the modules it runs, and the runtime modules hold only what
the CLI verbs and the benchmark reach, besides the package's PEP 562 hooks.
What only the tests read (the tame Hilbert symbol over an extension and its
residue data, say) lives in tests/helpers.py."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "twistedgl"

# Runtime definitions that no verb reaches, each kept for the reason given:
# the package's PEP 562 hooks, which the interpreter calls, and the Mat views
# that perfbench reads off objects, which the scan of its imports does not
# see.  Anything else that only the tests or the oracles read belongs in
# tests/helpers.py.
KEPT = {
    "__init__.__getattr__": "the PEP 562 hook that the interpreter calls, not "
                            "a verb, to resolve the package's re-exported "
                            "names on first access",
    "__init__.__dir__": "the PEP 562 hook that lists the package's lazily "
                        "re-exported names",
    "qform.QuadForm.gram": "perfbench/workloads.py config_document reads "
                           "congruence(q.gram, pm), and perfbench/tracing.py "
                           "replay_record (q_v.gram, p)",
    "gsnorm.AmbientSpace.gram_q1": "perfbench/tracing.py replay_record reads "
                                   "(amb.gram_q1, p)",
    "gsnorm.GSConfiguration.X": "perfbench/workloads.py op_config reads "
                                "config.X, and perfbench/tracing.py "
                                "replay_record [config.X, config.Y]",
}


def _names(nodes) -> set[str]:
    """Every name the nodes mention, and every attribute as ".attr"."""
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add("." + n.attr)
    return out


def _definitions():
    """{module.name or module.Class.method: (name, names it mentions)} over
    the runtime modules, and the names their module-level code mentions.
    Imports mention nothing, so a re-export keeps no definition alive."""
    defs, module_level = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "oracles.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{path.stem}.{node.name}"] = (node.name, _names([node]))
            elif isinstance(node, ast.ClassDef):
                methods = [s for s in node.body if isinstance(s, ast.FunctionDef)]
                rest = [s for s in node.body if s not in methods]
                defs[f"{path.stem}.{node.name}"] = (
                    node.name, _names(rest + node.decorator_list + node.bases))
                for m in methods:
                    defs[f"{path.stem}.{node.name}.{m.name}"] = (m.name, _names([m]))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                module_level |= _names([node])
    return defs, module_level


def _benchmark_names() -> set[str]:
    """The names perfbench imports from twistedgl, and the attributes it reads
    off an imported twistedgl module (cli.main, say), as names."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    out = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        imported = set()
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "twistedgl":
                for alias in n.names:
                    out.add(alias.name)
                    if alias.name in modules:
                        imported.add(alias.asname or alias.name)
        out |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name) and n.value.id in imported}
    return out


def unreached_definitions() -> set[str]:
    """The runtime definitions that a name-based call graph does not reach from
    the cmd_* handlers, main, module-level code and perfbench's imports.

    A function or a class is reached when a reached definition mentions its
    name, bare or as an attribute; a method only when one mentions it as an
    attribute (obj.name), so a module function of the same name keeps no
    method alive, and a method named like __dunder__ is reached with its
    class.  Matching by name over-approximates the calls, so what it leaves
    unreached is unreached."""
    defs, module_level = _definitions()
    names = module_level | _benchmark_names() | {
        name for name, _ in defs.values() if name == "main" or name.startswith("cmd_")}
    reached = set()
    grew = True
    while grew:
        grew = False
        for qual, (name, mentions) in defs.items():
            if qual in reached:
                continue
            owner = qual.rsplit(".", 1)[0]
            method = owner.count(".") == 1
            if ("." + name in names or not method and name in names
                    or method and name.startswith("__") and name.endswith("__")
                    and owner in reached):
                reached.add(qual)
                names |= mentions
                grew = True
    return set(defs) - reached


def test_runtime_is_what_the_cli_and_the_benchmark_reach():
    unreached = unreached_definitions()
    assert sorted(unreached - set(KEPT)) == [], "delete, surface as a verb or keep"
    assert sorted(set(KEPT) - unreached) == [], "kept, but reached or gone"


def test_oracles_import_nothing_from_endoscopy():
    tree = ast.parse((PACKAGE / "oracles.py").read_text())
    assert not [n for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom) and n.module == "endoscopy"]


def _run_probe(probe: str, *args: str) -> str:
    """The stdout of probe run in a fresh interpreter on the sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-c", probe, *args], env=env, check=True,
                          capture_output=True, text=True, timeout=60).stdout


def test_runtime_imports_leave_numpy_and_the_oracles_out():
    probe = ("import json, sys, twistedgl, twistedgl.cli; "
             "print(json.dumps([m for m in ('numpy', 'twistedgl.oracles', 'hashlib') "
             "if m in sys.modules]))")
    assert json.loads(_run_probe(probe)) == []


# the submodules that import twistedgl (argv None) or a verb loads, the
# verb's own twistedgl.cli left out
LOADS = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import twistedgl
else:
    from twistedgl.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
own = set() if argv is None else {"twistedgl.cli"}
print(json.dumps(sorted(m.split(".", 1)[1] for m in set(sys.modules) - own
                        if m.startswith("twistedgl."))))
"""


@pytest.mark.parametrize("argv, loaded", [
    (None, []),
    ([], []),  # import twistedgl.cli, and the usage error of no verb
    (["sqclass", "12", "--p", "5"], ["linalg", "localfield"]),
    (["hilbert", "3", "5", "--p", "7"], ["linalg", "localfield"]),
    (["corpus", "generate", "--p", "5", "--n", "1,2", "--count", "4"],
     ["linalg", "localfield"]),
    (["qform", "invariants", "--json", '{"p": 5, "diag": [1, 2]}'],
     ["linalg", "localfield", "qform"]),
    (["weil", "index", "--json", '{"p": 5, "diag": [1, 2]}'],
     ["linalg", "localfield", "qform", "weil"]),
    (["corpus", "run", "--p", "2,3", "--n", "1,2", "--count", "2"],
     ["endoscopy", "gsnorm", "linalg", "localfield", "qform", "weil"]),
])
def test_a_verb_loads_only_the_modules_it_runs(argv, loaded):
    # import twistedgl loads no submodule, import twistedgl.cli none but
    # itself, and a verb the modules of the code it runs: a corpus run reads
    # neither classes, etale, params nor the oracles
    assert json.loads(_run_probe(LOADS, json.dumps(argv))) == loaded


# every name the package re-exports, by submodule
REEXPORTS = {
    "localfield": ["Prime", "LocalFieldDescriptor", "SquareClass", "FieldElement",
                   "QP", "valuation", "square_class", "square_class_table",
                   "hilbert_qp"],
    "qform": ["QuadForm", "FormInvariants", "WittClass", "quad_form", "diag_form",
              "alternating_form", "diagonalize", "invariants",
              "is_isotropic", "witt_decompose", "equivalent",
              "direct_sum", "scale", "hyperbolic", "norm_form", "represents"],
    "weil": ["Mu8", "weil_index", "epsilon_half"],
    "etale": ["FactorTower", "EtaleAlgebraWithInvolution", "AlgebraElement",
              "make_algebra", "trace_form_bilinear", "trace_form_quadratic"],
    "classes": ["ClassParameter", "ClassInvariant", "build_tGL_even", "build_tGL_odd",
                "build_SO_even", "build_SO_odd", "build_Sp", "twist_invariant",
                "corresponds", "is_elliptic"],
    "gsnorm": ["AmbientSpace", "GSConfiguration", "make_ambient", "random_config",
               "u_of_xy", "rigidify", "gs_norm", "gs_section", "gs_param_check"],
    "endoscopy": ["EndoscopicDatum", "enumerate_elliptic_data", "quasisplit_space",
                  "eta_sp_value", "eta_so_value", "transfer_factor",
                  "transfer_factor_whittaker", "ConstancyCell", "constancy_cell",
                  "ConstancyRecord", "constancy_record", "gs_constancy_check"],
    "params": ["FormalConstituent", "FormalParameter", "is_elliptic_param",
               "classify", "hypothesis_even_SO"],
}


def test_every_reexport_is_the_submodules_own_object():
    import twistedgl
    names = [name for names in REEXPORTS.values() for name in names]
    assert sorted(twistedgl.__all__) == sorted(names + ["__version__"])
    assert set(names) <= set(dir(twistedgl))
    for module, exported in REEXPORTS.items():
        sub = importlib.import_module(f"twistedgl.{module}")
        for name in exported:
            scope = {}
            exec(f"from twistedgl import {name}", scope)
            assert scope[name] is getattr(sub, name), name
    with pytest.raises(ImportError):
        exec("from twistedgl import no_such_name", {})
    with pytest.raises(AttributeError):
        twistedgl.no_such_name
