"""Package-wide guards: every export resolves, the package re-exports each
module's ``__all__`` by ``import *`` and lists no name itself, no check is
an ``assert``, no branch is excused from coverage, every parameter is read,
one module owns the discrete-log arithmetic, no module sorts a difference
row, and the per-layer benchmarks still collect.

``python -O`` strips ``assert`` statements, so validation in the package
raises explicit errors instead.  A branch that no input reaches is deleted
rather than marked ``pragma: no cover``.  A parameter that its body never
reads is a knob that changes nothing.  The log/exp tables are built in
``field`` only and reached through ``field._Arith``, so no other module
builds a second copy of its formulas.  No module calls ``argsort``, and no
module pads a set into slots: the replay reads each solution set as its
members tagged by row, and the split rows read the fibers of pi as their
members tagged by u.  The replay's array pass is the only caller of its
identity helpers, so the derivation is written once, and those helpers name
no element constant but 0 and 1, which squaring fixes.  The pair sweep
reads its passes only for which rows pass, and a failing pair's error is
read off the one-row pass over its own set.  The pairs come from
``theorems._pair_chunks`` alone: it builds the module's one seeded
generator and makes its one ``randbytes`` stream, and the exhaustive and
the sampled sweep share its one chunk loop, which yields each chunk's pair
indices split by ``divmod``.  A k is read through
``theorems._check_k``, the one reader of ``MAX_K``, by every entry point
before its family table is built and by ``run_all_checks`` up front, and every row
that ``run_all_checks`` reports is exported.  One
function sums the fibers of pi, no split row builds a fiber one u at a time
or hands a case to a scalar re-check, the split witness alone derives its
arithmetic, half field and fibers, and ``theorems`` takes no scalar
solver from ``field``.  The GF(2) trace has one kernel, the masks of
``field._trace_basis``: ``spectra`` names the scalar trace and product only
in its direct-sum oracle, and ``_Arith.subtrace`` is one parity, with no
loop.  Every tabulated GF(2)-linear map is filled by one kernel,
``field._span``: the log/exp tables gather from it a byte at a time, the
Walsh mask table is its span of the trace basis and is built by
``walsh_row`` only, and the quadratic-root table takes no product.  The
range, nonzero-element and integer rules for an element live in
``field._check_elements`` alone, and the rule for a bounded integer parameter
(a degree, an exponent, k, s or a sample count) in ``field._check_int``:
outside ``field`` only ``catalog_table``, whose ``max_n`` is a filter with no
bound, reads an integer with ``operator.index``.  The catalog raises no
parameter message of its own, and its rows are one table, which
``_desk_rows`` filters with no branch per family.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gf2lab

MODULES = [importlib.import_module(f"gf2lab.{m.name}")
           for m in pkgutil.iter_modules(gf2lab.__path__)]


def test_main_module_imports_like_the_rest():
    # __main__ included: it runs the command line only as a script
    assert "gf2lab.__main__" in {mod.__name__ for mod in MODULES}


def test_every_export_resolves():
    exporting = [mod for mod in MODULES if hasattr(mod, "__all__")]
    assert len(exporting) >= 6
    stale = [f"{mod.__name__}.{name}" for mod in exporting
             for name in mod.__all__ if not hasattr(mod, name)]
    assert not stale, f"__all__ names that do not resolve: {stale}"


def test_the_package_exports_each_modules_all_and_names_none_itself():
    missing = [f"{mod.__name__}.{name}" for mod in MODULES for name in getattr(mod, "__all__", ())
               if getattr(gf2lab, name, None) is not getattr(mod, name)]
    assert not missing, f"names the package does not re-export: {missing}"
    tree = ast.parse(Path(gf2lab.__file__).read_text())
    listed = [(node.module, [alias.name for alias in node.names]) for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level]
    assert listed and all(names == ["*"] for _, names in listed), listed


def test_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(gf2lab.__file__).parent.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_no_branch_is_excused_from_coverage():
    # a branch no test can reach is removed, not marked for coverage to skip
    found = [f"{path.name}:{i}"
             for path in sorted(Path(gf2lab.__file__).parent.rglob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if "pragma: no cover" in line]
    assert not found, f"coverage pragmas in the package: {found}"


def test_every_parameter_is_read():
    unread = []
    for path in sorted(Path(gf2lab.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            unread += [f"{path.name}:{node.lineno} {name}({p})"
                       for p in params if p not in read]
    assert not unread, f"parameters never read: {unread}"


def test_only_field_owns_the_log_exp_arithmetic():
    names, classes = set(), set()
    for path in sorted(Path(gf2lab.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            # a bare name, an attribute, an import alias or a definition
            if "_log_exp_tables" in {getattr(node, f, None) for f in ("id", "attr", "name")}:
                names.add(path.name)
            if isinstance(node, ast.ClassDef) and node.name == "_Arith":
                classes.add(path.name)
    assert names == {"field.py"}, f"modules naming _log_exp_tables: {sorted(names)}"
    assert classes == {"field.py"}, f"modules defining _Arith: {sorted(classes)}"


def test_no_module_calls_argsort():
    names = set()
    for path in sorted(Path(gf2lab.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if "argsort" in {getattr(node, f, None) for f in ("id", "attr", "name")}:
                names.add(path.name)
    assert names == set(), f"modules calling argsort: {sorted(names)}"


def test_only_the_array_pass_derives_the_replay():
    # an identity helper of the replay takes the arithmetic A first; outside
    # the helpers only _derive_pass calls them, _normalized aside, which maps
    # pairs to their c for the sweep and the scan of the pairs' own sets, so
    # a second derivation of any step shows up here
    tree = ast.parse((Path(gf2lab.__file__).parent / "theorems.py").read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    helpers = {name for name, node in defs.items() if name.startswith("_")
               and node.args.args and node.args.args[0].arg == "A"}
    callers = {}
    for name in defs.keys() - helpers:
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in helpers:
                callers.setdefault(node.func.id, set()).add(name)
    assert callers.pop("_normalized") == {"_scanned", "reduction_sweep"}
    assert set(callers) == helpers - {"_normalized"}
    assert all(names == {"_derive_pass"} for names in callers.values()), callers


def test_the_replay_helpers_name_no_element_but_0_and_1():
    # squaring fixes 0 and 1 only, so while these are the helpers' only
    # element constants, every identity commutes with squaring and row c^2
    # of the replay passes exactly when row c does; an integer inside the
    # exponent of A.frob or A.pow counts squarings, not an element
    tree = ast.parse((Path(gf2lab.__file__).parent / "theorems.py").read_text())
    helpers = [node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_") and node.args.args
               and node.args.args[0].arg == "A"]
    assert helpers
    exponents = {id(node) for fn in helpers for call in ast.walk(fn)
                 if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                 and call.func.attr in ("frob", "pow") and len(call.args) == 2
                 and getattr(call.func.value, "id", None) == "A"
                 for node in ast.walk(call.args[1])}
    stray = [f"{fn.name}:{node.lineno} {node.value}" for fn in helpers
             for node in ast.walk(fn) if isinstance(node, ast.Constant)
             and isinstance(node.value, int) and node.value not in (0, 1)
             and id(node) not in exponents]
    assert not stray, f"element constants other than 0 and 1: {stray}"


def test_a_replay_error_is_read_off_the_pairs_own_pass():
    # _replay_error reads row 0 of a one-row pass, and the sweep reads its
    # passes only through .passed, so a failing pair's error is built from
    # the pass over its own scanned set, whichever pass found the failure
    tree = ast.parse((Path(gf2lab.__file__).parent / "theorems.py").read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert [p.arg for p in defs["_replay_error"].args.args] == ["k", "a", "b", "cols"]
    read = {id(node.value): node.attr for node in ast.walk(defs["reduction_sweep"])
            if isinstance(node, ast.Attribute)}
    passes = [id(node) for node in ast.walk(defs["reduction_sweep"])
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_derive_pass"]
    assert passes and all(read.get(call) == "passed" for call in passes)


def test_the_pairs_are_one_stream_of_indices_in_one_chunk_loop():
    # one seeded generator and one randbytes call feed the sample, and the
    # exhaustive and the sampled sweep yield from the same chunk loop
    tree = ast.parse((Path(gf2lab.__file__).parent / "theorems.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def callers(attr):
        inside = [name for name, node in functions.items() for call in ast.walk(node)
                  if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == attr]
        assert len(inside) == sum(isinstance(call, ast.Call) and getattr(call.func, "attr", None)
                                  == attr for call in ast.walk(tree)), attr
        return inside

    assert callers("Random") == ["_pair_chunks"]
    assert callers("randbytes") == ["_pair_chunks"]
    chunks = functions["_pair_chunks"]
    assert sum(isinstance(node, (ast.For, ast.comprehension)) for node in ast.walk(chunks)) == 1
    yields = [node for node in ast.walk(chunks) if isinstance(node, (ast.Yield, ast.YieldFrom))]
    assert yields and all(isinstance(node, ast.Yield) and isinstance(node.value, ast.Call)
                          and getattr(node.value.func, "attr", None) == "divmod"
                          for node in yields)


def test_k_is_checked_where_its_table_is_built():
    # every entry point reads its k through _check_k, the one reader of
    # MAX_K, before it builds its family table, and run_all_checks reads
    # every k up front, before any row runs; _family_table checks no k
    # again, so a k is checked once per call
    tree = ast.parse((Path(gf2lab.__file__).parent / "theorems.py").read_text())
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    callers = {node.name for node in functions for call in ast.walk(node)
               if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_check_k"}
    assert callers == {"run_all_checks", "diff_solution_count",
                       "reduction_trace", "reduction_sweep", "mm_basis", "delta_sweep",
                       "all_gammas"}
    readers = {node.name for node in functions for name in ast.walk(node)
               if isinstance(name, ast.Name) and name.id == "MAX_K"}
    assert readers == {"_check_k"}


def test_every_row_of_run_all_checks_is_exported():
    # delta_sweep and fiber_partition_check were rows of verify that neither
    # theorems.__all__ nor the package named
    from gf2lab import theorems

    tree = ast.parse(Path(theorems.__file__).read_text())
    public = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")}
    called = {call.func.id for call in ast.walk(_function(tree, "run_all_checks"))
              if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}
    rows = called & public
    assert {"delta_sweep", "fiber_partition_check", "m4_sum_check"} <= rows
    assert rows <= set(theorems.__all__), rows - set(theorems.__all__)
    assert all(getattr(gf2lab, name, None) is getattr(theorems, name) for name in rows)


def test_split_rows_have_one_fiber_sum_and_no_scalar_fallback():
    # the split rows decide every cell in their one array pass over the
    # members tagged by u, so a second fiber-sum path, a fiber built one u
    # at a time or a scalar re-check of those rows shows up here
    tree = ast.parse((Path(gf2lab.__file__).parent / "theorems.py").read_text())
    callers = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
                    callers.setdefault(call.func.id, set()).add(node.name)
    assert callers["_fiber_terms"] == {"_fiber_sum_grid"}
    rows = {"mm_decomposition_check", "fiber_partition_check", "quartic_check_all",
            "mm_crosscheck_all", "m4_sum_check"}
    assert not callers.get("pi_fiber", set()) & (rows | {"_fiber_sum_grid"})
    scalar = set().union(*(callers.get(name, set()) for name in
                           ("mm_walsh_crosscheck", "quartic_roots")))
    assert not scalar & rows
    assert "_pad" not in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_the_split_witness_derives_its_arithmetic_half_field_and_fibers():
    # MMWitness reads the field's arithmetic, GF(2^(2k)) and the fibers of pi
    # off its fields, so outside mm_basis no function of theorems builds them
    # from a witness again, and the split helpers take no arithmetic argument
    tree = ast.parse((Path(gf2lab.__file__).parent / "theorems.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_fibers" not in functions
    for name in ("_split_offset", "_fiber_terms", "_transform_value"):
        assert "A" not in [arg.arg for arg in functions[name].args.args], name
    rederived = [f"{name}: {ast.unparse(call)}" for name, node in functions.items()
                 if name != "mm_basis" for call in ast.walk(node) if isinstance(call, ast.Call)
                 and (getattr(call.func, "id", None) == "_arith" and "w." in ast.unparse(call)
                      or getattr(call.func, "attr", None) == "subfield"
                      and "2 *" in ast.unparse(call.args[0]))]
    assert not rederived, rederived
    for name in ("arith", "half", "fibers"):
        assert _function(tree, name, "MMWitness").decorator_list[0].id == "cached_property"


def test_theorems_takes_no_scalar_solver_from_field():
    # the basis reads its quadratics off the root table and every row is one
    # array pass, so theorems needs no solver and no per-case tally; it takes
    # the one element check and the one integer-parameter check from field
    tree = ast.parse((Path(gf2lab.__file__).parent / "theorems.py").read_text())
    imported = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                and node.module == "field" for alias in node.names}
    assert imported == {"FieldSpec", "_Arith", "_arith", "_check_elements", "_check_int",
                        "field_make"}
    assert "_tally" not in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_one_trace_kernel():
    # the Walsh masks read field._trace_basis, so a second build of the trace
    # form, or a subfield trace by repeated squaring, shows up here
    package = Path(gf2lab.__file__).parent
    tree = ast.parse((package / "spectra.py").read_text())
    oracle = {id(node) for fn in tree.body if isinstance(fn, ast.FunctionDef)
              and fn.name == "walsh_coefficient_direct" for node in ast.walk(fn)}
    assert oracle, "the direct-sum oracle is gone"
    named = [f"spectra.py:{node.lineno} {node.id}" for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id in ("trace_abs", "_mul")
             and id(node) not in oracle]
    assert not named, f"scalar trace or product outside the oracle: {named}"
    arith = next(node for node in ast.parse((package / "field.py").read_text()).body
                 if isinstance(node, ast.ClassDef) and node.name == "_Arith")
    subtrace = next(node for node in arith.body
                    if isinstance(node, ast.FunctionDef) and node.name == "subtrace")
    loops = [node.lineno for node in ast.walk(subtrace)
             if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert not loops, f"_Arith.subtrace loops at lines {loops}"


def _function(tree, name, cls=None):
    body = tree.body if cls is None else next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == cls).body
    return next(node for node in body if isinstance(node, ast.FunctionDef) and node.name == name)


def test_one_span_kernel():
    # a second doubling fill (x[2^i : 2^(i+1)] = x[:2^i] ^ col), a per-bit
    # pass in _linear_map or a product in the root table shows up here
    package = Path(gf2lab.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.rglob("*.py"))}
    span = {id(node) for node in ast.walk(_function(trees["field.py"], "_span"))}
    fills = [f"{name}:{node.lineno}" for name, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp)
             and isinstance(node.value.op, ast.BitXor) and isinstance(node.value.left, ast.Subscript)
             and isinstance(node.targets[0], ast.Subscript) and id(node) not in span
             and ast.dump(node.value.left.value) == ast.dump(node.targets[0].value)]
    assert not fills, f"doubling fills outside field._span: {fills}"

    def loops(fn):
        return [node for node in ast.walk(fn)
                if isinstance(node, (ast.For, ast.While, ast.comprehension))]

    def calls(fn):
        return {getattr(node.func, "id", getattr(node.func, "attr", None))
                for node in ast.walk(fn) if isinstance(node, ast.Call)}

    linear = _function(trees["field.py"], "_linear_map")
    assert "_span" in calls(linear)
    # its one loop steps over the bytes of an element
    assert [ast.unparse(node.iter) for node in loops(linear)] == ["range(0, len(cols), 8)"]
    masks = _function(trees["spectra.py"], "_trace_masks")
    assert not loops(masks) and calls(masks) == {"_span", "_trace_basis"}
    # the Walsh passes take component masks; only walsh_row reindexes by a
    readers = {fn.name for fn in trees["spectra.py"].body if isinstance(fn, ast.FunctionDef)
               and "_trace_masks" in calls(fn)}
    assert readers == {"walsh_row"}, f"functions building the mask table: {readers}"
    root = _function(trees["field.py"], "root", cls="_Arith")
    assert not calls(root) & {"mul", "_mul", "pow", "_pow", "frob", "sqrt", "inv"}
    # its one comprehension lists the columns x^(2i) + x^i of x^2 + x
    assert [ast.unparse(node.iter) for node in loops(root)] == ["range(1, self.n)"]
    tables = {node.attr for node in ast.walk(root) if isinstance(node, ast.Attribute)}
    assert not tables & {"log", "exp"}, "the root table reads the log/exp tables"


def test_one_element_check_and_one_token_walk():
    # an element outside [0, 2^n) is refused by field._check_elements only,
    # and read_lut checks each token once, with no whole-line fast path
    package = Path(gf2lab.__file__).parent
    checks = sorted(f"{path.name}:{node.name}" for path in sorted(package.rglob("*.py"))
                    for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_element"))
    assert checks == ["field.py:_check_elements"]
    lutio = ast.parse((package / "lutio.py").read_text())
    names = {node.id for node in ast.walk(lutio) if isinstance(node, ast.Name)}
    names |= {node.name for node in ast.walk(lutio) if isinstance(node, ast.FunctionDef)}
    assert not names & {"_reject_line", "_HEX_LINE"}


def _raised_texts(tree) -> list[str]:
    return [node.value.lower() for raise_ in ast.walk(tree) if isinstance(raise_, ast.Raise)
            for node in ast.walk(raise_) if isinstance(node, ast.Constant)
            and isinstance(node.value, str)]


def test_one_home_for_the_range_nonzero_and_exponent_sign_rules():
    # field states the range, nonzero-element and integer rules and, in one
    # function, the bounded-integer rule of a degree, an exponent, k, s or a
    # sample count: spectra raises no element or dtype message of its own, no
    # other function raises a "must be" message, only catalog_table (whose
    # max_n has no bound) reads an integer outside field, and cli compares
    # no exponent with a number
    package = Path(gf2lab.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.rglob("*.py"))}
    messages = _raised_texts(trees["spectra.py"])
    assert not [m for m in messages if "range" in m or "element" in m
                or "must be integers" in m], messages
    homes = sorted(f"{name}:{func.name}" for name, tree in trees.items()
                   for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                   and any("must be" in m or "non-negative" in m for m in _raised_texts(func)))
    assert homes == ["field.py:_check_int"], homes
    readers = sorted(f"{name}:{func.name}" for name, tree in trees.items() if name != "field.py"
                     for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                     for node in ast.walk(func) if isinstance(node, ast.Attribute)
                     and node.attr == "index" and getattr(node.value, "id", None) == "operator")
    assert readers == ["catalog.py:catalog_table"], readers
    cli = ast.parse((package / "cli.py").read_text())
    signs = [ast.unparse(node) for node in ast.walk(cli) if isinstance(node, ast.Compare)
             and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)
             and any(isinstance(side, ast.Attribute) and side.attr == "exp"
                     for side in [node.left, *node.comparators])]
    assert not signs, signs


def test_one_catalog_parameter_check_and_one_row_table():
    # family_exponent used to state its missing-parameter rule once per
    # family, then catalog._check_param once for the module, and _desk_rows
    # to build its rows in one if block per family; field._check_int reads
    # every parameter now
    tree = ast.parse((Path(gf2lab.__file__).parent / "catalog.py").read_text())
    homes = sorted(func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                   and any(word in m for m in _raised_texts(func)
                           for word in ("requires", "must be", ">=")))
    assert not homes, homes
    readers = {func.name for func in tree.body if isinstance(func, ast.FunctionDef)
               for call in ast.walk(func) if isinstance(call, ast.Call)
               and getattr(call.func, "id", None) == "_check_int"}
    assert readers == {"family_exponent", "permutation_check"}
    rows = _function(tree, "_desk_rows")
    branches = [node.lineno for node in ast.walk(rows) if isinstance(node, (ast.If, ast.For))]
    assert not branches, f"_desk_rows branches at lines {branches}"
    named = {node.value for node in ast.walk(rows) if isinstance(node, ast.Constant)}
    called = {getattr(node.func, "id", None) for node in ast.walk(rows)
              if isinstance(node, ast.Call)}
    assert not named & {"gold", "kasami", "inverse", "dobbertin"}
    assert "family_exponent" not in called
    table = [node for node in tree.body if isinstance(node, ast.AnnAssign)
             and getattr(node.target, "id", None) == "_ROWS"]
    assert len(table) == 1 and isinstance(table[0].value, ast.Tuple)


def test_benchmarks_still_collect():
    # the per-layer benchmarks import private names of the package, which a
    # rename would otherwise break unnoticed: they run outside the test suite
    pytest.importorskip("pytest_benchmark")
    root = Path(__file__).resolve().parents[1]
    path = filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-m", "pytest", "benchmarks", "--collect-only",
                          "-q", "-p", "no:cacheprovider"],
                         cwd=root, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
