"""Source-layout checks: shared constants, the target branch and the CSV
writer each live in one module of the package, and every public name and
every defaulted option has a caller outside the tests."""

import ast
import re
from pathlib import Path

import zetalab

SOURCES = {p.stem: p.read_text() for p in Path(zetalab.__file__).parent.glob("*.py")}


def _modules_matching(pattern: str) -> list[str]:
    return sorted(name for name, text in SOURCES.items() if re.search(pattern, text, re.M))


def test_shared_constants_assigned_once():
    assert _modules_matching(r"^TWO_PI\s*=") == ["critline"]
    assert _modules_matching(r"^TARGETS\s*=") == ["critline"]
    assert _modules_matching(r"^_BLOCK_BUDGET\s*=") == ["primes"]


def test_one_csv_writer():
    assert len(_modules_matching(r"csv\.writer\(")) == 1


def test_target_branch_only_in_critline():
    assert _modules_matching(r"""target\s*==\s*["']zeta["']""") in ([], ["critline"])
    assert _modules_matching(r"target must be one of") == ["critline"]


def test_one_integrand_loop():
    # Every direct quadrature streams its grid through one kernel: twisted
    # takes the streamed sum from moments and nothing else private, and only
    # eval_grid and that sum walk the grid pieces.
    private = [
        alias.name
        for node in ast.walk(ast.parse(SOURCES["twisted"]))
        if isinstance(node, ast.ImportFrom) and node.module == "moments"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == ["_midpoint_sum"]
    callers = {
        (module, stmt.name)
        for module, text in SOURCES.items()
        for stmt in ast.walk(ast.parse(text))
        if isinstance(stmt, ast.FunctionDef)
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_grid_pieces"
    }
    assert callers == {("critline", "eval_grid"), ("moments", "_midpoint_sum")}


# Public names that only tests call, each kept because a test checks a claim
# of the paper (or an oracle for one) through it.
KEPT = {
    "theta_gamma_prime": "the oracle reference for theta'",
    "count_sign_changes": "criterion 2",
    "big_omega": "criterion 6",
    "build_increment_poly": "criterion 6",
    "g_sum": "criterion 6",
    "twist_pair_sum_bruteforce": "criterion 9",
    "twist_pair_sum_euler": "criterion 9",
    "product_length_fraction": "the paper's T^(1/10) length of the increment product",
    "mertens_target": "the paper's asymptotics for P_j",
    "interpolation_sides": "thin scalar wrapper; the pointwise inequality is tested through it",
    "write_poly_csv": "writes the file that `twisted --poly FILE` reads",
}

ROOT = Path(__file__).resolve().parents[1]


def _references() -> list[tuple[Path, str | None, set[str]]]:
    """(file, top-level def name or None, identifiers used) for every
    top-level statement of the code that is not a test."""
    out = []
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            for stmt in ast.parse(path.read_text()).body:
                names = {
                    node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(stmt)
                    if isinstance(node, (ast.Name, ast.Attribute))
                }
                owner = getattr(stmt, "name", None)
                out.append((path, owner, names))
    return out


def test_public_names_have_callers():
    refs = _references()
    unused = []
    for path in sorted((ROOT / "src" / "zetalab").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
                continue
            called = any(
                stmt.name in names and not (where == path and owner == stmt.name)
                for where, owner, names in refs
            )
            if not called:
                unused.append(stmt.name)
    assert sorted(unused) == sorted(KEPT)


# Defaulted parameters and dataclass fields that no code outside the tests
# sets, each kept because the named test needs a value other than the default.
KEPT_OPTIONS = {
    "b_factor.cfg": "test_b_factor_depth_stability",
    "BSeriesConfig.truncation_depth": "test_b_factor_depth_stability",
    "BSeriesConfig.tail_tolerance": "test_b_factor_preconditions",
    "MultiplicativeSpec.omega_cutoff": "test_build_increment_poly_enumeration",
    "interpolation_sides.target": "test_bound_random_k_and_t",
}


def _defaulted(fn: ast.FunctionDef, skip: int) -> list[tuple[str, int | None]]:
    """(name, positional index after the first `skip`, or None for
    keyword-only) of each parameter of fn that has a default."""
    args = fn.args
    pos = (args.posonlyargs + args.args)[skip:]
    first = len(pos) - len(args.defaults)
    return [(a.arg, i) for i, a in enumerate(pos) if i >= first] + [
        (a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]


def _options() -> list[tuple[str, str, str, int | None]]:
    """(key, callee, name, positional index) of every defaulted parameter of
    a public function or method and every defaulted field of a public
    dataclass of the package."""
    out = []
    for path in sorted((ROOT / "src" / "zetalab").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                out += [(f"{stmt.name}.{n}", stmt.name, n, i) for n, i in _defaulted(stmt, 0)]
            if not isinstance(stmt, ast.ClassDef) or stmt.name.startswith("_"):
                continue
            fields = [f for f in stmt.body if isinstance(f, ast.AnnAssign)]
            out += [
                (f"{stmt.name}.{f.target.id}", stmt.name, f.target.id, i)
                for i, f in enumerate(fields) if f.value is not None
            ]
            for fn in stmt.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                    out += [
                        (f"{stmt.name}.{fn.name}.{n}", fn.name, n, i)
                        for n, i in _defaulted(fn, 0 if static else 1)
                    ]
    return out


def test_options_have_callers():
    # A default that only tests override is a setting with one value in use.
    calls: dict[str, list[ast.Call]] = {}
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if not path.name.startswith("test_"):
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Call):
                        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                        calls.setdefault(name, []).append(node)

    def passed(call: ast.Call, name: str, index: int | None) -> bool:
        if any(kw.arg in (name, None) for kw in call.keywords):
            return True
        if index is None:
            return False
        return index < len(call.args) or any(
            isinstance(a, ast.Starred) for a in call.args[: index + 1]
        )

    unset = [
        key for key, callee, name, index in _options()
        if not any(passed(call, name, index) for call in calls.get(callee, []))
    ]
    assert sorted(unset) == sorted(KEPT_OPTIONS)
    tests = {
        stmt.name
        for path in (ROOT / "tests").glob("test_*.py")
        for stmt in ast.parse(path.read_text()).body
        if isinstance(stmt, ast.FunctionDef)
    }
    assert set(KEPT_OPTIONS.values()) <= tests


def _reachable(tree: ast.Module, roots: tuple[str, ...]) -> set[str]:
    """Module-level functions of tree reachable from roots through the names
    their bodies use; imported functions are not followed."""
    defs = {stmt.name: stmt for stmt in tree.body if isinstance(stmt, ast.FunctionDef)}
    seen: set[str] = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(
                node.id for node in ast.walk(defs[name])
                if isinstance(node, ast.Name) and node.id in defs
            )
    return seen


def test_fast_path_and_oracle_share_no_code():
    # The Riemann-Siegel route and the Euler-Maclaurin oracle check each
    # other only while neither calls a function of critline the other calls.
    tree = ast.parse(SOURCES["critline"])
    fast = _reachable(tree, ("_hardy_grid",))
    oracle = _reachable(tree, ("zeta_em_vec", "theta_gamma", "theta_gamma_prime"))
    assert {"_main_sum", "_rs_corrections", "theta_pair_vec"} <= fast
    assert {"_zeta_em_core", "_lgamma_vec", "_digamma_vec"} <= oracle
    assert fast.isdisjoint(oracle), sorted(fast & oracle)
