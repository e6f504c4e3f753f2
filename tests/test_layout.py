"""Source-layout checks: shared constants, the target branch and the CSV
writer each live in one module of the package, and every public name has a
caller outside the tests."""

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


def test_one_csv_writer():
    assert len(_modules_matching(r"csv\.writer\(")) == 1


def test_target_branch_only_in_critline():
    assert _modules_matching(r"""target\s*==\s*["']zeta["']""") in ([], ["critline"])


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
