"""Mutation test of the ledger's and the chaincode's admission rules.

    PYTHONPATH=src python tests/mutants.py [--list] [--only TEXT]

Each mutant changes one site of one function in TARGETS: a comparison
operator is flipped (< and <=, > and >=, == and !=, in and not in, is and
is not), a `raise` becomes `pass`, or a `not` is dropped. The harness copies
the package, the tests and pyproject.toml to a temporary directory, writes
the mutated module there (through ast.unparse) and runs TEST_FILES on it
with `pytest -x`. A mutant that no test fails survives. The harness prints
each survivor, marks those that EQUIVALENT explains, and exits 1 when any
other survives. `--list` prints the mutants without running them; `--only`
runs those whose label contains TEXT.

It takes minutes, so tier-1 does not run it, and pytest does not collect
this file. A change to an admission rule runs it and reports the survivors.
Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TARGETS = {
    "ledger.py": ("LedgerState.commit", "AssetChaincode.apply", "_verify", "_public_key",
                  "Certificate.decode", "read_lp", "_check_log_field", "replay_audit_log"),
    "pol.py": ("PolChaincode.apply", "decode_pol_request", "decode_pol_verdict",
               "route_records"),
}
TEST_FILES = tuple(f"tests/test_{name}.py" for name in ("ledger", "pol", "hostile", "golden", "sim"))
FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.Is: ast.IsNot, ast.IsNot: ast.Is}

# Survivors that tier-1 leaves alive on purpose, by label, each with the reason.
EQUIVALENT = {
    "_verify: 0 < r < _ORDER -> 0 <= r < _ORDER": "OpenSSL refuses r = 0 itself",
    "_verify: 0 < r < _ORDER -> 0 < r <= _ORDER": "OpenSSL refuses r = n itself",
    "_verify: 0 < s <= _ORDER // 2 -> 0 <= s <= _ORDER // 2": "OpenSSL refuses s = 0 itself",
    "_verify: 0 < s <= _ORDER // 2 -> 0 < s < _ORDER // 2":
        "only a signature with s = (n - 1) / 2 tells the two apart; a test would have to "
        "recover a key for it with point arithmetic that `cryptography` does not expose",
    "decode_pol_request: len(payload) < 16 -> len(payload) <= 16":
        "a 16-byte payload then fails read_lps at offset 16, with another message",
    "decode_pol_request: raise ValueError('request payload too short') -> pass":
        "a payload under 16 bytes then fails read_lps at offset 16, with another message",
    "read_lp: raise ValueError('truncated length-prefixed field') -> pass":
        "each caller checks the bytes after the field, and refuses a short one with another message",
}


@dataclass(frozen=True)
class Mutant:
    module: str  # file name under src/uwbpol
    function: str
    site: int  # index among the function's sites, in _sites order
    label: str  # "function: before -> after", stable across line moves
    line: int


def _function(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    nodes = tree.body
    *owners, name = qualname.split(".")
    for owner in owners:
        nodes = next(n for n in nodes if isinstance(n, ast.ClassDef) and n.name == owner).body
    return next(n for n in nodes if isinstance(n, ast.FunctionDef) and n.name == name)


def _sites(function: ast.FunctionDef):
    """(node, how) for every mutable site: how is an op index of a Compare, or None."""
    for node in ast.walk(function):
        if isinstance(node, ast.Compare):
            yield from ((node, i) for i, op in enumerate(node.ops) if type(op) in FLIPS)
        elif isinstance(node, ast.Raise) or (
                isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)):
            yield node, None


class _Replace(ast.NodeTransformer):
    def __init__(self, target: ast.AST, replacement: ast.AST):
        self.target, self.replacement = target, replacement

    def visit(self, node):
        return self.replacement if node is self.target else self.generic_visit(node)


def _mutate(tree: ast.Module, function: str, site: int) -> tuple[str, str, int]:
    """Apply one mutant to tree in place; return its (before, after, line)."""
    fn = _function(tree, function)
    node, how = list(_sites(fn))[site]
    before = ast.unparse(node)
    if how is not None:
        node.ops[how] = FLIPS[type(node.ops[how])]()
        return before, ast.unparse(node), node.lineno
    if isinstance(node, ast.Raise):
        _Replace(node, ast.copy_location(ast.Pass(), node)).visit(fn)
        return before, "pass", node.lineno
    _Replace(node, node.operand).visit(fn)
    return before, ast.unparse(node.operand), node.lineno


def mutants() -> list[Mutant]:
    out = []
    for module, functions in TARGETS.items():
        source = (ROOT / "src" / "uwbpol" / module).read_text(encoding="utf-8")
        for function in functions:
            count = len(list(_sites(_function(ast.parse(source), function))))
            seen: dict[str, int] = {}
            for site in range(count):
                before, after, line = _mutate(ast.parse(source), function, site)
                label = f"{function}: {before} -> {after}"
                seen[label] = seen.get(label, 0) + 1
                if seen[label] > 1:
                    label += f" #{seen[label]}"
                out.append(Mutant(module, function, site, label, line))
    return out


def _copy_tree(into: Path) -> None:
    shutil.copytree(ROOT / "src", into / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(ROOT / "tests", into / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def _passes(work: Path) -> bool:
    """Whether TEST_FILES all pass on the package under work."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TEST_FILES],
        cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode == 0


def _write(work: Path, module: str, source: str) -> None:
    (work / "src" / "uwbpol" / module).write_text(source, encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="print the mutants and stop")
    parser.add_argument("--only", default="", help="run the mutants whose label has this text")
    args = parser.parse_args(argv)
    selected = [m for m in mutants() if args.only in m.label]
    if args.list:
        for m in selected:
            print(f"{m.module}:{m.line}  {m.label}")
        return 0
    sources = {module: (ROOT / "src" / "uwbpol" / module).read_text(encoding="utf-8")
               for module in TARGETS}
    unmutated = {module: ast.unparse(ast.parse(source))  # unparsed, as every mutant is
                 for module, source in sources.items()}
    with tempfile.TemporaryDirectory(prefix="uwbpol-mutants-") as tmp:
        work = Path(tmp)
        _copy_tree(work)
        for module, source in unmutated.items():
            _write(work, module, source)
        if not _passes(work):
            print("the unmutated package fails the tests; no mutant was run")
            return 2
        survivors = []
        for i, m in enumerate(selected, start=1):
            tree = ast.parse(sources[m.module])
            _mutate(tree, m.function, m.site)
            _write(work, m.module, ast.unparse(tree))
            killed = not _passes(work)
            _write(work, m.module, unmutated[m.module])
            print(f"[{i}/{len(selected)}] {'killed ' if killed else 'SURVIVED'} "
                  f"{m.module}:{m.line}  {m.label}", flush=True)
            if not killed:
                survivors.append(m)
    unexplained = [m for m in survivors if m.label not in EQUIVALENT]
    print(f"\n{len(selected)} mutants, {len(survivors)} survived, "
          f"{len(survivors) - len(unexplained)} of them known equivalent")
    for m in survivors:
        reason = EQUIVALENT.get(m.label)
        print(f"  {m.module}:{m.line}  {m.label}" + (f"  [equivalent: {reason}]" if reason else ""))
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
