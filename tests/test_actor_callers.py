"""Every public method of the crawl-state shard actors has a caller.

Parses ``state/actors.py`` and looks for ``.<name>(`` or
``.<name>.remote(`` in the non-test code (the package, ``scripts/``,
``bench.py``, ``perfbench/``), so a second admission or probe path, or
a method nothing calls, cannot come back unnoticed."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "distributed_web_search_engine_crawler_indexing_pagerank__ray"
SHARDS = ("HostShard", "SeenShard", "FrontierShard")


def _public_methods() -> list[tuple[str, str]]:
    tree = ast.parse((PKG / "state" / "actors.py").read_text())
    return [
        (cls.name, fn.name)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in SHARDS
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
    ]


def _non_test_source() -> str:
    files = [
        *PKG.rglob("*.py"),
        *(ROOT / "scripts").rglob("*.py"),
        ROOT / "bench.py",
        *(
            p for p in (ROOT / "perfbench").rglob("*.py")
            if "tests" not in p.relative_to(ROOT / "perfbench").parts
        ),
    ]
    return "\n".join(p.read_text() for p in files)


def test_every_shard_actor_method_has_a_caller():
    methods = _public_methods()
    assert {c for c, _m in methods} == set(SHARDS)
    src = _non_test_source()
    uncalled = [
        f"{c}.{m}" for c, m in methods
        if not re.search(rf"\.{m}(\.remote)?\(", src)
    ]
    assert not uncalled, f"shard actor methods without a caller: {uncalled}"
