"""The README's library quick start runs, and each documented result holds."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    text = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", text, re.S).group(1)


def test_quick_start_results():
    source = quick_start_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        # the documented result: a comment after the expression, or on the next line
        rest = lines[node.end_lineno - 1][node.end_col_offset:].strip()
        if not rest and node.end_lineno < len(lines):
            rest = lines[node.end_lineno].strip()
        assert rest.startswith("# "), f"no documented result for line {node.lineno}"
        documented = rest[2:]
        shown = repr(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        # the result, optionally followed by a colon and a note
        assert re.fullmatch(re.escape(shown) + "(:.*)?", documented), (node.lineno, shown)
        checked += 1
    assert checked == 5
