"""The README's library example runs, and prints what its comments say."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    lines = block.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        # an expression line ends in "# <repr of its value>"
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        assert repr(eval(code, namespace)) == comment, code
        checked += 1
    assert checked == 2
