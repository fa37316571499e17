"""README's "Library in brief" block runs as written, and every call in
it that carries a comment returns what the comment shows."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def brief_block() -> str:
    section = README.read_text().split("## Library in brief", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_in_brief_matches_its_comments():
    src = brief_block()
    lines = src.splitlines()
    env = {}
    shown = 0
    for stmt in ast.parse(src).body:
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        if not comment:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), env)
            continue
        assert isinstance(stmt, ast.Expr) and comment.startswith("#"), comment
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), env)
        assert got == ast.literal_eval(comment[1:].strip()), ast.unparse(stmt)
        shown += 1
    # every comment in the block sits after a call it shows
    assert shown == src.count("#") > 0
