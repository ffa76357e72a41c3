"""README's Library example runs against the package, and each of its
comments that is a Python literal is the value of the line it annotates."""

from __future__ import annotations

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs_and_its_values_hold():
    block = _library_block()
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expr = compile(code.strip(), str(README), "eval")
            expected = ast.literal_eval(comment.strip())
        except (SyntaxError, ValueError):
            continue
        assert eval(expr, namespace) == expected, line
        checked += 1
    assert checked >= 4
