"""README's "Library" block, run as written, against the values its comments state."""

import ast
import re

from tests.test_cli import ROOT


def library_results():
    """(value, comment) for each expression statement of the block, in order.

    A statement's comment is the text after `#` on its line, or else the
    comment line right below it.
    """
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    namespace, out = {}, []
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        line = lines[node.end_lineno - 1]
        if "#" not in line:
            line = lines[node.end_lineno]
        out.append((value, line.split("#", 1)[1].strip()))
    return out


def test_library_block_matches_its_comments():
    (r11, c11), (r23, c23), (capped, ccap), (bound_set, cset), (positions, cpos) = library_results()
    assert (r11, r23, capped) == (2, 7, 2)
    assert [c.split(";")[0] for c in (c11, c23, ccap)] == ["2", "7", "2"]
    assert cset == "all (a, b) with a + b <= 3"
    assert set(bound_set) == {(a, b) for a in range(4) for b in range(4) if a + b <= 3}
    assert len(bound_set) == 10
    assert positions == ast.literal_eval(cpos.split(":")[0])
    assert positions == [(0, (0, 0), 1), (1, (0, 2), 1), (1, (2, 0), 1), (2, (2, 2), 1)]
