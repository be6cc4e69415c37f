"""README's quick start, run as written: each python expression whose
comment starts with a Python literal must equal that literal, and every
CLI line must exit 0, print the output a comment below it gives, and write
the files it names."""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

from nordcodes import bounds
from nordcodes.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def _leading_literal(comment):
    """The value of the longest prefix of comment that is a Python literal,
    or None when no prefix is one."""
    for end in range(len(comment), 0, -1):
        try:
            return (ast.literal_eval(comment[:end].strip()),)
        except (ValueError, SyntaxError):
            continue
    return None


def test_python_quick_start():
    namespace, checked = {}, []
    for block in _blocks("python"):
        comments = {tok.start[0]: tok.string.lstrip("#").strip()
                    for tok in tokenize.generate_tokens(io.StringIO(block).readline)
                    if tok.type == tokenize.COMMENT}
        for stmt in ast.parse(block).body:
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            expected = _leading_literal(comments.get(stmt.lineno, ""))
            if expected is not None:
                assert value == expected[0], ast.unparse(stmt)
                checked.append(expected[0])
    assert checked == [4, 3, {(0, 1), (1, 0)}, ((1, 1),), 3, True, False]


def test_cli_quick_start(tmp_path, monkeypatch, capsys):
    block = next(b for b in _blocks("sh") if b.startswith("nordcodes "))
    lines = block.replace("\\\n", " ").splitlines()
    monkeypatch.chdir(tmp_path)
    ran, out = [], None
    for line in lines:
        if line.startswith("# "):
            assert "# " + out == line + "\n", line
            continue
        assert main(shlex.split(line)[1:]) == 0, line
        out = capsys.readouterr().out
        ran.append(line.split()[1])
    assert ran == ["profile", "bound", "bound", "curve", "code", "axioms"]
    assert "# d_nord=4 d_goppa=3 delta=1" in lines
    header = ",".join(bounds.CSV_HEADER) + "\n"
    assert (tmp_path / "table.csv").read_text().startswith(header)
