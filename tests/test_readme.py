"""The README's examples: every name its Python blocks import from
``ksubmax`` is exported, every ``ksub`` line parses, the ``check`` lines
exit with the code annotated next to them (0 when none is), and the
``maximize`` lines exit 0 with one JSON document."""

import ast
import json
import re
import shlex
from pathlib import Path

import ksubmax
from ksubmax.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def bash_blocks():
    return re.findall(r"```bash\n(.*?)```", README.read_text(), re.S)


def test_python_imports_are_exported():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    names = {alias.name for block in blocks for node in ast.walk(ast.parse(block))
             if isinstance(node, ast.ImportFrom) and node.module == "ksubmax"
             for alias in node.names}
    assert names
    assert names <= set(ksubmax.__all__), names - set(ksubmax.__all__)


def ksub_lines():
    return [line for block in bash_blocks() for line in block.splitlines()
            if line.startswith("ksub ")]


def argv(line):
    return shlex.split(line, comments=True)[1:]


def test_every_ksub_example_parses():
    lines = ksub_lines()
    assert lines
    parser = build_parser()
    for line in lines:
        parser.parse_args(argv(line))


def write_heredocs(directory):
    heredoc = re.compile(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF$", re.S | re.M)
    for name, body in heredoc.findall("".join(bash_blocks())):
        (directory / name).write_text(body)


def test_check_examples_exit_as_annotated(tmp_path, monkeypatch, capsys):
    write_heredocs(tmp_path)
    monkeypatch.chdir(tmp_path)
    checks = [line for line in ksub_lines() if line.startswith("ksub check ")]
    assert len(checks) == 3
    for line in checks:
        stated = re.search(r"# exit (\d)", line)
        assert main(argv(line)) == (int(stated.group(1)) if stated else 0), line


def test_maximize_examples_print_one_document(tmp_path, monkeypatch, capsys):
    write_heredocs(tmp_path)
    monkeypatch.chdir(tmp_path)
    # the 100,000-trial line is left out: it takes seconds, not milliseconds
    runs = [line for line in ksub_lines()
            if line.startswith("ksub maximize ") and "--trials" not in line]
    assert len(runs) == 3
    for line in runs:
        assert main(argv(line)) == 0, line
        assert isinstance(json.loads(capsys.readouterr().out), dict), line
