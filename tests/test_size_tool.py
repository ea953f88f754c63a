import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "size.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("size_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parser_tokens_skip_comments_and_blank_lines():
    tool = load_tool()
    # ENCODING, x, =, 1, NEWLINE, ENDMARKER
    assert tool.parser_tokens(b"x = 1\n") == 6
    assert tool.parser_tokens(b"# a comment\n\nx = 1  # another\n\n") == 6
    # a docstring is one token; INDENT and DEDENT count
    block = b'def f():\n    """Doc\n    string."""\n    return 1\n'
    # ENCODING, def, f, (, ), :, NEWLINE, INDENT, STRING, NEWLINE, return, 1,
    # NEWLINE, DEDENT, ENDMARKER
    assert tool.parser_tokens(block) == 15


def test_table_has_a_line_per_module_and_totals(tmp_path, capsys):
    tool = load_tool()
    package = tmp_path / "timefuel"
    package.mkdir()
    (package / "b.py").write_bytes(b"x = 1\n\n# note\n")
    (package / "a.py").write_bytes(b"y = 2\n")
    (package / "notes.txt").write_bytes(b"not a module\n")
    assert tool.main(["--src", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a.py\t1\t6\nb.py\t3\t6\ntotal\t4\t12\n"
