"""The README's Python API example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_python_api_example_prints_its_comments():
    section = README.read_text(encoding="utf-8").split(
        "\n## Python API\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = re.findall(r"^print\(.*\)\s+# (.+)$", block, re.M)
    assert expected and len(expected) == block.count("print(")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
