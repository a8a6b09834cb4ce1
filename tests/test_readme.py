"""README examples run as written, so the documented API cannot drift."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python block"
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(blocks[0], str(README), "exec"), {})
