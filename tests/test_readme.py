"""The README's library example runs as written.

The ``python`` block under "## Library use" is read from README.md and
executed verbatim, so the documented API cannot drift from the code.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    after = README.read_text().split("\n## Library use\n", 1)[1]
    section = after.split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README's Library use section has no python block"
    return match.group(1)


def test_library_use_block_runs(capsys):
    exec(compile(library_use_block(), str(README), "exec"), {})
    verdict = capsys.readouterr().out.split()[0]
    assert verdict == "triangularly_attractive"
