import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    # the README's library example is run as written, so a change to the
    # public API cannot leave it broken
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block, = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    exec(compile(block, str(README), "exec"), {})
