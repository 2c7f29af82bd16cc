"""The README's Library example runs as documented."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
