"""README drift guard: the library quickstart runs as printed, and every
`cc.<name>` the README mentions is public."""

import re
from pathlib import Path

import cyclecollide

README = (Path(__file__).parent.parent / "README.md").read_text()

# A comment that opens with a literal or a constructor call is the value
# the line gives: "(24, 50, ...)", "0.0793...", "Fraction(7, 18)".
_VALUE_COMMENT = re.compile(r"[-\d(]|[A-Z]\w*\(")


def _quickstart() -> list[str]:
    section = README.split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def test_quickstart_lines_give_their_values():
    namespace: dict = {}
    checked = 0
    for line in _quickstart():
        code, _, comment = line.partition("#")
        code, comment = code.strip(), comment.strip()
        if not code:
            continue
        if code.startswith(("import ", "from ")):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        if _VALUE_COMMENT.match(comment):
            want = comment.split("...", 1)[0]
            assert repr(value).startswith(want), (code, value, comment)
            checked += 1
    assert checked >= 3


def test_readme_names_only_public_names():
    named = set(re.findall(r"`cc\.(\w+)", README))
    assert named
    assert named <= set(cyclecollide.__all__), named - set(cyclecollide.__all__)
