"""The README's library quick start runs as written."""

import re
from pathlib import Path

from nsgraph import GalaxyRelation, Trivalent, closer_than

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    exec(compile(code, str(README), "exec"), scope)
    assert scope["in_principal_galaxy"](scope["runner"]).relation is GalaxyRelation.DIFFERENT
    chain = scope["chain"]
    assert len(chain.entries) == 11
    assert chain.entry(-1).term.params[0].value(9) == 4
    for inner, outer in zip(chain.entries, chain.entries[1:]):
        assert closer_than(chain.base, inner.hypernode, outer.hypernode) is Trivalent.TRUE
