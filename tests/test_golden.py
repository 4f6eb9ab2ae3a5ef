"""Every CLI output of the golden corpus is unchanged, byte for byte.

See ``tests/golden.py`` for the corpus and how to regenerate it.
"""

import json

from golden import GOLDEN, corpus


def test_cli_outputs_match_golden_corpus():
    want = json.loads(GOLDEN.read_text())
    got = corpus()
    assert got.keys() == want.keys()
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"
