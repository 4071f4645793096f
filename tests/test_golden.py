"""Seeded CLI output stays byte-identical: every entry of the golden corpus.

``golden.json`` pins each command's exit code and stdout hash (see
``golden.py``, which regenerates it).  A change that declares an output or
stream change regenerates the manifest and lists the entries that moved.
"""

import json

import numpy as np

import golden

MANIFEST = json.loads(golden.MANIFEST.read_text())


def test_corpus_reproduces(tmp_path):
    made_with = MANIFEST["numpy"]
    assert np.__version__ == made_with, (
        f"the corpus was made with numpy {made_with}, this is numpy {np.__version__}: "
        "Generator streams may differ, so regenerate it with tests/golden.py"
    )
    changed = [e["argv"] for e in MANIFEST["entries"] if golden.run(e["argv"], tmp_path) != e]
    assert changed == []
