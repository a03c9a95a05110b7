"""The BENCH record writer merges by record name.

A partial benchmark run (one test, one file) must refresh only the
records it measured and keep every other committed record.
"""

import json
import os
import shutil

from conftest import _dump

BENCH_DIR = os.path.dirname(__file__)


def test_dump_one_record_keeps_the_others(tmp_path):
    path = tmp_path / "BENCH_energy.json"
    shutil.copy(os.path.join(BENCH_DIR, "BENCH_energy.json"), path)
    committed = json.loads(path.read_text())
    names = set(committed) - {"_meta"}
    assert len(names) >= 2

    refreshed = sorted(names)[0]
    _dump({refreshed: {"speedup": 2.0}}, str(path))

    merged = json.loads(path.read_text())
    assert set(merged) == set(committed)
    assert merged[refreshed] == {"speedup": 2.0}
    for name in names - {refreshed}:
        assert merged[name] == committed[name]
