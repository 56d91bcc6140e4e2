"""The committed output corpus of tools/outputs.py against a fresh run."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "outputs.py"


def test_outputs_match_the_committed_corpus(assert_matches_golden):
    """Line for line: each label (the text before the first colon) exactly,
    and its values by the golden rule.  A change that moves a reported
    value regenerates tests/data/outputs.txt with the tool and lists the
    moved lines."""
    spec = importlib.util.spec_from_file_location("outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    got, want = tool.corpus(), tool.CORPUS.read_text().splitlines()
    assert [line.partition(":")[0] for line in got] == [line.partition(":")[0] for line in want]
    for line, committed in zip(got, want):
        assert_matches_golden(line.partition(":")[2], committed.partition(":")[2], line)
