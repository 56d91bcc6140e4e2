"""The committed output corpus of tools/outputs.py against a fresh run."""


def test_outputs_match_the_committed_corpus(assert_matches_golden, outputs_tool):
    """Line for line: each label (the text before the first colon) exactly,
    and its values by the golden rule.  A change that moves a reported
    value regenerates tests/data/outputs.txt with the tool and lists the
    moved lines."""
    got, want = outputs_tool.corpus(), outputs_tool.CORPUS.read_text().splitlines()
    assert [line.partition(":")[0] for line in got] == [line.partition(":")[0] for line in want]
    for line, committed in zip(got, want):
        assert_matches_golden(line.partition(":")[2], committed.partition(":")[2], line)


def test_the_diff_summary_counts_lines_and_judges_each_pair(outputs_tool):
    """The summary line of --against: how many lines differ, the largest
    relative move of a paired number, and whether every line kept its
    label, text and count of numbers with each number within 1e-12
    max(1, |old|)."""
    summary = outputs_tool.summary
    old = ["a 1: 1.0 2.5e-3 inf", "b: 0.5 \"text\"", "c 2: 3.0", "d: {\"l\": 2}"]
    moved = ["a 1: 1.0000000000001 2.5e-3 inf", "b: 0.5 \"text\"", "c 2: 3.0000000000003", "d: {\"l\": 2}"]
    assert summary(old, old) == ("summary: 0 lines differ; largest relative move 0; every line keeps its label, "
                                 "text and count of numbers, each number within 1e-12 max(1, |old|): yes")
    assert summary(old, moved).startswith("summary: 2 lines differ; largest relative move 1e-13; ")
    assert summary(old, moved).endswith(": yes")
    for broken in (
        ["a 1: 1.0000000001 2.5e-3 inf"] + old[1:],  # a move of 1e-10
        ["a 1: 1.0 2.5e-3 nan"] + old[1:],  # text changed
        ["a 1: 1.0 2.5e-3"] + old[1:],  # one number fewer
        ["a 3: 1.0 2.5e-3 inf"] + old[1:],  # label changed
        old[:2] + ["c 2: 3.0 4.0"] + old[3:] + ["e: 1"],  # a line added
        old[:3],  # a line dropped
    ):
        assert summary(old, broken).endswith(": no"), broken
    assert summary(old, old[:2] + ["c 2: 3.0 4.0"] + old[3:] + ["e: 1"]).startswith("summary: 2 lines differ;")
    assert "largest relative move 1e-10;" in summary(old, ["a 1: 1.0000000001 2.5e-3 inf"] + old[1:])
