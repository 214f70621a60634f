"""The benchmark's count parser, accuracy recomputation and table checks."""

import pytest

from checks import accuracy_table, check_table, parse_counts


@pytest.mark.parametrize("stage, stdout, expected", [
    ("synth", "data/manifest.json\n48 training + 150 evaluation frames\n", (198, 0)),
    ("synth", "d/manifest.json\n8 training + 25 evaluation frames, 3 skipped\n", (36, 3)),
    ("detect", "196/198 frames detected -> obs.jsonl\n", (198, 2)),
    ("estimate", "0/5 estimates -> est.csv\n", (5, 5)),
    ("estimate", "270/270 estimates -> /tmp/x y/est.csv\n", (270, 0)),
])
def test_parse_counts(stage, stdout, expected):
    assert parse_counts(stage, stdout) == expected


@pytest.mark.parametrize("stage, stdout", [
    ("synth", ""),
    ("detect", "error: no input frames (give --manifest or PGM paths)\n"),
    ("estimate", "198/198 frames detected -> obs.jsonl\n"),
])
def test_parse_counts_rejects_missing_summary(stage, stdout):
    with pytest.raises(ValueError):
        parse_counts(stage, stdout)


def test_accuracy_table_hand_worked():
    # 60 x 60 cm screen.  Half a cell is 15 cm at N=2, 10 at N=3, 7.5 at
    # N=4 and 6 at N=5, both axes, strict.
    pairs = [
        ((30.0, 30.0), (30.0, 30.0)),  # exact: correct at every N
        ((37.0, 30.0), (30.0, 30.0)),  # dx 7: correct up to N=4
        ((30.0, 20.0), (30.0, 30.0)),  # dy 10: correct at N=2 only (10 < 10 fails)
        ((44.0, 36.0), (30.0, 30.0)),  # dx 14: correct at N=2 only
    ]
    table = accuracy_table(pairs, 60.0, 60.0, ns=range(2, 6))
    assert table == [100.0, 50.0, 50.0, 25.0]


def test_check_table_accepts_a_good_table():
    assert check_table([100.0, 100.0, 99.3, 96.0, 90.0, 80.0, 70.0, 60.0, 50.0]) == []


def test_check_table_flags_each_rule():
    problems = check_table([100.0, 99.3, 99.3, 94.0, 95.0, 80.0, 70.0, 60.0, 50.0])
    assert any("non-increasing" in p for p in problems)
    assert any("N=3" in p for p in problems)
    assert any("N=5" in p for p in problems)
    assert not any("N=2" in p for p in problems)
