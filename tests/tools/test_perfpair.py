"""The paired-run verdict of ``tools/perfpair.py`` (no benchmark is run)."""

from tools.perfpair import quartiles, summarize


def test_quartiles_inclusive():
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_claim_needs_nine_in_ten_wins_and_a_gain_beyond_the_parent_iqr():
    parent = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]
    clear = summarize("stages_per_s", "higher", parent, [p + 20.0 for p in parent])
    assert clear["wins"] == 10 and clear["claimable"]
    # Wins every pair, but by less than the parent's own spread.
    small = summarize("stages_per_s", "higher", parent, [p + 1.0 for p in parent])
    assert small["wins"] == 10 and not small["claimable"]
    # A large median gain with two lost pairs (ties count for neither side).
    lost = [p + 20.0 for p in parent[:8]] + parent[8:]
    assert not summarize("stages_per_s", "higher", parent, lost)["claimable"]


def test_lower_is_better_metrics_win_by_falling():
    parent = [3.0, 3.1, 3.0, 3.2, 3.1]
    result = summarize("peak_mem_mb", "lower", parent, [2.0, 2.1, 2.0, 2.2, 2.1])
    assert result["wins"] == 5 and result["claimable"]
    assert result["relative_gain"] > 0.3
