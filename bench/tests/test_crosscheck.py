"""The exact counters repeat and reproduce the ROADMAP baseline (about a minute)."""

import os

import crosscheck

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_counts_repeat_and_match_the_baseline():
    assert crosscheck.check(ROOT) == []
