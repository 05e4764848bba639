"""Each test module starts with empty rule memos, as a fresh process does,
and leaves them empty for the modules after it."""

import pytest

import sphenergy.bounds
import sphenergy.levenshtein


@pytest.fixture(autouse=True, scope="module")
def empty_rule_memos():
    memos = (sphenergy.bounds._UPPER_RULES, sphenergy.levenshtein._LOWER_RULES)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()
