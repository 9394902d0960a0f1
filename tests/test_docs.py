"""The range rule as the README and the harness's comment state it, checked
against `harness.STACK_BUDGET` with the standard library only."""

import re
from pathlib import Path

import pytest

from implinear import harness

ROOT = Path(__file__).resolve().parents[1]

# (file, pattern): the budget's exponent where the text gives it, then the
# trials at one p and the p from which a range holds one trial
STATEMENTS = {
    "README": (ROOT / "README.md",
               r"a range holds `max\(1, 2\^(\d+) // p\^2\)` trials \((\d+) at `p = (\d+)`, "
               r"one from `p = (\d+)` on\)"),
    "harness": (Path(harness.__file__),
                r"# T \* p\^2 doubles: (\d+) recover trials at p = (\d+), one trial from "
                r"p = (\d+) on\.\s*STACK_BUDGET = 2\*\*(\d+)"),
}


def stated(name: str) -> tuple[int, int, int, int]:
    """(exponent, trials, p, one_from) as the text states them."""
    path, pattern = STATEMENTS[name]
    text = " ".join(path.read_text(encoding="utf-8").split())  # reflowed lines
    match = re.search(pattern.replace(r"\s*", " "), text)
    assert match, f"{path.name} no longer states the range rule in the checked form"
    numbers = [int(g) for g in match.groups()]
    return tuple(numbers if name == "README" else numbers[-1:] + numbers[:-1])


@pytest.mark.parametrize("name", STATEMENTS)
def test_stated_range_sizes_follow_the_stack_budget(name):
    exponent, trials, p, one_from = stated(name)
    budget = harness.STACK_BUDGET
    assert 2**exponent == budget
    assert max(1, budget // p**2) == trials
    # one trial per range from one_from on, and more just below it
    assert budget // one_from**2 == 1 and budget // (one_from - 1) ** 2 > 1
