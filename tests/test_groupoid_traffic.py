"""How large a groupoid a plain benchmark pass validates or tabulates.

ROADMAP's settled bullet "Each groupoid clause is one pass", with no fast
path that pays off only on large groupoids, rests on these counts: no
benchmark workload validates a groupoid above 16 arrows, or builds the
pseudoproduct table of one.  One seed-1 pass of the fixture corpus and of
every generated workload of `perfbench/gen.py` runs through `cli.main` in
plain mode.  Every fresh `validate_groupoid` or `validate_order` call (one
with no report kept or recorded) and every fresh `_pseudoproducts` build
(one with no table kept) is noted with the groupoid's arrow count.  A
workload that validates or tabulates a larger groupoid fails here first,
and with it the case for the one-pass checks and the per-entry table.
"""

import sys
from functools import cached_property
from pathlib import Path

from ogaction import validation
from ogaction.cli import main
from ogaction.corpus import emit_fixture_corpus
from ogaction.groupoids import OrderedGroupoid

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  (the generator never imports ogaction)

LARGEST = 16


def _fresh_validations(monkeypatch) -> list[int]:
    """The arrow count of each validation that runs from here on."""
    seen = []
    for method, kept in (("validate_groupoid", "_groupoid_report"), ("validate_order", "_order_report")):
        check = getattr(OrderedGroupoid, method)

        def counted(self, check=check, kept=kept):
            if getattr(self, kept) is None:
                seen.append(self.n)
            return check(self)

        monkeypatch.setattr(OrderedGroupoid, method, counted)
    return seen


def _fresh_tables(monkeypatch) -> list[int]:
    """The arrow count of each pseudoproduct table built from here on (a
    kept table is read from the instance and never reaches `counted`)."""
    seen = []
    build = OrderedGroupoid._pseudoproducts.func

    def counted(self):
        seen.append(self.n)
        return build(self)

    table = cached_property(counted)
    table.__set_name__(OrderedGroupoid, "_pseudoproducts")
    monkeypatch.setattr(OrderedGroupoid, "_pseudoproducts", table)
    return seen


def _sizes_per_workload(tmp_path, seen: list[int]) -> dict[str, list[int]]:
    """One plain seed-1 pass of the corpus and of every generated workload:
    the distinct arrow counts `seen` gains during each workload's pass."""
    sizes = {}
    for workload in ("corpus",) + gen.GENERATED:
        inputs = tmp_path / workload
        files = emit_fixture_corpus(inputs) if workload == "corpus" else gen.write_workload(workload, 1, inputs)
        seen.clear()
        for path in files:
            assert main(["run", str(path), "--out", str(tmp_path / "out" / workload / path.stem)]) == 0
        sizes[workload] = sorted(set(seen))
    return sizes


def test_no_plain_pass_validates_a_groupoid_above_16_arrows(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(validation, "CHECKED", False)
    sizes = _sizes_per_workload(tmp_path, _fresh_validations(monkeypatch))
    capsys.readouterr()
    assert all(n <= LARGEST for ns in sizes.values() for n in ns), sizes
    # The count sees the validations: the glob ladder's top rung is the largest.
    assert sizes["glob_ladder"][-1] == LARGEST, sizes


def test_no_plain_pass_tabulates_the_pseudoproducts_of_a_groupoid_above_16_arrows(tmp_path, monkeypatch, capsys):
    """`esn_to_semigroup(esn_to_groupoid(s))` returns s with no table formed,
    so inv_monoid's ESN groupoids of I_3 and I_4 never reach the count."""
    monkeypatch.setattr(validation, "CHECKED", False)
    sizes = _sizes_per_workload(tmp_path, _fresh_tables(monkeypatch))
    capsys.readouterr()
    assert all(n <= LARGEST for ns in sizes.values() for n in ns), sizes
    # The count sees the builds: the glob ladder's top rung is the largest.
    assert LARGEST in sizes["glob_ladder"], sizes
