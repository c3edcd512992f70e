"""How large a groupoid a plain benchmark pass validates.

ROADMAP's settled bullet "Each groupoid clause is one pass", with no fast
path that pays off only on large groupoids, rests on this count: no
benchmark workload validates a groupoid above 16 arrows.  One seed-1 pass
of the fixture corpus and of every generated workload of `perfbench/gen.py`
runs through `cli.main` in plain mode, and every fresh `validate_groupoid`
or `validate_order` call (one with no report kept or recorded) is noted
with the groupoid's arrow count.  A workload that validates a larger
groupoid fails here first, and with it the case for the one-pass checks.
"""

import sys
from pathlib import Path

from ogaction import validation
from ogaction.cli import main
from ogaction.corpus import emit_fixture_corpus
from ogaction.groupoids import OrderedGroupoid

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  (the generator never imports ogaction)

LARGEST = 16


def _fresh_validations(monkeypatch) -> list[tuple[str, int]]:
    """(method, arrows) for each validation that runs from here on."""
    seen = []
    for method, kept in (("validate_groupoid", "_groupoid_report"), ("validate_order", "_order_report")):
        check = getattr(OrderedGroupoid, method)

        def counted(self, check=check, kept=kept, method=method):
            if getattr(self, kept) is None:
                seen.append((method, self.n))
            return check(self)

        monkeypatch.setattr(OrderedGroupoid, method, counted)
    return seen


def test_no_plain_pass_validates_a_groupoid_above_16_arrows(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(validation, "CHECKED", False)
    seen = _fresh_validations(monkeypatch)
    sizes = {}
    for workload in ("corpus",) + gen.GENERATED:
        inputs = tmp_path / workload
        files = emit_fixture_corpus(inputs) if workload == "corpus" else gen.write_workload(workload, 1, inputs)
        seen.clear()
        for path in files:
            assert main(["run", str(path), "--out", str(tmp_path / "out" / workload / path.stem)]) == 0
        sizes[workload] = sorted({n for _, n in seen})
    capsys.readouterr()
    assert all(n <= LARGEST for ns in sizes.values() for n in ns), sizes
    # The count sees the validations: the glob ladder's top rung is the largest.
    assert sizes["glob_ladder"][-1] == LARGEST, sizes
