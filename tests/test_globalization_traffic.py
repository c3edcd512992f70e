"""A plain benchmark pass translates by block copies alone.

Each translation gamma_g of a built globalization is a `BlockCopy`: its
`apply` and its image of a subspace reindex blocks, and its unit-row
`domain` and dense `LinMap` (`as_linmap`) are formed only on demand.  One
seed-1 pass of the fixture corpus and of every generated workload of
`perfbench/gen.py` runs through `cli.main` in plain mode, with every
`as_linmap` call and every unit-row span a block copy forms (`_blocks`,
which both `domain` and `as_linmap` read) noted.  No pass may form either,
while the glob_ladder pass applies and translates by block copies: a build
that falls back to the dense form, or meets a translated family with the
domain on every call, fails here.
"""

import sys
from pathlib import Path

from ogaction import validation
from ogaction.cli import main
from ogaction.corpus import emit_fixture_corpus
from ogaction.globalize import BlockCopy

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  (the generator never imports ogaction)

COUNTED = ("apply", "image_of", "as_linmap", "_blocks")


def _counted(monkeypatch, calls: dict[str, int]) -> None:
    for name in COUNTED:
        method = getattr(BlockCopy, name)

        def counted(self, *args, method=method, name=name):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(BlockCopy, name, counted)


def test_no_plain_pass_forms_a_dense_translation(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(validation, "CHECKED", False)
    calls = dict.fromkeys(COUNTED, 0)
    _counted(monkeypatch, calls)
    seen = {}
    for workload in ("corpus",) + gen.GENERATED:
        inputs = tmp_path / workload
        files = emit_fixture_corpus(inputs) if workload == "corpus" else gen.write_workload(workload, 1, inputs)
        calls.update(dict.fromkeys(COUNTED, 0))
        for path in files:
            assert main(["run", str(path), "--out", str(tmp_path / "out" / workload / path.stem)]) == 0
        seen[workload] = dict(calls)
    capsys.readouterr()
    assert all(c["as_linmap"] == 0 and c["_blocks"] == 0 for c in seen.values()), seen
    # The count sees the translations: the glob ladder applies and translates by them.
    assert seen["glob_ladder"]["apply"] > 0 and seen["glob_ladder"]["image_of"] > 0, seen
