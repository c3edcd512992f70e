"""A plain benchmark pass takes the Morita lemmas and builds R once per run.

One seed-1 pass of the fixture corpus and of every generated workload of
`perfbench/gen.py` runs through `cli.main` in plain mode.  Each Morita call
is noted by its route: the lemmas, when 1_R is idempotent and the anchor
units of the global action are a two-sided unit of T, or the spans (read
off the names `skew` hands to `short_cut`).  The counts are pinned per
workload, so a change that loses the unit or sends a context to the spans
fails here.  The `skew` task keeps the ordered skew ring it builds for the
run's Morita tasks: `build_skew` runs once on pointed_arrow's
`restricted_swap`, which one `skew` and two `morita` tasks read.
"""

import sys
from collections import Counter
from pathlib import Path

from ogaction import skew, tasks, validation
from ogaction.cli import main
from ogaction.corpus import emit_fixture_corpus

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  (the generator never imports ogaction)

ROUTES = {
    "corpus": {"lemmas": 3},
    "glob_ladder": {"lemmas": 2},
    "inv_monoid": {"spans": 1},
    "matrix_carrier": {},
}


def test_each_plain_pass_takes_the_pinned_morita_routes(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(validation, "CHECKED", False)
    real_short_cut, real_build = skew.short_cut, skew.build_skew
    routes, builds = Counter(), Counter()

    def noted(name, fast, full):
        if name.startswith("MOR(unital)"):
            routes["spans" if fast is None else "lemmas"] += 1
        return real_short_cut(name, fast, full)

    def counted(a):
        builds[a.name] += 1
        return real_build(a)

    monkeypatch.setattr(skew, "short_cut", noted)
    monkeypatch.setattr(skew, "build_skew", counted)
    monkeypatch.setattr(tasks, "build_skew", counted)
    seen, arrow_builds = {}, None
    for workload in ROUTES:
        inputs = tmp_path / workload
        files = emit_fixture_corpus(inputs) if workload == "corpus" else gen.write_workload(workload, 1, inputs)
        routes.clear()
        for path in files:
            builds.clear()
            assert main(["run", str(path), "--out", str(tmp_path / "out" / workload / path.stem)]) == 0
            if path.name == "pointed_arrow.json":
                arrow_builds = builds["restricted_swap"]
        seen[workload] = dict(routes)
    capsys.readouterr()
    assert seen == ROUTES
    assert arrow_builds == 1
