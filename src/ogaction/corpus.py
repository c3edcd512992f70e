"""Canonical workspace files for the fixture corpus, with the tasks each
one is expected to run."""

from __future__ import annotations

from pathlib import Path

from . import fixtures as fx
from .workspace import (
    action_to_json,
    algebra_to_json,
    dump_workspace_doc,
    groupoid_to_json,
    inv_action_to_json,
    semigroup_to_json,
)


def _pointed_arrow_doc() -> dict:
    beta = fx.pointed_arrow_global_action()
    alpha = fx.pointed_arrow_partial_action()
    return {
        "algebras": {
            "three_block": algebra_to_json(beta.carrier),
            "two_block": algebra_to_json(alpha.carrier),
        },
        "groupoids": {"pointed_arrow": groupoid_to_json(beta.structure)},
        "actions": {
            "block_swap": action_to_json(beta, "pointed_arrow", "three_block"),
            "restricted_swap": action_to_json(alpha, "pointed_arrow", "two_block"),
        },
        "tasks": [
            {"id": "validate-groupoid", "task": "validate-groupoid", "groupoid": "pointed_arrow"},
            {"id": "validate-global", "task": "validate-action", "action": "block_swap"},
            {"id": "validate-restricted", "task": "validate-action", "action": "restricted_swap"},
            {
                "id": "restrict",
                "task": "restrict",
                "action": "block_swap",
                "ideal": [[0, 1, 0], [0, 0, 1]],
            },
            {"id": "strong-check", "task": "strong-check", "action": "restricted_swap"},
            {"id": "globalize", "task": "globalize", "action": "restricted_swap"},
            {
                "id": "globalize-minimal",
                "task": "globalize",
                "action": "restricted_swap",
                "minimal": True,
            },
            {"id": "skew-ordered", "task": "skew", "action": "restricted_swap", "ordered": True},
            {"id": "morita", "task": "morita", "action": "restricted_swap"},
            {
                "id": "morita-minimal",
                "task": "morita",
                "action": "restricted_swap",
                "minimal": True,
            },
            {"id": "esn", "task": "esn", "groupoid": "pointed_arrow"},
            {
                "id": "equivalence-self",
                "task": "equivalence",
                "left": "block_swap",
                "right": "block_swap",
                "expect": "found",
            },
        ],
    }


def _stacked_involutions_doc() -> dict:
    a = fx.stacked_involutions_action()
    return {
        "algebras": {"four_block": algebra_to_json(a.carrier)},
        "groupoids": {"stacked_involutions": groupoid_to_json(a.structure)},
        "actions": {
            "stacked_action": action_to_json(a, "stacked_involutions", "four_block")
        },
        "tasks": [
            {
                "id": "validate-groupoid",
                "task": "validate-groupoid",
                "groupoid": "stacked_involutions",
            },
            {"id": "validate-action", "task": "validate-action", "action": "stacked_action"},
            {"id": "strong-check", "task": "strong-check", "action": "stacked_action"},
            {"id": "globalize", "task": "globalize", "action": "stacked_action"},
            {
                "id": "globalize-minimal",
                "task": "globalize",
                "action": "stacked_action",
                "minimal": True,
                "expect_error": "NotStrong",
            },
            {"id": "skew-ordered", "task": "skew", "action": "stacked_action", "ordered": True},
            {"id": "esn", "task": "esn", "groupoid": "stacked_involutions"},
        ],
    }


def _brandt_doc() -> dict:
    a = fx.brandt_action()
    return {
        "algebras": {"three_block": algebra_to_json(a.carrier)},
        "semigroups": {"brandt_b2": semigroup_to_json(a.structure)},
        "inv_actions": {"block_swap_b2": inv_action_to_json(a, "brandt_b2", "three_block")},
        "tasks": [
            {"id": "validate-action", "task": "validate-action", "inv_action": "block_swap_b2"},
            {"id": "esn", "task": "esn", "semigroup": "brandt_b2"},
            {
                "id": "inv-pipeline",
                "task": "inv-pipeline",
                "inv_action": "block_swap_b2",
                "with_morita": True,
            },
        ],
    }


def _semilattice_doc() -> dict:
    a = fx.chain_semilattice_action()
    return {
        "algebras": {"two_block": algebra_to_json(a.carrier)},
        "semigroups": {"chain": semigroup_to_json(a.structure)},
        "inv_actions": {"trivial_chain": inv_action_to_json(a, "chain", "two_block")},
        "tasks": [
            {"id": "validate-action", "task": "validate-action", "inv_action": "trivial_chain"},
            {"id": "esn", "task": "esn", "semigroup": "chain"},
            {"id": "inv-pipeline", "task": "inv-pipeline", "inv_action": "trivial_chain"},
        ],
    }


def _nilpotent_edge_doc() -> dict:
    a = fx.nilpotent_edge_action()
    return {
        "algebras": {"dual_numbers": algebra_to_json(a.carrier)},
        "semigroups": {"order_two_group": semigroup_to_json(a.structure)},
        "inv_actions": {
            "square_zero_edge": inv_action_to_json(a, "order_two_group", "dual_numbers")
        },
        "tasks": [
            {"id": "validate-action", "task": "validate-action", "inv_action": "square_zero_edge"},
            {
                "id": "inv-pipeline",
                "task": "inv-pipeline",
                "inv_action": "square_zero_edge",
                "expect_error": "NotUnital",
            },
        ],
    }


CORPUS = {
    "pointed_arrow.json": _pointed_arrow_doc,
    "stacked_involutions.json": _stacked_involutions_doc,
    "brandt_b2.json": _brandt_doc,
    "semilattice.json": _semilattice_doc,
    "nilpotent_edge.json": _nilpotent_edge_doc,
}


def emit_fixture_corpus(directory: str | Path) -> list[Path]:
    """Write every fixture workspace into the directory; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, builder in sorted(CORPUS.items()):
        path = directory / name
        dump_workspace_doc(builder(), path)
        written.append(path)
    return written
