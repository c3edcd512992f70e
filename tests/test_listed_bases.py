"""A map listed over the RREF bases of its ideals is read as its matrix.

`workspace._parse_family` builds a map straight from the listed matrix
when the rows listed at both ends are the RREF bases of their subspaces;
any other listing takes the loop that spans the listed images and splits
[rows | images].  These tests relist every fixture action on the same
subspaces (rows permuted, rows that are not in RREF, duplicated rows,
entries outside [0, p)) and check that each listing parses to the
action's own ideals and maps, that contradicting images and a row of the
wrong width keep their load errors, and that a short cut made to lie is
believed in plain mode and raises in checked mode.
"""

import random

import pytest

from ogaction import validation, workspace
from ogaction.actions import Action
from ogaction.errors import WorkspaceError
from ogaction.linalg import LinMap, Subspace
from ogaction.workspace import _parse_family

from generators import fixture_builders

ACTIONS = [(label, a) for label, make in fixture_builders() if isinstance(a := make(), Action)]
LISTINGS = ("canonical", "permuted", "not in RREF", "duplicated", "unreduced")


def _times(left, right, p):
    return [[sum(x * right[k][j] for k, x in enumerate(row)) % p for j in range(len(right[0]))] for row in left]


def _invertible(rng, r, p, permutation):
    """An invertible r x r matrix over F_p and its inverse."""
    while True:
        if permutation:
            order = rng.sample(range(r), r)
            m = [[int(j == order[i]) for j in range(r)] for i in range(r)]
        else:
            m = [[rng.randrange(p) for _ in range(r)] for _ in range(r)]
        if Subspace.span(r, m, p).rank == r:
            full = Subspace.full(r, p)
            return m, [list(row) for row in LinMap(full, full, m).inverse().matrix]


def _doc(a, listing, rng):
    """The action's family as a document, listed as `listing`: each ideal
    on P_g B_g for the RREF basis B_g and an invertible P_g, and each map at
    g on P_{g^-1} M_g P_g^-1, so every listing spans the same maps."""
    p, inv = a.carrier.p, a.index.inv
    rows, moves = [], []
    for sub in a.ideal_of:
        basis = [list(row) for row in sub.basis]
        if listing in ("permuted", "not in RREF") and basis:
            m, back = _invertible(rng, len(basis), p, listing == "permuted")
            basis = _times(m, basis, p)
        else:
            m = back = [[int(i == j) for j in range(len(basis))] for i in range(len(basis))]
        rows.append(basis)
        moves.append((m, back))
    maps = []
    for g, f in enumerate(a.map_of):
        matrix = [list(row) for row in f.matrix]
        if matrix and matrix[0]:
            matrix = _times(_times(moves[inv[g]][0], matrix, p), moves[g][1], p)
        maps.append(matrix)
    if listing == "duplicated":
        for g, basis in enumerate(rows):
            if basis:
                k = rng.randrange(len(basis))
                basis.append(list(basis[k]))
                maps[g] = [row + [0] for row in maps[g]]
                maps[inv[g]].append(list(maps[inv[g]][k]))
    if listing == "unreduced":
        rows = [[[x + p * rng.randrange(-1, 2) for x in row] for row in basis] for basis in rows]
        maps = [[[x + p * rng.randrange(-1, 2) for x in row] for row in m] for m in maps]
    names = a.index.names
    return {"ideals": dict(zip(names, rows)), "maps": dict(zip(names, maps))}


def _parse(a, doc):
    inv = a.index.inv
    return _parse_family(doc, a.index.names, lambda i: inv[i], a.carrier, "action 'x'")


@pytest.mark.parametrize("listing", LISTINGS)
@pytest.mark.parametrize("label,a", ACTIONS, ids=[label for label, _ in ACTIONS])
def test_every_listing_parses_to_the_actions_own_maps(label, a, listing, monkeypatch):
    for checked in (False, True):
        monkeypatch.setattr(validation, "CHECKED", checked)
        for seed in range(4):
            assert _parse(a, _doc(a, listing, random.Random(seed))) == (a.ideal_of, a.map_of)


def test_the_listings_reach_the_short_cut_and_the_loop(monkeypatch):
    """The canonical listing of every action reads every matrix as listed;
    each other listing reaches the loop on some action."""
    # Checked mode runs the loop behind every short cut on purpose; the
    # count is plain mode's.
    monkeypatch.setattr(validation, "CHECKED", False)
    loops = []
    real = workspace.split_rows
    monkeypatch.setattr(workspace, "split_rows", lambda *args: loops.append(1) or real(*args))
    for listing in LISTINGS:
        for _, a in ACTIONS:
            _parse(a, _doc(a, listing, random.Random(0)))
        assert bool(loops) == (listing != "canonical"), listing
        loops.clear()


def _first_listed(a):
    """An arrow g whose ideal at g^-1 and at g are non-zero."""
    inv = a.index.inv
    return next(g for g in range(len(a.map_of)) if a.ideal_of[g].rank and a.ideal_of[inv[g]].rank)


@pytest.mark.parametrize("label,a", ACTIONS, ids=[label for label, _ in ACTIONS])
def test_contradicting_images_and_a_wrong_width_keep_their_errors(label, a):
    inv, names = a.index.inv, a.index.names
    g = _first_listed(a)
    doc = _doc(a, "canonical", random.Random(0))
    src, dst = names[inv[g]], names[g]
    # The first row of the ideal at g^-1 listed twice, with images that differ.
    doc["ideals"][src].append(list(doc["ideals"][src][0]))
    if inv[g] == g:
        doc["maps"][dst] = [row + [0] for row in doc["maps"][dst]]
    image = list(doc["maps"][dst][0])
    image[0] = (image[0] + 1) % a.carrier.p
    doc["maps"][dst].append(image)
    if inv[g] != g:
        doc["maps"][src] = [row + [0] for row in doc["maps"][src]]
    with pytest.raises(WorkspaceError, match=(
        f"action 'x': map at '{dst}' gives contradicting images on the dependent listed rows "
        f"of the ideal at '{src}'"
    )):
        _parse(a, doc)
    doc = _doc(a, "canonical", random.Random(0))
    doc["maps"][dst][0] = doc["maps"][dst][0] + [0]
    with pytest.raises(WorkspaceError, match=f"action 'x': map at '{dst}' has a row of wrong width"):
        _parse(a, doc)


class _LyingLinMap:
    """LinMap for the short cut, with every entry of its matrix moved by
    one; the loop's `LinMap.from_images` is the real one."""

    from_images = staticmethod(LinMap.from_images)

    def __new__(cls, domain, codomain, matrix):
        return LinMap(domain, codomain, tuple(tuple(x + 1 for x in row) for row in matrix))


@pytest.mark.parametrize("checked", (False, True))
def test_a_lying_short_cut_is_believed_in_plain_mode_and_raises_in_checked_mode(monkeypatch, checked):
    monkeypatch.setattr(validation, "CHECKED", checked)
    monkeypatch.setattr(workspace, "LinMap", _LyingLinMap)
    label, a = ACTIONS[0]
    doc = _doc(a, "canonical", random.Random(0))
    if checked:
        with pytest.raises(AssertionError, match="short cut 'listed RREF bases' disagrees"):
            _parse(a, doc)
    else:
        ideals, maps = _parse(a, doc)
        assert ideals == a.ideal_of and maps != a.map_of, label
