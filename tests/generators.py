"""Randomized global ordered actions built from coordinate functors.

A component contributes a groupoid piece plus, per object, a set of
carrier coordinates and, per arrow, a coordinate bijection.  Patterns
stack components trivially, adjoin a minimum object fixed by everything,
or double a component along the order.  The resulting actions are global
and ordered by construction; tests still validate every instance.
"""

import inspect
from array import array
from itertools import combinations, permutations

import extra_fixtures as xf
from ogaction import fixtures as fx
from ogaction.actions import Action, POAction
from ogaction.algebras import Algebra, diagonal_algebra
from ogaction.groupoids import OrderedGroupoid
from ogaction.linalg import LinMap, Subspace
from ogaction.semigroups import InverseSemigroup


def _cyclic_component(k, tag):
    names = [f"{tag}{i}" for i in range(k)]
    obj = names[0]
    return {
        "names": names,
        "objects": [obj],
        "inv": {names[i]: names[(-i) % k] for i in range(k)},
        "comp": [
            (names[i], names[j], names[(i + j) % k]) for i in range(k) for j in range(k)
        ],
        "dom": {n: obj for n in names},
        "ran": {n: obj for n in names},
        "shift": {names[i]: i for i in range(k)},
        "kind": "cyclic",
        "k": k,
    }


def _pair_component(m, tag):
    names = [f"{tag}_{i}_{j}" for i in range(m) for j in range(m)]
    objects = [f"{tag}_{i}_{i}" for i in range(m)]
    return {
        "names": names,
        "objects": objects,
        "inv": {f"{tag}_{i}_{j}": f"{tag}_{j}_{i}" for i in range(m) for j in range(m)},
        "comp": [
            (f"{tag}_{i}_{j}", f"{tag}_{j}_{k}", f"{tag}_{i}_{k}")
            for i in range(m)
            for j in range(m)
            for k in range(m)
        ],
        "dom": {f"{tag}_{i}_{j}": f"{tag}_{j}_{j}" for i in range(m) for j in range(m)},
        "ran": {f"{tag}_{i}_{j}": f"{tag}_{i}_{i}" for i in range(m) for j in range(m)},
        "kind": "pair",
        "m": m,
    }


def _component_coords(comp, start, block):
    """Assign coordinate blocks and per-arrow bijections for one component."""
    coords = {}
    sigma = {}
    if comp["kind"] == "cyclic":
        k = comp["k"]
        block_ids = list(range(start, start + k))
        obj = comp["objects"][0]
        coords[obj] = list(block_ids)
        for name, shift in comp["shift"].items():
            sigma[name] = {
                block_ids[i]: block_ids[(i + shift) % k] for i in range(k)
            }
        return coords, sigma, start + k
    m = comp["m"]
    per_obj = {}
    cursor = start
    for i in range(m):
        per_obj[i] = list(range(cursor, cursor + block))
        cursor += block
    for i in range(m):
        coords[f"{comp['names'][0].split('_')[0]}_{i}_{i}"] = list(per_obj[i])
    for i in range(m):
        for j in range(m):
            sigma[comp["names"][i * m + j]] = {
                per_obj[j][pos]: per_obj[i][pos] for pos in range(block)
            }
    return coords, sigma, cursor


def random_global_action(rng, p=None, max_dim=6):
    """A validated global ordered action on a pointwise algebra."""
    p = p or rng.choice([2, 3, 5])
    pattern = rng.choice(["trivial", "trivial", "min", "double"])
    comps = []
    if pattern == "double":
        comps = [_cyclic_component(rng.choice([1, 2, 3]), "c")]
    elif rng.random() < 0.5:
        comps = [_cyclic_component(rng.choice([1, 2, 3, 4]), "c")]
    else:
        comps = [_pair_component(2, "q")]
        if rng.random() < 0.4:
            comps.append(_cyclic_component(rng.choice([1, 2]), "c"))

    names: list[str] = []
    objects: list[str] = []
    inv: dict[str, str] = {}
    comp_triples: list[tuple[str, str, str]] = []
    order_pairs: list[tuple[str, str]] = []
    coords: dict[str, list[int]] = {}
    sigma: dict[str, dict[int, int]] = {}
    cursor = 0
    for c in comps:
        block = rng.choice([1, 2])
        cc, ss, cursor = _component_coords(c, cursor, block)
        names += c["names"]
        objects += c["objects"]
        inv.update(c["inv"])
        comp_triples += c["comp"]
        coords.update(cc)
        sigma.update(ss)

    if pattern == "min":
        fresh = list(range(cursor, cursor + rng.choice([0, 1, 2])))
        cursor += len(fresh)
        e0 = "bottom"
        names.append(e0)
        objects.append(e0)
        inv[e0] = e0
        comp_triples.append((e0, e0, e0))
        order_pairs += [(e0, n) for n in names if n != e0]
        for obj in coords:
            coords[obj] = coords[obj] + fresh
        coords[e0] = list(fresh)
        for name in sigma:
            sigma[name] = {**sigma[name], **{c: c for c in fresh}}
        sigma[e0] = {c: c for c in fresh}
    elif pattern == "double":
        base = comps[0]
        k = base["k"]
        lower = _cyclic_component(k, "low")
        fresh = list(range(cursor, cursor + k))
        cursor += k
        names += lower["names"]
        objects += lower["objects"]
        inv.update(lower["inv"])
        comp_triples += lower["comp"]
        # lower copy acts on the base block only; the upper copy also
        # shifts a fresh block, so both satisfy the restriction law.
        upper_obj = base["objects"][0]
        lower_obj = lower["objects"][0]
        coords[lower_obj] = list(coords[upper_obj])
        coords[upper_obj] = coords[upper_obj] + fresh
        for i in range(k):
            up, low = base["names"][i], lower["names"][i]
            sigma[low] = dict(sigma[up])
            sigma[up] = {
                **sigma[up],
                **{fresh[j]: fresh[(j + i) % k] for j in range(k)},
            }
            order_pairs.append((low, up))

    if cursor == 0 or cursor > max_dim:
        return random_global_action(rng, p=p, max_dim=max_dim)

    g = OrderedGroupoid.from_parts(names, objects, inv, comp_triples, order_pairs)
    algebra = diagonal_algebra(p, cursor)
    index = {n: i for i, n in enumerate(names)}
    ideals = [None] * g.n
    maps = [None] * g.n
    for name in names:
        i = index[name]
        ran_obj = names[g.ran[i]]
        dom_obj = names[g.dom[i]]
        ideals[i] = _coord_span(coords[ran_obj], cursor, p)
    for name in names:
        i = index[name]
        dom_obj = names[g.dom[i]]
        dom = _coord_span(coords[dom_obj], cursor, p)
        images = []
        for c in sorted(coords[dom_obj]):
            img = [0] * cursor
            img[sigma[name][c]] = 1
            images.append(img)
        maps[i] = LinMap.from_images(dom, ideals[i], images)
    action = POAction(g, algebra, tuple(ideals), tuple(maps), name="random global")
    return action, {names[index[o]]: coords[o] for o in coords}


def _coord_span(cols, dim, p):
    rows = []
    for c in sorted(cols):
        row = [0] * dim
        row[c] = 1
        rows.append(row)
    return Subspace.span(dim, rows, p)


def random_ideal(rng, beta):
    dim = beta.carrier.dim
    cols = [c for c in range(dim) if rng.random() < 0.5]
    return _coord_span(cols, dim, beta.carrier.p)


def random_monotone_family(rng, beta, coords_by_object):
    g = beta.structure
    index = {n: i for i, n in enumerate(g.names)}
    chosen = {
        obj: {c for c in cols if rng.random() < 0.5}
        for obj, cols in coords_by_object.items()
    }
    for _ in range(len(chosen)):
        for e_name, e_cols in chosen.items():
            for f_name, f_cols in chosen.items():
                if g.le(index[e_name], index[f_name]):
                    f_cols |= e_cols
    return {
        index[obj]: _coord_span(cols, beta.carrier.dim, beta.carrier.p)
        for obj, cols in chosen.items()
    }


def random_invertible(rng, n, p):
    """Rows of a random invertible n x n matrix over F_p, drawn until the
    rank is full."""
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if Subspace.span(n, rows, p).rank == n:
            return rows


def rebased_algebra(alg, rows):
    """alg moved along T(x) = x P, P with the given rows (invertible): the
    constants are T(T^-1(e_i) T^-1(e_j)) and the unit is T(u), so T is an
    isomorphism of algebras; the moved table is in general not monomial."""
    full = Subspace.full(alg.dim, alg.p)
    move = LinMap.from_images(full, full, rows)
    back = move.inverse()
    table = [[move.apply(alg.mul(back.apply(u), back.apply(v))) for v in full.basis] for u in full.basis]
    unit = move.apply(alg.unit) if alg.unit is not None else None
    return Algebra(alg.p, alg.dim, table, unit=unit, name=f"{alg.name}~rebased")


def rebased_action(a, rows):
    """a moved along T(x) = x P, P with the given rows (invertible): the
    carrier gets the constants T(T^-1(e_i) T^-1(e_j)), each ideal D becomes
    T(D) and each map f becomes T f T^-1, so T is an isomorphism of actions.
    The moved ideals are in general not coordinate subspaces."""
    n, p = a.carrier.dim, a.carrier.p
    carrier = rebased_algebra(a.carrier, rows)
    full = Subspace.full(n, p)
    move = LinMap.from_images(full, full, rows)
    back = move.inverse()

    def moved(sub):
        return Subspace.span(n, [move.apply(v) for v in sub.basis], p)

    maps = []
    for f in a.map_of:
        dom = moved(f.domain)
        maps.append(LinMap.from_images(dom, moved(f.codomain), [move.apply(f.apply(back.apply(v))) for v in dom.basis]))
    return Action(a.structure, carrier, [moved(d) for d in a.ideal_of], maps, name=f"{a.name}~rebased")


def symmetric_inverse_monoid(n):
    """I_n: all partial injections of range(n) under composition (apply the
    right factor first), named by their image tuples, "_" where undefined.

    Each map is a word of its n images as bytes, n where undefined, padded
    with 255 to 8 bytes (so n <= 8).  The row of s is every word at once
    translated through s's images, read back as 64-bit codes."""
    elems = []
    for size in range(n + 1):
        for dom in combinations(range(n), size):
            for img in permutations(range(n), size):
                f = [None] * n
                for x, y in zip(dom, img):
                    f[x] = y
                elems.append(tuple(f))
    words = [bytes(n if y is None else y for y in f).ljust(8, b"\xff") for f in elems]
    every = b"".join(words)
    index = {code: i for i, code in enumerate(array("Q", every))}
    mult = [
        list(map(index.__getitem__, array("Q", every.translate(bytes((*w[:n], *range(n, 256)))))))
        for w in words
    ]
    names = ["s" + "".join("_" if y is None else str(y) for y in f) for f in elems]
    return InverseSemigroup(names, mult)


def fixture_builders():
    """(label, builder) for every zero-argument builder of `ogaction.fixtures`
    (label "fx.<name>") and of `extra_fixtures` ("xf.<name>"), in name order."""
    found = []
    for alias, module in (("fx", fx), ("xf", xf)):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ == module.__name__ and not inspect.signature(fn).parameters:
                found.append((name, f"{alias}.{name}", fn))
    return [(label, fn) for _, label, fn in sorted(found)]
