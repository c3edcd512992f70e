"""Finite ordered groupoids: category axioms, order axioms, restrictions,
object meets, pseudoproducts, and the derived arrow sets used by the
globalization constructions."""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, chain
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .errors import InvalidGroupoid, NotBelowDomain, NotBelowRange
from .validation import ValidationReport

GROUPOID_CLAUSES = ("CAT", "INV", "OBJ")
ORDER_CLAUSES = ("ORD", "OG1", "OG2", "OG3", "OG3*")


def _closure(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[tuple[bool, ...], ...]:
    """Reflexive-transitive closure by one Warshall pass: rows are bit
    sets, and for each k every row that reaches k takes on row k."""
    rows = [1 << a for a in range(n)]
    for a, b in pairs:
        rows[a] |= 1 << b
    for k in range(n):
        bit, row_k = 1 << k, rows[k]
        for a in range(n):
            if rows[a] & bit:
                rows[a] |= row_k
    return tuple(tuple(bool(row >> b & 1) for b in range(n)) for row in rows)


def _group(arrows: Iterable[int], key: Sequence[int]) -> dict[int, tuple[int, ...]]:
    """The arrows grouped by key[arrow], each group in the order given."""
    out: dict[int, list[int]] = {}
    for x in arrows:
        out.setdefault(key[x], []).append(x)
    return {k: tuple(v) for k, v in out.items()}


def _og2_message(nm: Sequence[str], g: int, h: int, k: int, l: int) -> str:
    return f"products of {nm[g]}<={nm[h]} with {nm[k]}<={nm[l]} are unordered"


def _picker(positions: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The entries of a row at these positions, always as a tuple
    (`itemgetter` returns a scalar for one position and refuses none)."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return lambda row: tuple(row[i] for i in positions)


def light_certificate(
    table: Sequence[Sequence[int]], partners: Optional[Sequence[Sequence[int]]] = None
) -> bool:
    """True when the table over range(n) is associative, by Light's test
    (Clifford and Preston, *The Algebraic Theory of Semigroups* I, section
    1.2): in any magma the middle factors b with (ab)c = a(bc) for all a, c
    form a sub-magma, so it is enough that every member of a generating set
    is one.  False proves nothing: it is also the answer when the table has
    fewer than two rows or an entry outside range(n).

    Without `partners` the table is square and total; a partial product
    may be passed with an absorbing sentinel for "undefined".  With
    `partners`, table[x][i] is x * partners[x][i], every other product is
    an absorbing "undefined", and no sentinel is passed.  This is meant for
    the composites of a category, where x * c is defined exactly when the
    domain of x is the range of c: partners[x] lists the arrows with range
    dom x, one list per domain, and x * c has the domain of c and the range
    of x.  The certificate checks the part of that shape it relies on and
    returns False where it fails: each element lies in at most one of the
    distinct lists, and for a generator b, every ab has b's list and every
    bc lies where b does.  Then a product that is undefined on one side of
    (ab)c = a(bc) is undefined on the other, so only a with b in partners[a]
    and c in partners[b] are compared.  The total case is the one where
    every list is range(n).

    Generators are taken greedily.  Elements are visited by the number of
    distinct entries in their row, largest first (in I_n the permutations,
    then the maps of rank n-1, and so on), and one joins when it lies
    outside the closure of those before it; each new member of the closure
    is multiplied on both sides with the members it composes with, found
    from the members kept per list they own and per list they lie in.  For
    a generator b and each a, row (ab)c over the c in partners[b] is
    table[ab], and row a(bc) is table[a] read at the positions of the bc;
    whole rows are compared.
    """
    n = len(table)
    rows = [tuple(row) for row in table]
    if partners is None:
        lists, key = [tuple(range(n))], [0] * n
    else:
        labels: dict[tuple[int, ...], int] = {}
        key = [labels.setdefault(tuple(p), len(labels)) for p in partners]
        lists = list(labels)
    if (
        n < 2
        or any(len(row) != len(lists[k]) for row, k in zip(rows, key))
        or min(map(min, filter(None, rows + lists)), default=0) < 0
        or max(map(max, filter(None, rows + lists)), default=0) >= n
    ):
        return False
    # home[y]: the list y lies in, at position pos[y]; -1 (an extra, empty
    # slot below) when y lies in none.
    home, pos = [-1] * n, [0] * n
    for k, ys in enumerate(lists):
        for i, y in enumerate(ys):
            if home[y] != -1:
                return False
            home[y], pos[y] = k, i
    inside = [False] * n
    lying_in = [[] for _ in range(len(lists) + 1)]  # per list: positions of the members in it
    owning = [[] for _ in range(len(lists) + 1)]  # per list: rows of the members whose list it is
    gens = []
    for x in sorted(range(n), key=lambda x: -len(set(rows[x]))):
        if inside[x]:
            continue
        gens.append(x)
        inside[x] = True
        queue = [x]
        while queue:
            y = queue.pop()
            row, k, h = rows[y], key[y], home[y]
            owning[k].append(row)
            lying_in[h].append(pos[y])
            for w in chain(map(row.__getitem__, lying_in[k]), map(itemgetter(pos[y]), owning[h])):
                if not inside[w]:
                    inside[w] = True
                    queue.append(w)
    # Every element is a member now, so owning[h] holds the row of every a
    # with b in partners[a].
    for b in gens:
        k, h, pb = key[b], home[b], pos[b]
        if any(home[c] != h for c in rows[b]):
            return False
        through = _picker([pos[c] for c in rows[b]])
        for row in owning[h]:
            if key[row[pb]] != k or rows[row[pb]] != through(row):
                return False
    return True


class OrderedGroupoid:
    """Arrows 0..n-1 with partial composition, inverses, and a partial order.

    The order is stored as a full boolean matrix; `from_parts` closes the
    authored generating pairs reflexively and transitively before storing.

    A groupoid is not changed after construction, so its tables are built
    on first use and kept: the arrows below each arrow grouped by domain
    and by range; the meets of all pairs of objects; one composite table
    (`_partners`, `_pos`, `_rows`), which CAT, OG2, the pseudoproduct table
    and the index view read, while `comp` stays the input and the form for
    equality, hashing and JSON; and, once the groupoid is valid, the
    pseudoproduct table.  The checks skip only pairs a scan over all arrows
    would have passed over, in the same order; CAT associativity is decided
    by Light's test over composable pairs, and the loop over composable
    triples runs only when that fails.  So reports, issue lists and
    exceptions are those of the plain scans.
    """

    def __init__(
        self,
        names: Sequence[str],
        objects: Iterable[int],
        inv: Sequence[int],
        comp: dict[tuple[int, int], int],
        dom: Sequence[int],
        ran: Sequence[int],
        leq: Sequence[Sequence[bool]],
    ):
        self.names = tuple(names)
        self.n = len(self.names)
        self.objects = frozenset(objects)
        self.inv = tuple(inv)
        self.comp = dict(comp)
        self.dom = tuple(dom)
        self.ran = tuple(ran)
        self.leq = tuple(tuple(map(bool, row)) for row in leq)
        self._groupoid_report: Optional[ValidationReport] = None
        self._order_report: Optional[ValidationReport] = None

    @classmethod
    def from_parts(
        cls,
        names: Sequence[str],
        objects: Iterable[str],
        inv: dict[str, str],
        comp_triples: Iterable[tuple[str, str, str]],
        order_pairs: Iterable[tuple[str, str]],
    ) -> "OrderedGroupoid":
        index = {nm: i for i, nm in enumerate(names)}
        n = len(names)
        if len(index) != n:
            raise InvalidGroupoid("duplicate arrow names")

        def look(nm: str) -> int:
            try:
                return index[nm]
            except KeyError:
                raise InvalidGroupoid(f"unknown arrow name {nm!r}")

        obj = [look(o) for o in objects]
        inv_t = []
        for nm in names:
            if nm not in inv:
                raise InvalidGroupoid(f"no inverse listed for arrow {nm!r}")
            inv_t.append(look(inv[nm]))
        comp = {}
        for g, h, gh in comp_triples:
            comp[(look(g), look(h))] = look(gh)
        dom = [comp.get((inv_t[g], g), -1) for g in range(n)]
        ran = [comp.get((g, inv_t[g]), -1) for g in range(n)]
        if any(d < 0 for d in dom) or any(r < 0 for r in ran):
            missing = [names[g] for g in range(n) if dom[g] < 0 or ran[g] < 0]
            raise InvalidGroupoid(f"missing inverse products for: {', '.join(missing)}")
        leq = _closure(n, [(look(a), look(b)) for a, b in order_pairs])
        return cls(names, obj, inv_t, comp, dom, ran, leq)

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, OrderedGroupoid)
            and self.names == other.names
            and self.objects == other.objects
            and self.inv == other.inv
            and self.comp == other.comp
            and self.leq == other.leq
        )

    def __hash__(self):
        return hash((self.names, self.objects, self.inv, tuple(sorted(self.comp.items())), self.leq))

    def __repr__(self):
        return f"<groupoid: {self.n} arrows, {len(self.objects)} objects>"

    def arrows(self) -> range:
        return range(self.n)

    def composable(self, g: int, h: int) -> bool:
        return self.dom[g] == self.ran[h]

    def compose(self, g: int, h: int) -> int:
        try:
            return self.comp[(g, h)]
        except KeyError:
            raise InvalidGroupoid(f"arrows {self.names[g]}, {self.names[h]} do not compose")

    def le(self, g: int, h: int) -> bool:
        return self.leq[g][h]

    # -- index tables --------------------------------------------------

    @cached_property
    def _down(self) -> tuple[tuple[int, ...], ...]:
        """down[b]: the arrows a with a <= b, ascending."""
        return tuple(tuple(a for a, x in enumerate(col) if x) for col in zip(*self.leq))

    @cached_property
    def _below_by_dom(self) -> tuple[dict[int, tuple[int, ...]], ...]:
        """Per arrow g: the arrows below g grouped by domain."""
        return tuple(_group(down, self.dom) for down in self._down)

    @cached_property
    def _below_by_ran(self) -> tuple[dict[int, tuple[int, ...]], ...]:
        """Per arrow g: the arrows below g grouped by range."""
        return tuple(_group(down, self.ran) for down in self._down)

    @cached_property
    def _by_ran(self) -> dict[int, tuple[int, ...]]:
        """The arrows grouped by range, each group ascending."""
        return _group(self.arrows(), self.ran)

    @cached_property
    def _partners(self) -> tuple[tuple[int, ...], ...]:
        """partners[g]: the arrows with range dom g, ascending."""
        return tuple(self._by_ran.get(d, ()) for d in self.dom)

    @cached_property
    def _pos(self) -> tuple[int, ...]:
        """pos[h]: the position of h among the arrows with its range, so
        in partners[g] for every g with dom g = ran h."""
        where = {h: i for hs in self._by_ran.values() for i, h in enumerate(hs)}
        return tuple(map(where.__getitem__, self.arrows()))

    @cached_property
    def _rows(self) -> Optional[tuple[tuple[int, ...], ...]]:
        """rows[g]: the composites g*h over partners[g]; None when a
        composable pair has no composite or a composite is not an arrow, so
        a valid groupoid has its rows."""
        comp, arrows = self.comp, self.arrows()
        try:
            rows = tuple(tuple(comp[(g, h)] for h in hs) for g, hs in enumerate(self._partners))
        except KeyError:
            return None
        return rows if all(gh in arrows for row in rows for gh in row) else None

    # -- validation ----------------------------------------------------

    def validate_groupoid(self) -> ValidationReport:
        if self._groupoid_report is not None:
            return self._groupoid_report
        rep = ValidationReport("groupoid", GROUPOID_CLAUSES)
        nm = self.names
        for e in self.objects:
            if self.inv[e] != e:
                rep.add("OBJ", f"object {nm[e]} is not its own inverse")
            if self.dom[e] != e or self.ran[e] != e:
                rep.add("OBJ", f"object {nm[e]} is not its own domain/range")
        for g in self.arrows():
            if self.dom[g] not in self.objects:
                rep.add("OBJ", f"domain of {nm[g]} is not an object")
            if self.ran[g] not in self.objects:
                rep.add("OBJ", f"range of {nm[g]} is not an object")
            if self.inv[self.inv[g]] != g:
                rep.add("INV", f"inverse of {nm[g]} is not an involution")
        # An entry of comp whose key or value is not an arrow fails CAT, and
        # the checks below read only the entries inside the arrows.
        arrows, comp = self.arrows(), {}
        for (g, h), gh in self.comp.items():
            if g in arrows and h in arrows and gh in arrows:
                comp[(g, h)] = gh
            else:
                rep.add("CAT", f"product ({g}, {h}) -> {gh} has an index outside the arrows")
        # "Defined iff composable" fails on the keys of comp that are not
        # composable and on the composable pairs missing from comp; there are
        # none when comp is exact: every entry inside, rows, and no other key.
        rows, partners = self._rows, self._partners
        exact = rows is not None and len(comp) == len(self.comp) == sum(map(len, partners))
        if not exact:
            dom, ran = self.dom, self.ran
            bad = {(g, h) for g, h in comp if dom[g] != ran[h]}
            bad.update((g, h) for g, hs in enumerate(partners) for h in hs if (g, h) not in comp)
            for g, h in sorted(bad):
                rep.add("CAT", f"product {nm[g]}*{nm[h]} defined iff domains match fails")
        for (g, h), gh in comp.items():
            if self.composable(g, h):
                if self.dom[gh] != self.dom[h] or self.ran[gh] != self.ran[g]:
                    rep.add("CAT", f"endpoints of {nm[g]}*{nm[h]} are wrong")
        for g in self.arrows():
            if comp.get((g, self.dom[g])) != g:
                rep.add("CAT", f"{nm[g]} * its domain is not {nm[g]}")
            if comp.get((self.ran[g], g)) != g:
                rep.add("CAT", f"range * {nm[g]} is not {nm[g]}")
            if comp.get((self.inv[g], g)) != self.dom[g]:
                rep.add("INV", f"inv({nm[g]}) * {nm[g]} is not the domain object")
            if comp.get((g, self.inv[g])) != self.ran[g]:
                rep.add("INV", f"{nm[g]} * inv({nm[g]}) is not the range object")
        # With no CAT issue so far and an exact comp, comp is defined exactly on
        # the composable pairs with the right endpoints (so every composite is
        # an arrow), and a triple can only fail by (gh)k != g(hk).  Light's test
        # over composable pairs decides that; when it fails the scan runs.
        if not (rep.clause_ok("CAT") and exact and light_certificate(rows, partners)):
            self._scan_cat_associativity(rep, comp)
        self._groupoid_report = rep
        return rep

    def _scan_cat_associativity(
        self, rep: ValidationReport, comp: dict[tuple[int, int], int]
    ) -> None:
        """Associativity over every composable triple of comp (the entries
        inside the arrows), as a plain scan."""
        nm = self.names
        after: dict[int, list[int]] = {}  # h -> the arrows k with (h, k) composed
        for h, k in sorted(comp):
            after.setdefault(h, []).append(k)
        for (g, h), gh in comp.items():
            for k in after.get(h, ()):
                hk = comp[(h, k)]
                left = comp.get((gh, k))
                right = comp.get((g, hk))
                if left is None or right is None or left != right:
                    rep.add("CAT", f"associativity fails on ({nm[g]},{nm[h]},{nm[k]})")

    def validate_order(self) -> ValidationReport:
        if self._order_report is not None:
            return self._order_report
        rep = ValidationReport("groupoid order", ORDER_CLAUSES)
        nm = self.names
        leq = self.leq
        up = [tuple(b for b, x in enumerate(row) if x) for row in leq]
        up_sets = [frozenset(u) for u in up]
        for a in self.arrows():
            if not leq[a][a]:
                rep.add("ORD", f"order is not reflexive at {nm[a]}")
            for b in up[a]:
                if a != b and leq[b][a]:
                    rep.add("ORD", f"order is not antisymmetric on {nm[a]}, {nm[b]}")
                if not up_sets[b] <= up_sets[a]:
                    for c in up[b]:
                        if c not in up_sets[a]:
                            rep.add("ORD", f"order is not transitive via {nm[a]}<={nm[b]}<={nm[c]}")
        for g in self.arrows():
            for h in up[g]:
                if not leq[self.inv[g]][self.inv[h]]:
                    rep.add("OG1", f"{nm[g]} <= {nm[h]} but inverses are unordered")
        # OG2 over g <= h, k composable with g, l >= k composable with h, with
        # gk and hl read from the composite rows; without the table, from comp.
        # A composite that is missing or outside the arrows fails CAT, and OG2
        # skips its quadruples.
        dom, ran, rows, pos, comp = self.dom, self.ran, self._rows, self._pos, self.comp
        up_by_ran = [_group(ls, ran) for ls in up]
        if rows is None:
            arrows = self.arrows()
            for g, ks in enumerate(self._partners):
                for h in up[g]:
                    for k in ks:
                        for l in up_by_ran[k].get(dom[h], ()):
                            gk, hl = comp.get((g, k)), comp.get((h, l))
                            if gk in arrows and hl in arrows and not leq[gk][hl]:
                                rep.add("OG2", _og2_message(nm, g, h, k, l))
        else:
            for g, ks in enumerate(self._partners):
                for h in up[g]:
                    d, row_h = dom[h], rows[h]
                    for k, gk in zip(ks, rows[g]):
                        ls = up_by_ran[k].get(d)
                        if ls is None:
                            continue
                        le_gk = leq[gk]
                        for l in ls:
                            if not le_gk[row_h[pos[l]]]:
                                rep.add("OG2", _og2_message(nm, g, h, k, l))
        sides = (
            ("OG3", "restriction", dom, self._below_by_dom),
            ("OG3*", "corestriction", ran, self._below_by_ran),
        )
        for g in self.arrows():
            for e in self.objects:
                for clause, kind, end, below in sides:
                    found = len(below[g].get(e, ())) if leq[e][end[g]] else 1
                    if found != 1:
                        rep.add(clause, f"{kind} of {nm[g]} at {nm[e]}: {found} candidates")
        self._order_report = rep
        return rep

    def is_valid(self) -> bool:
        return self.validate_groupoid().ok and self.validate_order().ok

    def require_valid(self) -> None:
        if not self.validate_groupoid().ok:
            raise InvalidGroupoid(str(self.validate_groupoid()))
        if not self.validate_order().ok:
            raise InvalidGroupoid(str(self.validate_order()))

    # -- order machinery -----------------------------------------------

    def restriction(self, g: int, e: int) -> int:
        """The unique arrow below g with domain e (e below dom g)."""
        if e not in self.objects or not self.leq[e][self.dom[g]]:
            raise NotBelowDomain(
                f"{self.names[e]} is not an object below the domain of {self.names[g]}"
            )
        found = self._below_by_dom[g].get(e, ())
        if len(found) != 1:
            raise InvalidGroupoid(
                f"restriction of {self.names[g]} at {self.names[e]} is not unique"
            )
        return found[0]

    def corestriction(self, e: int, g: int) -> int:
        """The unique arrow below g with range e (e below ran g)."""
        if e not in self.objects or not self.leq[e][self.ran[g]]:
            raise NotBelowRange(
                f"{self.names[e]} is not an object below the range of {self.names[g]}"
            )
        found = self._below_by_ran[g].get(e, ())
        if len(found) != 1:
            raise InvalidGroupoid(
                f"corestriction of {self.names[g]} at {self.names[e]} is not unique"
            )
        return found[0]

    @cached_property
    def _objects_below(self) -> dict[int, frozenset[int]]:
        """Per object e: the objects x with x <= e."""
        leq = self.leq
        return {e: frozenset(x for x in self.objects if leq[x][e]) for e in self.objects}

    def _greatest(self, lower: frozenset[int]) -> Optional[int]:
        """The one member of a set of objects that every member is below,
        or None when there is not exactly one."""
        below = self._objects_below
        top = [z for z in lower if lower <= below[z]]
        return top[0] if len(top) == 1 else None

    @cached_property
    def _meets(self) -> dict[int, dict[int, Optional[int]]]:
        """meets[e][f]: the meet of the objects e and f, None where there is
        none.  Built from the order alone, so it exists on an invalid
        groupoid too."""
        below = self._objects_below
        return {e: {f: self._greatest(below[e] & below[f]) for f in below} for e in below}

    def meet_objects(self, e: int, f: int) -> Optional[int]:
        """The greatest object below e and f, if there is exactly one."""
        row = self._meets.get(e, {})
        if f in row:
            return row[f]
        leq = self.leq
        return self._greatest(frozenset(x for x in self.objects if leq[x][e] and leq[x][f]))

    def pseudoproduct(self, g: int, h: int) -> Optional[int]:
        """(g | d(g)∧r(h)) * (d(g)∧r(h) | h) when the object meet exists."""
        m = self.meet_objects(self.dom[g], self.ran[h])
        if m is None:
            return None
        left = self.restriction(g, m)
        right = self.corestriction(m, h)
        return self.comp[(left, right)]

    @cached_property
    def _pseudoproducts(self) -> tuple[tuple[Optional[int], ...], ...]:
        """The pseudoproduct table of a valid groupoid, None where dom g and
        ran h have no meet.

        The pseudoproduct g*h is (g | m) * (m | h) with m = dom g ^ ran h.
        In a valid groupoid the restriction and corestriction at an object
        m are the single arrows below g with domain m and below h with
        range m, so the entry is the composite row of g | m read at the
        position of m | h.  The h of one range r share m: a row is one pick
        per r from the row of g | m, then one pick back to arrow order.
        """
        self.require_valid()
        res = [{m: found[0] for m, found in by_dom.items()} for by_dom in self._below_by_dom]
        by_ran, pos = self._by_ran, self._pos
        cores = {(r, m): _picker([pos[self._below_by_ran[h][m][0]] for h in hs])
                 for r, hs in by_ran.items() for m in self._objects_below[r]}
        start = dict(zip(by_ran, accumulate(map(len, by_ran.values()), initial=0)))
        back = _picker([start[r] + pos[h] for h, r in enumerate(self.ran)])
        rows, table = self._rows, []
        for g in self.arrows():
            left, meet_g = res[g], self._meets[self.dom[g]]
            picks = []
            for r, hs in by_ran.items():
                m = meet_g[r]
                picks.extend((None,) * len(hs) if m is None else cores[r, m](rows[left[m]]))
            table.append(back(picks))
        return tuple(table)

    def is_inductive(self) -> bool:
        return all(None not in row.values() for row in self._meets.values())

    def is_pseudoassociative(self) -> bool:
        """Existence of (g*h)*k and g*(h*k) agree on all triples.

        When both sides exist they must coincide; a difference would break
        the ordered-groupoid axioms and raises instead of returning False.
        """
        # With n for "undefined", an absorbing sentinel, pseudoassociativity
        # is associativity of the kept table.  Any exception (an invalid
        # groupoid has no table) or a failed certificate runs the scan, so
        # the value returned and the exception raised are the scan's.
        n = self.n
        try:
            rows = [tuple(n if x is None else x for x in row) + (n,) for row in self._pseudoproducts]
            if light_certificate(rows + [(n,) * (n + 1)]):
                return True
        except Exception:
            pass
        return self._scan_pseudoassociative()

    def _scan_pseudoassociative(self) -> bool:
        for g in self.arrows():
            for h in self.arrows():
                gh = self.pseudoproduct(g, h)
                for k in self.arrows():
                    hk = self.pseudoproduct(h, k)
                    left = None if gh is None else self.pseudoproduct(gh, k)
                    right = None if hk is None else self.pseudoproduct(g, hk)
                    if (left is None) != (right is None):
                        return False
                    if left is not None and left != right:
                        raise InvalidGroupoid(
                            "pseudoproducts exist on both sides but differ on "
                            f"({self.names[g]},{self.names[h]},{self.names[k]})"
                        )
        return True

    def down_range_set(self, g: int) -> tuple[int, ...]:
        """Arrows whose range lies below ran(g)."""
        r = self.ran[g]
        return tuple(h for h in self.arrows() if self.leq[self.ran[h]][r])

    def pseudo_composable_set(self, g: int) -> tuple[int, ...]:
        """Arrows h with inv(g) * h defined, read from the pseudoproduct
        table of the (valid) groupoid."""
        return tuple(h for h, x in enumerate(self._pseudoproducts[self.inv[g]]) if x is not None)

    def relabeled(self, perm: Sequence[int]) -> "OrderedGroupoid":
        """Rebuild with arrow i renamed to position perm[i]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation of the arrows")
        back = sorted(self.arrows(), key=perm.__getitem__)  # back[perm[i]] = i
        names = [self.names[i] for i in back]
        inv, dom, ran = ([perm[t[i]] for i in back] for t in (self.inv, self.dom, self.ran))
        comp = {(perm[g], perm[h]): perm[gh] for (g, h), gh in self.comp.items()}
        leq = [[self.leq[a][b] for b in back] for a in back]
        return OrderedGroupoid(names, {perm[o] for o in self.objects}, inv, comp, dom, ran, leq)


def validate_groupoid(g: OrderedGroupoid) -> ValidationReport:
    return g.validate_groupoid()


def validate_order(g: OrderedGroupoid) -> ValidationReport:
    return g.validate_order()
