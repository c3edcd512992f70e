"""Finite ordered groupoids: category axioms, order axioms, restrictions,
object meets, pseudoproducts, and the derived arrow sets used by the
globalization constructions."""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterable, Optional, Sequence

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


def light_certificate(table: Sequence[Sequence[int]]) -> bool:
    """True when the square table over range(n) is associative, by Light's
    test (Clifford and Preston, *The Algebraic Theory of Semigroups* I,
    section 1.2): in any magma the middle factors b with (ab)c = a(bc) for
    all a, c form a sub-magma, so it is enough that every member of a
    generating set is one.  A partial product is passed with an absorbing
    sentinel for "undefined".  False proves nothing: it is also the answer
    when the table has fewer than two rows, is not square, or has an entry
    outside range(n).

    Generators are taken greedily.  Elements are visited by the number of
    distinct entries in their row, largest first (in I_n the permutations,
    then the maps of rank n-1, and so on), and one joins when it lies
    outside the closure of those before it; each new member of the closure
    is multiplied on both sides with every member so far, O(n^2) lookups
    in all.  For a generator b, row (ab)c over all c is table[ab] and row
    a(bc) is table[a] read at table[b]; whole rows are compared.
    """
    n = len(table)
    rows = [tuple(row) for row in table]
    if n < 2 or any(len(row) != n for row in rows) or min(map(min, rows)) < 0 or max(map(max, rows)) >= n:
        return False
    inside = [False] * n
    members, member_rows, gens = [], [], []  # the closure so far, its rows, its generators
    for x in sorted(range(n), key=lambda x: -len(set(rows[x]))):
        if inside[x]:
            continue
        gens.append(x)
        inside[x] = True
        queue = [x]
        while queue:
            y = queue.pop()
            row = rows[y]
            member_rows.append(row)
            members.append(y)
            for w in chain(map(row.__getitem__, members), map(itemgetter(y), member_rows)):
                if not inside[w]:
                    inside[w] = True
                    queue.append(w)
    for b in gens:
        through = itemgetter(*rows[b])
        if any(rows[row[b]] != through(row) for row in rows):
            return False
    return True


class OrderedGroupoid:
    """Arrows 0..n-1 with partial composition, inverses, and a partial order.

    The order is stored as a full boolean matrix; `from_parts` closes the
    authored generating pairs reflexively and transitively before storing.

    A groupoid is not changed after construction, so its tables are built
    on first use and kept: the arrows below each arrow grouped by domain
    and by range; the meets of all pairs of objects; the partners of each
    arrow (`_partners`, the arrows it composes with), which validation and
    the index view read; and, once the groupoid is valid, the pseudoproduct
    table, read from the meets, the arrows below each arrow and `comp`.
    `comp` stays the input, the form for equality, hashing and JSON, and
    what validation reads.  Each clause is one pass: CAT and OG2 read
    `comp` along the partners, CAT associativity is the loop over
    composable triples, and the passes skip only pairs a scan over all
    arrows would have passed over, in the same order.  So reports, issue
    lists and exceptions are those of the plain scans.
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
        self.leq = tuple(map(tuple, leq))
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
        # composable and on the composable pairs missing from comp.
        dom, ran = self.dom, self.ran
        bad = {(g, h) for g, h in comp if dom[g] != ran[h]}
        bad.update((g, h) for g, hs in enumerate(self._partners) for h in hs if (g, h) not in comp)
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
        # Associativity over every composable triple of comp, as a plain scan.
        after: dict[int, list[int]] = {}  # h -> the arrows k with (h, k) composed
        for h, k in sorted(comp):
            after.setdefault(h, []).append(k)
        for (g, h), gh in comp.items():
            for k in after.get(h, ()):
                left, right = comp.get((gh, k)), comp.get((g, comp[(h, k)]))
                if left is None or left != right:
                    rep.add("CAT", f"associativity fails on ({nm[g]},{nm[h]},{nm[k]})")
        self._groupoid_report = rep
        return rep

    def validate_order(self) -> ValidationReport:
        if self._order_report is not None:
            return self._order_report
        rep = ValidationReport("groupoid order", ORDER_CLAUSES)
        nm = self.names
        leq = self.leq
        up = [tuple(b for b, x in enumerate(row) if x) for row in leq]
        for a in self.arrows():
            if not leq[a][a]:
                rep.add("ORD", f"order is not reflexive at {nm[a]}")
            for b in up[a]:
                if a != b and leq[b][a]:
                    rep.add("ORD", f"order is not antisymmetric on {nm[a]}, {nm[b]}")
                for c in up[b]:
                    if not leq[a][c]:
                        rep.add("ORD", f"order is not transitive via {nm[a]}<={nm[b]}<={nm[c]}")
        for g in self.arrows():
            for h in up[g]:
                if not leq[self.inv[g]][self.inv[h]]:
                    rep.add("OG1", f"{nm[g]} <= {nm[h]} but inverses are unordered")
        # OG2 over g <= h, k composable with g, l >= k composable with h.  A
        # composite that is missing or outside the arrows fails CAT, and OG2
        # skips its quadruples.
        dom, ran, comp, arrows = self.dom, self.ran, self.comp, self.arrows()
        up_by_ran = [_group(ls, ran) for ls in up]
        for g, ks in enumerate(self._partners):
            for h in up[g]:
                for k in ks:
                    gk = comp.get((g, k))
                    if gk not in arrows:
                        continue
                    for l in up_by_ran[k].get(dom[h], ()):
                        hl = comp.get((h, l))
                        if hl in arrows and not leq[gk][hl]:
                            rep.add("OG2", f"products of {nm[g]}<={nm[h]} with {nm[k]}<={nm[l]} are unordered")
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

        The pseudoproduct g*h is (g | m) * (m | h) with m = dom g ^ ran h.  In
        a valid groupoid g | m and m | h are the single arrows below g with
        domain m and below h with range m, so each entry is read from the
        meets, the arrows below g and h, and `comp`.
        """
        self.require_valid()
        comp, res, cor, ran = self.comp, self._below_by_dom, self._below_by_ran, self.ran
        return tuple(
            tuple(None if (m := row[r]) is None else comp[res[g][m][0], cor[h][m][0]] for h, r in enumerate(ran))
            for g, row in enumerate(map(self._meets.__getitem__, self.dom))
        )

    @cached_property
    def _inductive(self) -> bool:
        return all(None not in row.values() for row in self._meets.values())

    def is_inductive(self) -> bool:
        return self._inductive

    def is_pseudoassociative(self) -> bool:
        """Existence of (g*h)*k and g*(h*k) agree on all triples.

        When both sides exist they must coincide; a difference would break
        the ordered-groupoid axioms and raises instead of returning False.
        """
        # With n for "undefined", an absorbing sentinel, pseudoassociativity
        # is associativity of the kept table.  An invalid groupoid (it has
        # no table) or a failed certificate runs the scan, so the value
        # returned and the exception raised are the scan's.
        if self.is_valid():
            n = self.n
            rows = [tuple(n if x is None else x for x in row) + (n,) for row in self._pseudoproducts]
            if light_certificate(rows + [(n,) * (n + 1)]):
                return True
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
