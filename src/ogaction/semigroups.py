"""Finite inverse semigroups, the natural partial order, the two ESN
conversions, and premorphism verification (including maps into the
symmetric inverse structure on subspaces of an algebra)."""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Optional, Sequence, Union

from .algebras import Algebra
from .errors import InvalidSemigroup, NotInductive
from .groupoids import GROUPOID_CLAUSES, ORDER_CLAUSES, OrderedGroupoid, _group, light_certificate
from .linalg import LinMap, compose_partial, partial_inverse
from .validation import ValidationReport, short_cut

SEMIGROUP_CLAUSES = ("ASSOC", "INVERSES", "IDEMPOTENTS")
PREMORPHISM_CLAUSES = ("PM(i)", "PM(ii)", "PM(iii)")
PREMORPHISM_DIAGNOSTICS = ("PM(dom)", "PM(meet)")


class InverseSemigroup:
    """A finite inverse semigroup given by its full multiplication table.

    The table is not changed after construction.  The idempotents are
    listed once; once `validate()` passes, the inverses and the down-set
    of each element under the natural order are kept as tables.

    ASSOC is decided by `light_certificate` (Light's test on a greedy
    generating set).  When it fails `validate` runs the plain scan over
    all triples, so the ASSOC issues and their order are the scan's.
    """

    def __init__(self, names: Sequence[str], mult: Sequence[Sequence[int]]):
        self.names = tuple(names)
        self.n = len(self.names)
        if len(set(self.names)) != self.n:
            raise InvalidSemigroup("duplicate element names")
        if len(mult) != self.n or any(len(row) != self.n for row in mult):
            raise InvalidSemigroup("multiplication table must be n x n")
        self.mult = tuple(tuple(map(int, row)) for row in mult)
        if self.n and (min(map(min, self.mult)) < 0 or max(map(max, self.mult)) >= self.n):
            raise InvalidSemigroup("multiplication table entries must be element indices")
        self._report: Optional[ValidationReport] = None
        self._inverse: Optional[tuple[int, ...]] = None
        self._idempotents: Optional[tuple[int, ...]] = None
        self._below: Optional[tuple[frozenset[int], ...]] = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InverseSemigroup)
            and self.names == other.names
            and self.mult == other.mult
        )

    def __hash__(self):
        return hash((self.names, self.mult))

    def __repr__(self):
        return f"<inverse semigroup: {self.n} elements>"

    def elements(self) -> range:
        return range(self.n)

    def mul(self, s: int, t: int) -> int:
        return self.mult[s][t]

    def idempotents(self) -> tuple[int, ...]:
        if self._idempotents is None:
            self._idempotents = tuple(e for e in self.elements() if self.mult[e][e] == e)
        return self._idempotents

    def validate(self) -> ValidationReport:
        if self._report is not None:
            return self._report
        rep = ValidationReport("inverse semigroup", SEMIGROUP_CLAUSES)
        nm = self.names
        mult = self.mult
        if not light_certificate(mult):
            for a in self.elements():
                for b in self.elements():
                    for c in self.elements():
                        if mult[mult[a][b]][c] != mult[a][mult[b][c]]:
                            rep.add("ASSOC", f"({nm[a]}{nm[b]}){nm[c]} != {nm[a]}({nm[b]}{nm[c]})")
        idem = self.idempotents()
        clash = [(e, f) for e in idem for f in idem if mult[e][f] != mult[f][e]]

        def partners(s: int, most: Optional[int] = None) -> tuple[int, ...]:
            found = (t for t in self.elements() if mult[mult[s][t]][s] == s and mult[mult[t][s]][t] == t)
            return tuple(islice(found, most))

        # Once ASSOC holds and the idempotents commute, an element has at most
        # one inverse (Howie, *Fundamentals of Semigroup Theory*, Thm 5.1.1),
        # so the scan stops at the first partner.
        first = [partners(s, 1) for s in self.elements()] if rep.ok and not clash else None
        found = short_cut("INVERSES: at most one inverse", first, lambda: list(map(partners, self.elements())))
        for s, ts in enumerate(found):
            if len(ts) != 1:
                rep.add("INVERSES", f"{nm[s]} has {len(ts)} inverse partner(s)")
        for e, f in clash:
            rep.add("IDEMPOTENTS", f"idempotents {nm[e]}, {nm[f]} do not commute")
        if rep.ok:
            self._inverse = tuple(ts[0] for ts in found)
        self._report = rep
        return rep

    def is_valid(self) -> bool:
        return self.validate().ok

    def require_valid(self) -> None:
        if not self.validate().ok:
            raise InvalidSemigroup(str(self.validate()))

    def inverse(self, s: int) -> int:
        if self._inverse is None:
            self.require_valid()
        assert self._inverse is not None
        return self._inverse[s]

    def _down_sets(self) -> tuple[frozenset[int], ...]:
        """below[t] = {t*e : e idempotent}, the elements below t."""
        if self._below is None:
            self.require_valid()
            idem = self.idempotents()
            self._below = tuple(frozenset(row[e] for e in idem) for row in self.mult)
        return self._below

    def natural_le(self, s: int, t: int) -> bool:
        """s below t iff s = t*e for some idempotent e."""
        return s in self._down_sets()[t]

    def relabeled(self, perm: Sequence[int]) -> "InverseSemigroup":
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation of the elements")
        back = sorted(self.elements(), key=perm.__getitem__)  # back[perm[i]] = i
        mult = [[perm[self.mult[a][b]] for b in back] for a in back]
        return InverseSemigroup([self.names[i] for i in back], mult)


def validate_inverse_semigroup(s: InverseSemigroup) -> ValidationReport:
    return s.validate()


def natural_order(s: InverseSemigroup, a: int, b: int) -> bool:
    return s.natural_le(a, b)


class GradedIndex:
    """One index view of a valid ordered groupoid or inverse semigroup.

    Grades are the arrows or the elements.  `inv`, `ran` and `dom` are
    tuples (for a semigroup, ran(s) = ss^-1 and dom(s) = s^-1 s); `le` is
    the groupoid order or the natural partial order; `anchors` are the
    objects or the idempotents; `triples` holds (grade, ran, dom) per
    grade.  Read through the Ehresmann-Schein-Nambooripad correspondence
    (Lawson, *Inverse Semigroups*, 1998), a semigroup's view is its derived
    inductive groupoid's view with the composite widened to the total
    product.  `products()` walks each grade's partners beside its row of
    products: a groupoid's `_partners` and the composites `comp` gives
    along them (it is validated first, so each exists), or every element
    and the semigroup's table row.  The view holds the structure's tables,
    not the structure, so keeping it on the structure makes no reference
    cycle: both are freed as soon as the structure is dropped.
    """

    def __init__(self, structure: "OrderedGroupoid | InverseSemigroup"):
        structure.require_valid()
        self.names = structure.names
        self.grades = range(len(self.names))
        if isinstance(structure, OrderedGroupoid):
            self.inv, self.ran, self.dom = structure.inv, structure.ran, structure.dom
            self.anchors = tuple(sorted(structure.objects))
            self._down = structure._down
            leq = structure.leq
            self.le: Callable[[int, int], bool] = lambda g, h: leq[g][h]
            comp, self._partners = structure.comp, structure._partners
            self._composites = tuple(tuple(comp[g, h] for h in hs) for g, hs in enumerate(self._partners))
        else:
            mult = structure.mult
            self.inv = structure._inverse
            self.ran = tuple(mult[s][t] for s, t in zip(self.grades, self.inv))
            self.dom = tuple(mult[t][s] for s, t in zip(self.grades, self.inv))
            self.anchors = tuple(sorted(structure.idempotents()))
            below = self._down = structure._down_sets()
            self.le = lambda s, t: s in below[t]
            self._partners, self._composites = (self.grades,) * len(self.grades), mult
        self.triples = tuple(zip(self.grades, self.ran, self.dom))

    def products(self) -> Iterator[tuple[int, int, int]]:
        """(g, h, gh) for every defined composite, g-major with h
        ascending: the composable pairs of a groupoid, every pair of a
        semigroup."""
        for g, hs, row in zip(self.grades, self._partners, self._composites):
            for h, gh in zip(hs, row):
                yield g, h, gh

    def order_pairs(self) -> Iterator[tuple[int, int]]:
        """(g, h) with g strictly below h, g-major with h ascending."""
        yield from sorted((g, h) for h, below in enumerate(self._down) for g in below if g != h)


def graded_index(structure: "OrderedGroupoid | InverseSemigroup") -> GradedIndex:
    """The structure's index view, built on first use and kept on it."""
    view = structure.__dict__.get("_graded_index")
    if view is None:
        view = structure._graded_index = GradedIndex(structure)
    return view


def esn_to_groupoid(s: InverseSemigroup) -> OrderedGroupoid:
    """Elements become arrows; composition is defined on matching idempotents;
    the order is the natural partial order.  The result is inductive.

    The result is kept on s and holds s weakly.  It is built and not
    validated: by the Ehresmann-Schein-Nambooripad theorem (Lawson, *Inverse
    Semigroups*, 1998, ch. 4) the groupoid of a valid inverse semigroup is
    an inductive groupoid, so its reports are recorded as passed.  Checked
    mode validates a rebuilt copy in full and compares it with the groupoid
    returned.
    """
    if "_esn_groupoid" in s.__dict__:
        return s._esn_groupoid
    ix = graded_index(s)
    # The pairs with dom a = ran b, from the elements grouped by range, in
    # the order a scan over all pairs (a, b) would insert them.
    by_ran = _group(ix.grades, ix.ran)
    comp = {(a, b): s.mult[a][b] for a, d in enumerate(ix.dom) for b in by_ran.get(d, ())}
    leq = [[False] * s.n for _ in ix.grades]
    for b, below in enumerate(s._down_sets()):
        for a in below:
            leq[a][b] = True
    leq = tuple(map(tuple, leq))  # frees the lists before the groupoid copies the rows
    fields = (s.names, frozenset(s.idempotents()), ix.inv, comp, ix.dom, ix.ran, leq)
    g = OrderedGroupoid(*fields)
    g._groupoid_report = ValidationReport("groupoid", GROUPOID_CLAUSES)
    g._order_report = ValidationReport("groupoid order", ORDER_CLAUSES)
    g._inductive = True

    def rebuilt() -> tuple:
        h = OrderedGroupoid(*fields)
        return h.validate_groupoid(), h.validate_order(), h.is_inductive()

    short_cut("ESN: the groupoid is inductive", (g._groupoid_report, g._order_report, g._inductive), rebuilt)
    g._esn_source, s._esn_groupoid = weakref.ref(s), g
    return g


def esn_to_semigroup(g: OrderedGroupoid) -> InverseSemigroup:
    """Total multiplication by pseudoproduct; requires an inductive groupoid.

    If g came from `esn_to_groupoid(s)`, s is alive and s still keeps g as
    its ESN groupoid, g is G(s) and the ESN correspondence gives
    S(G(s)) = s, so s is returned and the pseudoproducts are not formed;
    checked mode compares them with s's table all the same.  Otherwise the
    copy is built, and it is not validated: by the ESN theorem the
    pseudoproduct semigroup of an inductive groupoid is inverse, the
    inverse of an arrow being its groupoid inverse, so its report is
    recorded as passed with g's inverses.  Checked mode validates a rebuilt
    copy in full and compares it with the semigroup returned.
    """
    g.require_valid()
    if not g.is_inductive():
        raise NotInductive("pseudoproduct is not total without object meets")
    s = g.__dict__.get("_esn_source", lambda: None)()
    if s is None or s.__dict__.get("_esn_groupoid") is not g:
        s = InverseSemigroup(g.names, g._pseudoproducts)
        s._report, s._inverse = ValidationReport("inverse semigroup", SEMIGROUP_CLAUSES), g.inv
    else:
        short_cut("ESN: S(G(S)) = S", True, lambda: (s.names, s.mult) == (g.names, g._pseudoproducts))

    def rebuilt() -> tuple:
        t = InverseSemigroup(g.names, g._pseudoproducts)
        return t.validate(), t._inverse

    short_cut("ESN: the semigroup is inverse", (s._report, s._inverse), rebuilt)
    return s


@dataclass(frozen=True)
class PartialBijections:
    """Target marker for premorphisms into the partial linear bijections
    of an algebra's underlying space (never materialized as a table)."""

    algebra: Algebra


Structure = Union[InverseSemigroup, OrderedGroupoid, PartialBijections]


@dataclass
class Premorphism:
    """A candidate premorphism between finite structures.

    The source decides the defining conditions: a semigroup's map is
    checked on all pairs against the natural order, an inductive
    groupoid's on composable pairs against the groupoid order.  Targets
    may be a concrete structure (mapping holds element indices) or
    PartialBijections (mapping holds one LinMap per source element).
    """

    source: Union[InverseSemigroup, OrderedGroupoid]
    target: Structure
    mapping: Sequence[Union[int, LinMap]]


def _verify_into_structure(p: Premorphism, src: GradedIndex, rep: ValidationReport) -> None:
    tgt = p.target
    mapping = [int(x) for x in p.mapping]
    if any(x not in range(tgt.n) for x in mapping):
        raise InvalidSemigroup("mapping values must be target element indices")
    tx = graded_index(tgt)
    # An inductive groupoid's product is the pseudoproduct.
    table = tgt.mult if isinstance(tgt, InverseSemigroup) else tgt._pseudoproducts
    for a, b, ab in src.products():
        img = table[mapping[a]][mapping[b]]
        if img is None or not tx.le(img, mapping[ab]):
            rep.add(
                "PM(i)",
                f"image product of ({src.names[a]},{src.names[b]}) not below image of product",
            )
    for a in src.grades:
        if tx.inv[mapping[a]] != mapping[src.inv[a]]:
            rep.add("PM(ii)", f"image of inverse of {src.names[a]} is not the inverse image")
    for a, b in src.order_pairs():
        if not tx.le(mapping[a], mapping[b]):
            rep.add(
                "PM(iii)",
                f"{src.names[a]} below {src.names[b]} but images {tx.names[mapping[a]]}, "
                f"{tx.names[mapping[b]]} are unordered",
            )


def _verify_into_partial_bijections(
    p: Premorphism, src: GradedIndex, rep: ValidationReport
) -> None:
    maps: list[LinMap] = list(p.mapping)  # type: ignore[arg-type]
    names = src.names
    for a, b, ab in src.products():
        composite = compose_partial(maps[a], maps[b])
        if not composite.as_partial_le(maps[ab]):
            rep.add(
                "PM(i)",
                f"composite of images of ({names[a]},{names[b]}) is not a restriction "
                "of the image of the product",
            )
    for a in src.grades:
        inv_img = maps[src.inv[a]]
        back = partial_inverse(maps[a])
        if not (
            back.domain == inv_img.domain
            and back.agrees_with(inv_img, back.domain)
        ):
            rep.add("PM(ii)", f"image of inverse of {names[a]} is not the inverse partial map")
    for a, b in src.order_pairs():
        if not maps[a].as_partial_le(maps[b]):
            rep.add("PM(iii)", f"{names[a]} below {names[b]} but images are unordered")
    if isinstance(p.source, OrderedGroupoid):
        g = p.source
        for a in g.arrows():
            # d(psi(a)) is the identity on the image map's domain
            if not maps[g.dom[a]].domain.contains_subspace(maps[a].domain):
                rep.add("PM(dom)", f"domain of image of {names[a]} escapes the domain object image")
        for a in g.arrows():
            for e in g.objects:
                if g.le(e, g.ran[a]):
                    co = g.corestriction(e, a)
                    expected = maps[e].domain.intersect(maps[a].image())
                    if maps[co].image() != expected:
                        rep.add(
                            "PM(meet)",
                            f"range of image of ({names[e]}|{names[a]}) is not the object-meet",
                        )


def verify_premorphism(p: Premorphism) -> ValidationReport:
    on_groupoid = isinstance(p.source, OrderedGroupoid)
    checked = PREMORPHISM_CLAUSES
    if on_groupoid and isinstance(p.target, PartialBijections):
        checked = PREMORPHISM_CLAUSES + PREMORPHISM_DIAGNOSTICS
    kind = "inductive-groupoid" if on_groupoid else "inverse-semigroup"
    rep = ValidationReport(f"{kind} premorphism", checked)
    if len(p.mapping) != p.source.n:
        raise InvalidSemigroup("mapping must cover every source element")
    src = graded_index(p.source)  # refuses an invalid source
    if isinstance(p.target, PartialBijections):
        _verify_into_partial_bijections(p, src, rep)
    else:
        _verify_into_structure(p, src, rep)
    return rep
