"""Differential test: the head-block Lattice against the three-tag class it replaced.

ref_Lattice is a copy of the earlier class, which stored every form three
ways: tag "cp2" (gram diag(1, -1, ..., -1)), tag "hirz" with k_hirz (head F.F
= 0, F.B = 1, B.B = -k, then -1s) and tag "generic" with a full gram. Each
drawn lattice is built both ways, and pairings, the sparse gram, the gram
rows (of the basis and of a class), blowups, contractions and the F_k -> CP^2 certificates are compared on
drawn sparse classes. ref_contract_lattice and ref_to_cp2 are copies of the
earlier _contract_lattice and of to_cp2 with the full canonical comparison.
"""

import re
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpp.errors import LemmaViolated, MissingClasses, WppError
from wpp.homlat import (
    CP2_HEAD,
    Lattice,
    _block_mul,
    cp2_lattice,
    dense,
    dot,
    functional_kernel_basis,
    generic_lattice,
    hirz_lattice,
    in_rank,
    mat_inverse_int,
    mat_vec,
    sparse,
    to_cp2,
    vadd,
    vsub,
)
from wpp.strings import _contract_lattice

# --- reference: the three-tag class ---------------------------------------------------


def ref_sdot(x, y):
    if len(x) > len(y):
        x, y = y, x
    return sum(v * y.get(i, 0) for i, v in x.items())


@dataclass(frozen=True)
class ref_Lattice:
    tag: str  # "cp2" | "hirz" | "generic"
    rank: int
    k_hirz: int = 0
    gram: tuple | None = None
    canonical: dict | None = None
    _std_k: bool = field(init=False, compare=False, repr=False, default=False)

    def __post_init__(self):
        assert self.tag in ("cp2", "hirz", "generic")
        k = self.canonical
        assert k is None or in_rank(k, self.rank)
        object.__setattr__(self, "_std_k", k is not None and self._is_std_k(k))

    def _is_std_k(self, k):
        if self.tag == "cp2":
            head = (-3,)
        elif self.tag == "hirz" and self.rank >= 2:
            head = (-(self.k_hirz + 2), -2)
        else:
            return False
        return (
            all(k.get(i, 0) == h for i, h in enumerate(head))
            and list(k.values()).count(1) - head.count(1) == self.rank - len(head)
        )

    def pair(self, x, y):
        if self.tag == "cp2":
            return 2 * x.get(0, 0) * y.get(0, 0) - ref_sdot(x, y)
        if self.tag == "hirz":
            x0, x1, y0, y1 = x.get(0, 0), x.get(1, 0), y.get(0, 0), y.get(1, 0)
            s = x0 * y1 + x1 * y0 - self.k_hirz * x1 * y1
            return s - (ref_sdot(x, y) - x0 * y0 - x1 * y1)
        g = self.gram
        return sum(v * sum(g[i][j] * w for j, w in y.items()) for i, v in x.items())

    def sq(self, x):
        return self.pair(x, x)

    def sparse_gram(self, xs):
        if self.tag not in ("cp2", "hirz"):
            raise WppError(f"no sparse pairing structure for a {self.tag} lattice")
        by_slot = {}
        for i, x in enumerate(xs):
            for s, v in x.items():
                by_slot.setdefault(s, []).append((i, v))
        hirz = self.tag == "hirz"
        head = (0, -self.k_hirz) if hirz else (1, -1)
        gram = {}
        for s, bucket in by_slot.items():
            w = head[s] if s < 2 else -1
            if not w:
                continue
            for a, (i, vi) in enumerate(bucket):
                for j, vj in bucket[a:]:
                    gram[i, j] = gram.get((i, j), 0) + w * vi * vj
        if hirz:
            for i, vi in by_slot.get(0, ()):
                for j, vj in by_slot.get(1, ()):
                    key = (i, j) if i <= j else (j, i)
                    gram[key] = gram.get(key, 0) + (2 if i == j else 1) * vi * vj
        return {key: g for key, g in gram.items() if g}

    def k_pair(self, x):
        if self.canonical is None:
            raise MissingClasses("lattice has no canonical class")
        if self._std_k:
            if self.tag == "cp2":
                return -2 * x.get(0, 0) - sum(x.values())
            return (self.k_hirz - 1) * x.get(1, 0) - x.get(0, 0) - sum(x.values())
        return self.pair(self.canonical, x)

    def gram_rows(self):
        if self.gram is not None:
            return self.gram
        return tuple(
            tuple(self.pair({i: 1}, {j: 1}) for j in range(self.rank)) for i in range(self.rank)
        )

    def blowup(self, count=1):
        r = self.rank
        k = None
        if self.canonical is not None:
            k = {**self.canonical, **dict.fromkeys(range(r, r + count), 1)}
        gram = None
        if self.tag == "generic":
            g = tuple(row + (0,) * count for row in self.gram)
            gram = g + tuple(
                (0,) * (r + j) + (-1,) + (0,) * (count - j - 1) for j in range(count)
            )
        return ref_Lattice(self.tag, r + count, self.k_hirz, gram, k)

    def to_new(self):
        """The same form as a head-block Lattice."""
        if self.tag == "cp2":
            return Lattice(CP2_HEAD, self.rank, canonical=self.canonical)
        if self.tag == "hirz":
            return Lattice(((0, 1), (1, -self.k_hirz)), self.rank, canonical=self.canonical)
        return generic_lattice(self.gram, canonical=self.canonical)


def ref_contract_lattice(lat, e):
    """The earlier _contract_lattice, on reference lattices."""
    rank = lat.rank
    t = next(iter(e)) if len(e) == 1 and 1 in e.values() else None
    if t is not None:
        if lat.tag == "generic":
            ok = lat.gram_rows()[t][t] == -1
        else:
            ok = (lat.tag == "cp2" and t >= 1) or (lat.tag == "hirz" and t >= 2)
        if ok:

            def drop(x, _t=t):
                return {(i - 1 if i > _t else i): v for i, v in x.items() if i != _t}

            k2 = None if lat.canonical is None else drop(lat.canonical)
            if lat.tag == "cp2":
                lat2 = ref_Lattice("cp2", rank - 1, canonical=k2)
                if k2 is not None and lat2.canonical != cp2_lattice(rank - 2).canonical:
                    raise LemmaViolated("contracted canonical class is not standard")
            elif lat.tag == "hirz":
                lat2 = ref_Lattice("hirz", rank - 1, k_hirz=lat.k_hirz, canonical=k2)
            else:
                g = lat.gram_rows()
                idx = [i for i in range(rank) if i != t]
                g2 = tuple(tuple(g[i][j] + g[i][t] * g[j][t] for j in idx) for i in idx)
                lat2 = ref_Lattice("generic", rank - 1, gram=g2, canonical=k2)
            return lat2, drop, True
    g_rows, ed = lat.gram_rows(), dense(e, rank)
    func = tuple(dot(row, ed) for row in g_rows)
    kernel, witness = functional_kernel_basis(func)
    inv_t = tuple(zip(*mat_inverse_int(kernel + (witness,))))

    def to_new(x):
        xe = lat.pair(x, e)
        x_perp = dense(vadd(x, {i: xe * v for i, v in e.items()}) if xe else x, rank)
        coords = tuple(dot(inv_t[i], x_perp) for i in range(rank))
        assert coords[-1] == 0
        return sparse(coords[:-1])

    kern = [sparse(k) for k in kernel]
    gram2 = tuple(
        tuple(lat.pair(kern[i], kern[j]) for j in range(rank - 1)) for i in range(rank - 1)
    )
    k2 = None if lat.canonical is None else to_new(vsub(lat.canonical, e))
    return ref_Lattice("generic", rank - 1, gram=gram2, canonical=k2), to_new, False


def ref_to_cp2(lat):
    """The earlier to_cp2 on a ruled reference lattice, with T K compared with
    the standard class in full."""
    r, k = lat.rank, lat.k_hirz
    b = min(3, r)
    if k < 0:
        raise WppError("normalise k >= 0 before converting")
    if k % 2 == 0 and r < 3:
        raise WppError("even-k conversion needs an exceptional basis vector")
    fl = k // 2
    shear = ((1, -fl, 0), (0, 1, 0), (0, 0, 1))
    unshear = ((1, fl, 0), (0, 1, 0), (0, 0, 1))
    if k % 2 == 1:
        m1, m1_inv = ((1, 0, 0), (-1, 1, 0), (0, 0, 1)), ((1, 0, 0), (1, 1, 0), (0, 0, 1))
    else:
        m1, m1_inv = ((1, 1, 1), (0, -1, -1), (-1, 0, -1)), ((1, 1, 0), (1, 0, 1), (-1, -1, -1))

    def lead(m):
        return tuple(row[:b] for row in m[:b])

    t = _block_mul(lead(m1), lead(shear))
    t_inv = _block_mul(lead(unshear), lead(m1_inv))
    out = ref_Lattice("cp2", r, canonical=cp2_lattice(r - 1).canonical)
    for i in range(b):
        for j in range(i, b):
            assert out.pair(mat_vec(t, {i: 1}), mat_vec(t, {j: 1})) == lat.pair({i: 1}, {j: 1})
    if lat.canonical is not None and mat_vec(t, lat.canonical) != out.canonical:
        raise WppError("canonical class does not convert to the standard one")
    return out, t, t_inv


# --- drawn lattices and classes ---------------------------------------------------------


def canonicals(rank, head):
    """The standard class of the head, or one moved by 1 in a drawn slot, or
    none."""
    std = {i: 1 for i in range(rank)}
    for i, v in enumerate(head):
        std[i] = v
    std = {i: v for i, v in std.items() if v}
    return st.one_of(
        st.just(std),
        st.integers(0, rank - 1).map(lambda s: {**std, s: std.get(s, 0) + 1}),
        st.none(),
    )


@st.composite
def ref_lattices(draw):
    kind = draw(st.sampled_from(("cp2", "hirz", "generic")))
    if kind == "cp2":
        rank = draw(st.integers(1, 8))
        k = draw(canonicals(rank, (-3,)))
        return ref_Lattice("cp2", rank, canonical=k)
    if kind == "hirz":
        rank, kh = draw(st.integers(2, 8)), draw(st.integers(0, 5))
        k = draw(canonicals(rank, (-(kh + 2), -2)))
        return ref_Lattice("hirz", rank, k_hirz=kh, canonical=k)
    # an abstract chain: self-intersections on the diagonal, 1 between neighbours
    sels = draw(st.lists(st.integers(-4, 1), min_size=1, max_size=7))
    n = len(sels)
    gram = tuple(
        tuple(sels[i] if i == j else int(abs(i - j) == 1) for j in range(n)) for i in range(n)
    )
    k = draw(st.one_of(st.none(), st.just({i: -2 - s for i, s in enumerate(sels) if -2 - s})))
    return ref_Lattice("generic", n, gram=gram, canonical=k)


def classes(rank):
    return st.dictionaries(st.integers(0, rank - 1), st.integers(-4, 4).filter(bool), max_size=rank)


@st.composite
def lattice_and_classes(draw):
    ref = draw(ref_lattices())
    return ref, draw(st.lists(classes(ref.rank), min_size=1, max_size=6))


# --- the comparisons ---------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(lattice_and_classes())
def test_pairings_match(case):
    ref, xs = case
    lat = ref.to_new()
    assert lat.rank == ref.rank and lat.gram_rows() == ref.gram_rows()
    for x in xs:
        assert lat.sq(x) == ref.sq(x)
        assert lat.gram_row(x) == [ref.pair(x, {j: 1}) for j in range(ref.rank)]
        pair_x = lat.pairing(x)
        for y in xs + [{}]:
            assert lat.pair(x, y) == ref.pair(x, y) == pair_x(y)
        if ref.canonical is None:
            with pytest.raises(MissingClasses):
                lat.k_pair(x)
        else:
            assert lat.k_pair(x) == ref.k_pair(x)
    if ref.tag == "generic":
        with pytest.raises(WppError):
            ref.sparse_gram(xs)
        m = len(xs)
        want = {(i, j): g for i in range(m) for j in range(i, m) if (g := ref.pair(xs[i], xs[j]))}
    else:
        want = ref.sparse_gram(xs)
    assert lat.sparse_gram(xs) == want


@settings(max_examples=200, deadline=None)
@given(lattice_and_classes(), st.integers(1, 4))
def test_blowups_match(case, count):
    """The same form and canonical class; an abstract chain now grows a tail
    where the earlier class grew its gram. The blowup carries the derived
    fields a fresh lattice computes."""
    ref, xs = case
    lat, ref = ref.to_new().blowup(count), ref.blowup(count)
    assert (lat.rank, lat.gram_rows(), lat.canonical) == (ref.rank, ref.gram_rows(), ref.canonical)
    fresh = Lattice(lat.head, lat.rank, canonical=lat.canonical)
    assert lat == fresh and (lat._rows, lat._kc) == (fresh._rows, fresh._kc)
    for x in xs + [{ref.rank - 1: 1}]:
        assert lat.sq(x) == ref.sq(x)
        if ref.canonical is not None:
            assert lat.k_pair(x) == ref.k_pair(x)


def minus_one_classes(ref):
    """Every basis vector of square -1, and H - e_1 - e_2 on cp2."""
    out = [{t: 1} for t in range(ref.rank) if ref.sq({t: 1}) == -1]
    if ref.tag == "cp2" and ref.rank >= 3:
        out.append({0: 1, 1: -1, 2: -1})
    return out


@settings(max_examples=200, deadline=None)
@given(lattice_and_classes())
def test_contractions_match(case):
    """The basis-vector rule gives the reference's lattice and map wherever
    the reference took it; elsewhere (the head rule on F_1's B, and the
    kernel path) the contracted forms agree on the images of classes
    orthogonal to e."""
    ref, xs = case
    lat = ref.to_new()
    for e in minus_one_classes(ref):
        try:
            ref2, ref_map, by_rule = ref_contract_lattice(ref, e)
        except LemmaViolated:
            # a cp2 lattice with a K off the standard one on a tail slot: the
            # earlier rule compared the contracted K with the standard one
            assert ref.tag == "cp2" and not ref._std_k
            continue
        lat2, new_map = _contract_lattice(lat, e)
        perp = [vadd(x, {i: ref.pair(x, e) * v for i, v in e.items()}) for x in xs]
        if by_rule:
            assert lat2 == ref2.to_new()
            assert [new_map(x) for x in perp] == [ref_map(x) for x in perp]
        for x in perp:
            for y in perp:
                assert lat2.pair(new_map(x), new_map(y)) == ref2.pair(ref_map(x), ref_map(y))
            if ref2.canonical is not None:
                assert lat2.k_pair(new_map(x)) == ref2.k_pair(ref_map(x))


@settings(max_examples=200, deadline=None)
@given(ref_lattices().filter(lambda ref: ref.tag == "hirz"))
def test_to_cp2_certificates_match(ref):
    lat = ref.to_new()
    try:
        want = ref_to_cp2(ref)
    except WppError as err:
        with pytest.raises(WppError, match=f"^{re.escape(str(err))}$"):
            to_cp2(lat)
        return
    out, t, t_inv = to_cp2(lat)
    assert (out, t, t_inv) == (want[0].to_new(), want[1], want[2])


def test_forms_other_than_cp2_and_ruled_have_no_conversion():
    """A head that is neither (1) nor a ruled head has no conversion; a ruled
    head converts however the lattice was made."""
    for lat in (generic_lattice(((-2,),)), Lattice(((1, 1), (1, 0)), 3), Lattice((), 2)):
        with pytest.raises(WppError, match="^no canonical cp2 form for this lattice$"):
            to_cp2(lat)
    made = generic_lattice(((0, 1), (1, -2)), canonical={0: -4, 1: -2}).blowup()
    assert to_cp2(made) == to_cp2(hirz_lattice(2, 1))
