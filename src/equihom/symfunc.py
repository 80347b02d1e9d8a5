"""The graded ring of symmetric functions over Q, held in the Schur basis.

Every element is homogeneous with a sparse map from partitions to exact
rational Schur coefficients.  Power-sum and complete-homogeneous expansions
are used internally (plethysm, products) and converted back at the boundary.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .partitions import Partition, hook_dimension, partitions_of
from .permutations import centralizer_order


def _add_border_strips(lam: tuple, k: int):
    """All (mu, sign) with mu/lam a border strip of k boxes.

    A strip spanning rows a..b forces mu[i] = lam[i-1] + 1 for a < i <= b,
    which pins mu[a] = lam[b] + k - (b - a); sign is (-1)^(b-a).
    """
    l = len(lam)
    part = lambda i: lam[i] if i < l else 0
    out = []
    for a in range(l + 1):
        for b in range(a, a + k):
            head = part(b) + k - (b - a)
            if head < part(a) + 1:
                continue
            if a > 0 and head > lam[a - 1]:
                continue
            mu = (
                lam[:a]
                + (head,)
                + tuple(part(i - 1) + 1 for i in range(a + 1, b + 1))
                + lam[b + 1 :]
            )
            out.append((mu, -1 if (b - a) % 2 else 1))
    return out


def horizontal_strips(lam: tuple, k: int):
    """All mu with mu/lam a horizontal strip of k boxes (Pieri for h_k)."""
    l = len(lam)
    out = []

    def rec(i, remaining, prefix):
        if i == l:
            # possible new bottom row
            if remaining == 0:
                out.append(prefix)
            elif l == 0 or remaining <= lam[l - 1]:
                out.append(prefix + (remaining,))
            return
        # a boxes added to row i; at most lam[i-1] - lam[i] for i >= 1 so no
        # two added boxes share a column
        cap = remaining if i == 0 else min(remaining, lam[i - 1] - lam[i])
        for a in range(cap, -1, -1):
            rec(i + 1, remaining - a, prefix + (lam[i] + a,))

    rec(0, k, ())
    return out


@cache
def _power_to_schur(mu: Partition) -> dict:
    """Schur expansion of the power-sum product p_mu; values are the
    irreducible character values chi^lam(mu).

    Process-wide memo; functools.cache keeps lookups consistent under
    concurrent use (a race can at worst duplicate a computation).
    """
    acc = {(): 1}
    for k in mu:
        new = {}
        for lam, c in acc.items():
            for nu, sign in _add_border_strips(lam, k):
                new[nu] = new.get(nu, 0) + sign * c
        acc = {lam: c for lam, c in new.items() if c}
    return {Partition(lam): c for lam, c in acc.items()}


@cache
def _jacobi_trudi_h(lam: Partition) -> dict:
    """Expansion of s_lam in h-monomials: det(h_{lam_i - i + j}).

    Keys are the h-indices as weakly decreasing tuples (h_0 factors dropped),
    values integer coefficients.  Bitmask DP over column subsets.
    """
    l = len(lam)
    if l == 0:
        return {(): 1}

    @cache
    def rec(mask):
        i = bin(mask).count("1")
        if i == l:
            return {(): 1}
        out = {}
        for j in range(l):
            if mask >> j & 1:
                continue
            k = lam[i] - i + j
            if k < 0:
                continue
            sign = -1 if bin(mask >> (j + 1)).count("1") % 2 else 1
            for mono, c in rec(mask | 1 << j).items():
                key = tuple(sorted(mono + (k,), reverse=True)) if k else mono
                out[key] = out.get(key, 0) + sign * c
        return out

    result = rec(0)
    rec.cache_clear()
    return result


class SymmetricFunction:
    """Homogeneous symmetric function with exact rational Schur coefficients."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms=None):
        clean = {}
        for lam, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                lam = Partition(lam)
                if lam.n != degree:
                    raise ValueError(
                        f"term s_{tuple(lam)} has degree {lam.n}, expected {degree}"
                    )
                clean[lam] = c
        self.degree = degree
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, degree: int = 0):
        return cls(degree, {})

    @classmethod
    def unit(cls):
        return cls(0, {Partition(): 1})

    @classmethod
    def schur(cls, lam):
        lam = Partition(lam)
        return cls(lam.n, {lam: 1})

    @classmethod
    def from_power_sums(cls, pterms: dict):
        """Build from a power-sum expansion {mu: coeff}."""
        degrees = {Partition(mu).n for mu in pterms}
        if len(degrees) > 1:
            raise ValueError("power-sum expansion is not homogeneous")
        degree = degrees.pop() if degrees else 0
        out = {}
        for mu, c in pterms.items():
            c = Fraction(c)
            if not c:
                continue
            for lam, chi in _power_to_schur(Partition(mu)).items():
                out[lam] = out.get(lam, Fraction(0)) + c * chi
        return cls(degree, out)

    # -- basics ------------------------------------------------------------

    def coefficient(self, lam) -> Fraction:
        return self.terms.get(Partition(lam), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def is_schur_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.terms.values())

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def dimension(self):
        """Dimension of the virtual representation with this characteristic."""
        total = sum(c * hook_dimension(lam) for lam, c in self.terms.items())
        total = Fraction(total)
        return int(total) if total.denominator == 1 else total

    def support(self) -> list[Partition]:
        return sorted(self.terms, reverse=True)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, SymmetricFunction):
            return NotImplemented
        if not self.terms and not other.terms:
            return True
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, SymmetricFunction):
            return NotImplemented
        if self.is_zero():
            return SymmetricFunction(other.degree, other.terms)
        if other.is_zero():
            return SymmetricFunction(self.degree, self.terms)
        if self.degree != other.degree:
            raise ValueError(
                f"cannot add degrees {self.degree} and {other.degree}"
            )
        out = dict(self.terms)
        for lam, c in other.terms.items():
            out[lam] = out.get(lam, Fraction(0)) + c
        return SymmetricFunction(self.degree, out)

    def __neg__(self):
        return SymmetricFunction(self.degree, {l: -c for l, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SymmetricFunction):
            return multiply(self, other)
        return SymmetricFunction(
            self.degree, {l: c * Fraction(other) for l, c in self.terms.items()}
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __repr__(self):
        return f"SymmetricFunction({self.to_text()!r})"

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for lam in self.support():
            c = self.terms[lam]
            body = "s[" + ",".join(str(x) for x in lam) + "]"
            mag = abs(c)
            word = body if mag == 1 else f"{mag}*{body}"
            if not pieces:
                pieces.append(word if c > 0 else f"-{word}")
            else:
                pieces.append(("+ " if c > 0 else "- ") + word)
        return " ".join(pieces)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "basis": "schur",
            "terms": [
                {"partition": list(lam), "coeff": str(self.terms[lam])}
                for lam in self.support()
            ],
        }

    @classmethod
    def from_json(cls, data: dict):
        if data.get("basis", "schur") != "schur":
            raise ValueError("only schur-basis JSON is supported")
        terms = {
            Partition(t["partition"]): Fraction(t["coeff"]) for t in data["terms"]
        }
        return cls(data["degree"], terms)


# -- named generators --------------------------------------------------------


def from_h(n: int) -> SymmetricFunction:
    """Complete homogeneous h_n = s_(n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return SymmetricFunction.schur((n,) if n else ())


def from_e(n: int) -> SymmetricFunction:
    """Elementary e_n = s_(1^n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return SymmetricFunction.schur((1,) * n)


def from_power_product(mu) -> SymmetricFunction:
    """The power-sum product p_mu in the Schur basis."""
    mu = Partition(mu)
    return SymmetricFunction(mu.n, dict(_power_to_schur(mu)))


# -- ring operations ---------------------------------------------------------


def _pieri_h_map(terms: dict, k: int) -> dict:
    if k == 0:
        return dict(terms)
    out = {}
    for lam, c in terms.items():
        for mu in horizontal_strips(tuple(lam), k):
            mu = Partition(mu)
            out[mu] = out.get(mu, Fraction(0)) + c
    return out


def multiply(f: SymmetricFunction, g: SymmetricFunction) -> SymmetricFunction:
    """Product in the ring: one factor goes through Jacobi-Trudi into the
    h basis, then iterated Pieri expansions against the other."""
    degree = f.degree + g.degree
    if f.is_zero() or g.is_zero():
        return SymmetricFunction.zero(degree)

    def jt_load(fn):
        return sum(1 << len(lam) for lam in fn.terms)

    if jt_load(f) < jt_load(g):
        f, g = g, f
    out = {}
    for mu in sorted(g.terms, reverse=True):
        c = g.terms[mu]
        for mono, m in _jacobi_trudi_h(mu).items():
            acc = {lam: v * (c * m) for lam, v in f.terms.items()}
            for k in mono:
                acc = _pieri_h_map(acc, k)
            for lam, v in acc.items():
                out[lam] = out.get(lam, Fraction(0)) + v
    return SymmetricFunction(degree, out)


def schur_to_power(f: SymmetricFunction) -> dict:
    """Power-sum expansion {mu: Fraction} of f."""
    out = {}
    for mu in partitions_of(f.degree):
        chi = _power_to_schur(mu)
        val = sum((c * chi[lam] for lam, c in f.terms.items() if lam in chi),
                  Fraction(0))
        if val:
            out[mu] = val / centralizer_order(mu)
    return out


def _pmul(d1: dict, d2: dict) -> dict:
    out = {}
    for nu1, c1 in d1.items():
        for nu2, c2 in d2.items():
            key = tuple(sorted(nu1 + nu2, reverse=True))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return out


def plethysm(f: SymmetricFunction, g: SymmetricFunction) -> SymmetricFunction:
    """f[g], by substituting p_k -> p_k[g] in the power-sum expansion of f,
    where p_k[g] multiplies every power-sum index of g by k."""
    degree = f.degree * g.degree
    if f.is_zero():
        return SymmetricFunction.zero(degree)
    if g.degree == 0 and f.degree > 0:
        if g.is_zero():
            return SymmetricFunction.zero(0)
        if g != SymmetricFunction.unit():
            raise ValueError("plethysm into a degree-0 element other than the"
                             " unit is undefined here")
        total = sum(schur_to_power(f).values(), Fraction(0))
        return SymmetricFunction(0, {Partition(): total})
    fp = schur_to_power(f)
    gp = {tuple(mu): c for mu, c in schur_to_power(g).items()}
    out_p = {}
    for mu, c in fp.items():
        term = {(): Fraction(1)}
        for part in mu:
            scaled = {}
            for nu, d in gp.items():
                key = tuple(sorted((part * x for x in nu), reverse=True))
                scaled[key] = scaled.get(key, Fraction(0)) + d
            term = _pmul(term, scaled)
        for nu, d in term.items():
            out_p[nu] = out_p.get(nu, Fraction(0)) + c * d
    return SymmetricFunction.from_power_sums(out_p)


def restrict_length(f: SymmetricFunction, r: int) -> SymmetricFunction:
    """Keep exactly the Schur terms indexed by partitions with r parts."""
    return SymmetricFunction(
        f.degree, {lam: c for lam, c in f.terms.items() if len(lam) == r}
    )


def add_column(f: SymmetricFunction, r: int) -> SymmetricFunction:
    """Linear map s_lam -> s_(lam with one box added to each of the first r
    rows); every term must have at most r parts."""
    out = {}
    for lam, c in f.terms.items():
        out[lam.add_one_to_first(r)] = c
    return SymmetricFunction(f.degree + r, out)


def hall_inner_product(f: SymmetricFunction, g: SymmetricFunction) -> Fraction:
    """Standard Hall pairing: Schur functions are orthonormal."""
    if f.degree != g.degree and f.terms and g.terms:
        return Fraction(0)
    return sum(
        (c * g.terms[lam] for lam, c in f.terms.items() if lam in g.terms),
        Fraction(0),
    )
