"""The benchmark's workloads and the references their outputs are checked
against.

Each workload is one `equihom` CLI invocation whose input is fixed by
(kind, p, n): the program is deterministic, so the seed only orders jobs.
References are kept here rather than imported from `equihom`, so that a
change to the program cannot move its own yardstick: the Specht rows are
transcribed from the paper's table (the same rows as
`equihom.formulas.GOLDEN_TABLE`), and the sha256 of each workload's stdout
was recorded from the first commit the benchmark measured.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

# Rows of the paper's homology table for the 3-uniform matching complexes;
# every multiplicity is 1.
GOLDEN_ROWS = {
    (7, 1): ((5, 1, 1), (3, 3, 1)),
    (8, 1): ((6, 1, 1), (5, 2, 1), (4, 3, 1), (3, 3, 2), (5, 3)),
    (11, 2): (
        (8, 1, 1, 1), (7, 3, 1), (7, 2, 1, 1), (6, 4, 1), (6, 3, 2),
        (6, 3, 1, 1), (5, 4, 2), (5, 4, 1, 1), (5, 3, 3), (5, 3, 2, 1),
        (4, 3, 3, 1), (3, 3, 3, 2),
    ),
    (12, 2): (
        (8, 2, 1, 1), (7, 4, 1), (7, 3, 2), (7, 3, 1, 1), (6, 5, 1),
        (6, 4, 2), (6, 4, 1, 1), (6, 3, 3), (6, 3, 2, 1), (5, 5, 2),
        (5, 4, 3), (5, 4, 2, 1), (5, 3, 3, 1), (4, 3, 3, 2),
    ),
}


def hook_dimension(lam) -> int:
    """Dimension of the Specht module S^lam by the hook length formula."""
    n = sum(lam)
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, part in enumerate(lam):
        for j in range(part):
            hooks *= (part - j - 1) + (conj[j] - i - 1) + 1
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    return fact // hooks


_DEGREE_LINE = re.compile(r"^H~_(-?\d+): betti (\d+)  (.*)$")
_BETTI_LINE = re.compile(r"^b~_(-?\d+) = (\d+)$")


def parse_equivariant(text: str) -> dict:
    """{degree: (betti, {partition: multiplicity})} from `equivariant` text
    output."""
    out = {}
    for line in text.splitlines():
        m = _DEGREE_LINE.match(line)
        if not m:
            raise ValueError(f"unexpected equivariant output line {line!r}")
        mults = {}
        if m.group(3) != "0":
            for term in m.group(3).split(" + "):
                mult, _, shape = term.rpartition("*")
                lam = tuple(int(x) for x in shape[2:-1].split(","))
                mults[lam] = int(mult) if mult else 1
        out[int(m.group(1))] = (int(m.group(2)), mults)
    return out


def parse_betti(text: str) -> dict:
    """{degree: betti} from `homology` text output."""
    out = {}
    for line in text.splitlines():
        m = _BETTI_LINE.match(line)
        if not m:
            raise ValueError(f"unexpected homology output line {line!r}")
        out[int(m.group(1))] = int(m.group(2))
    return out


def golden_degree(n: int, degree: int, top: bool = False):
    """Check: H~_degree is the golden row (n, degree); with top=True it must
    also be the highest nonzero degree printed."""

    def check(text: str) -> list[str]:
        rows = parse_equivariant(text)
        want = {lam: 1 for lam in GOLDEN_ROWS[(n, degree)]}
        if degree not in rows:
            return [f"H~_{degree} missing from output"]
        betti, got = rows[degree]
        problems = []
        if got != want:
            problems.append(f"H~_{degree} is {got}, paper table says {want}")
        if betti != sum(hook_dimension(lam) for lam in want):
            problems.append(f"H~_{degree} has betti {betti}, not the hook sum")
        if top and max(rows) != degree:
            problems.append(f"top nonzero degree is {max(rows)}, not {degree}")
        return problems

    return check


def golden_betti(n: int, degree: int):
    """Check: b~_degree equals the sum of hook dimensions over the golden
    row (n, degree), and every other reduced Betti number is 0."""

    def check(text: str) -> list[str]:
        numbers = parse_betti(text)
        want = sum(hook_dimension(lam) for lam in GOLDEN_ROWS[(n, degree)])
        problems = []
        if numbers.get(degree) != want:
            problems.append(f"b~_{degree} is {numbers.get(degree)}, want {want}")
        others = {i: b for i, b in numbers.items() if i != degree and b}
        if others:
            problems.append(f"unexpected nonzero Betti numbers {others}")
        return problems

    return check


def hook_sums_match(text: str) -> list[str]:
    """Check: in every degree, the Specht multiplicities account for the
    printed Betti number."""
    problems = []
    for degree, (betti, mults) in parse_equivariant(text).items():
        total = sum(m * hook_dimension(lam) for lam, m in mults.items())
        if total != betti:
            problems.append(f"H~_{degree}: Specht dimensions sum to {total}, betti {betti}")
    return problems


@dataclass(frozen=True)
class Workload:
    """One CLI invocation, measured as a job in a fresh worker process.

    `args` is the argv after the global options.  With `cached`, set-up runs
    `build` with the same complex options through an empty `--cache-dir`,
    and every job reads the complex from that cache.  `diagnosis` names the
    self-time metrics that the ROADMAP says dominate this workload.
    """

    name: str
    args: tuple
    check: object = None
    sha256: str | None = None
    cached: bool = False
    diagnosis: tuple = ()
    diagnosis_source: str = ""

    def job_argv(self, cache_dir: str | None) -> list[str]:
        prefix = ["--cache-dir", cache_dir] if self.cached else []
        return prefix + list(self.args)

    def prepare_argv(self, cache_dir: str) -> list[str] | None:
        if not self.cached:
            return None
        return ["--cache-dir", cache_dir, "build", *self.args[1:]]

    def problems(self, stdout: str) -> list[str]:
        """Every way `stdout` differs from this workload's references."""
        problems = []
        if self.sha256 is not None:
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            if digest != self.sha256:
                problems.append(f"stdout sha256 {digest} != recorded {self.sha256}")
        if self.check is not None:
            try:
                problems.extend(self.check(stdout))
            except ValueError as exc:
                problems.append(str(exc))
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="matching-equivariant",
            args=("equivariant", "--complex", "matching", "--p", "3", "--n", "11"),
            check=golden_degree(11, 2, top=True),
            sha256="8d4a0654ef9116049cf964fc059d631a55befc6f33b0ec2fe32e089d844c490d",
            diagnosis=("linalg.eliminate_full_s",),
            diagnosis_source="ROADMAP baseline: full Gauss-Jordan on d_2 "
            "(4620x15400) is 13.5 s of 17.1 s",
        ),
        Workload(
            name="matching-betti-cached",
            args=("homology", "--complex", "matching", "--p", "3", "--n", "12"),
            check=golden_betti(12, 2),
            sha256="cd7c1e0b524c721c7d45ef89cbd70fd9e560a18194b7a102fc9c8033ec461374",
            cached=True,
            diagnosis=("linalg.eliminate_rank_s",),
            diagnosis_source="ROADMAP baseline: rank-only elimination of "
            "d_2 of M_3(12) takes 10.6 s",
        ),
        Workload(
            name="quillen-equivariant",
            args=("equivariant", "--complex", "quillen", "--p", "3", "--n", "8"),
            check=golden_degree(8, 1, top=True),
            sha256="72271f0c08e80891f349b41f4343439c729e0de96d4a4a3537e545188edbeec7",
            diagnosis=("complexes.enumerate_s", "complexes.order_complex_s"),
            diagnosis_source="ROADMAP item 3: 80% of Quillen time is spent "
            "before any linear algebra",
        ),
    )
}
