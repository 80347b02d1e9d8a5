"""Outside-in tracing for the benchmark worker.

`install` wraps public `equihom` functions at the name each caller looks up
(`homology.eliminate`, `cli.betti`, ...) so that every call records a span:
name, start, end, parent, `ru_maxrss` before and after, and counts taken
from its arguments and result.  No source is edited.  Spans stay in memory
and are turned into per-layer metrics when the job ends.

Counting that walks big results (nnz, coefficient sizes) runs inside a
`trace.bookkeeping` span, so its cost is charged to the tracer and not to the
layer that happens to be the caller.  Self times therefore sum exactly to the
root span, which is the traced `wall_s`.
"""

from __future__ import annotations

import resource
import time
from functools import wraps


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Span:
    __slots__ = ("name", "start", "end", "parent", "rss_before", "rss_after", "attrs")

    def __init__(self, name, start, end, parent, rss_before=0.0, rss_after=0.0, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index into the span list, or None for a root
        self.rss_before = rss_before
        self.rss_after = rss_after
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one single-threaded job."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        # id of each boundary matrix not yet eliminated -> its degree
        self.degree_of: dict[int, int] = {}

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, 0.0, 0.0, parent, maxrss_mb()))
        index = len(self.spans) - 1
        self._open.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def end(self, index: int):
        span = self.spans[index]
        span.end = time.perf_counter()
        span.rss_after = maxrss_mb()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")

    def call(self, name, fn, args, kwargs, annotate=None):
        index = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end(index)
        if annotate is not None:
            book = self.begin("trace.bookkeeping")
            try:
                annotate(self, self.spans[index].attrs, args, kwargs, result)
            finally:
                self.end(book)
        return result

    def wrap(self, owner, attr: str, name: str, annotate=None):
        """Replace owner.attr by a traced version.  A name the program no
        longer has raises, so that a moved layer boundary fails the traced
        run instead of reading 0."""
        fn = getattr(owner, attr, None)
        if not callable(fn):
            raise AttributeError(f"cannot trace {name}: {owner!r} has no callable {attr!r}")

        @wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, annotate)

        setattr(owner, attr, traced)


# -- counts taken at layer boundaries ---------------------------------------


def _note_boundary(tracer, attrs, args, kwargs, result):
    tracer.degree_of[id(result)] = args[1]
    attrs["degree"] = args[1]


def _note_eliminate(tracer, attrs, args, kwargs, result):
    matrix = args[0]
    attrs["degree"] = tracer.degree_of.pop(id(matrix), None)
    attrs["shape"] = [matrix.nrows, matrix.ncols]
    attrs["full"] = bool(kwargs.get("full", args[1] if len(args) > 1 else False))
    attrs["nnz_in"] = sum(len(r) for r in matrix.rows)
    attrs["nnz_out"] = sum(len(r) for r in result.rows)
    attrs["rank"] = result.rank
    attrs["max_coeff_bits"] = max(
        (abs(v).bit_length() for r in result.rows for v in r.values()), default=0
    )


def _note_complex_user(tracer, attrs, args, kwargs, result):
    cx = args[0]
    attrs["vertices"] = cx.n_vertices
    attrs["faces"] = sum(cx.f_vector())


def _note_table(tracer, attrs, args, kwargs, result):
    attrs["classes"] = len(result)
    attrs["table_size"] = sum(len(row) for row in result.values())


BUILDERS = (
    "cli.matching_complex",
    "cli.pcycle_complex",
    "cli.quillen_complex",
    "complexes.matching_complex",
    "complexes.enumerate_elementary_abelian",
    "complexes.order_complex",
)

# span name -> per-layer self-time metric
SELF_METRIC = {
    "cli.run": "cli.self_s",
    "SimplicialComplex.from_text": "cli.cache_read_s",
    "SimplicialComplex.to_text": "cli.cache_write_s",
    "cli.matching_complex": "complexes.build_s",
    "cli.pcycle_complex": "complexes.build_s",
    "cli.quillen_complex": "complexes.build_s",
    "complexes.matching_complex": "complexes.build_s",
    "complexes.enumerate_elementary_abelian": "complexes.enumerate_s",
    "complexes.order_complex": "complexes.order_complex_s",
    "homology.boundary_matrix": "homology.boundary_s",
    "cli.equivariant_decomposition": "homology.equivariant_self_s",
    "cli.betti": "homology.betti_self_s",
    "homology.character_table": "characters.table_s",
    "trace.bookkeeping": "trace.bookkeeping_s",
}
SELF_METRICS = sorted(set(SELF_METRIC.values()) | {
    "linalg.eliminate_full_s", "linalg.eliminate_rank_s",
})


def self_metric(span: Span) -> str:
    if span.name == "homology.eliminate":
        return "linalg.eliminate_full_s" if span.attrs.get("full") else "linalg.eliminate_rank_s"
    return SELF_METRIC[span.name]


def install(tracer: Tracer, equihom) -> None:
    """Wrap the layer entry points of an imported `equihom` package."""
    cli, complexes, homology = equihom.cli, equihom.complexes, equihom.homology
    for name in ("matching_complex", "pcycle_complex", "quillen_complex"):
        tracer.wrap(cli, name, f"cli.{name}")
    for name in ("matching_complex", "enumerate_elementary_abelian", "order_complex"):
        tracer.wrap(complexes, name, f"complexes.{name}")
    tracer.wrap(homology, "boundary_matrix", "homology.boundary_matrix", _note_boundary)
    tracer.wrap(homology, "eliminate", "homology.eliminate", _note_eliminate)
    tracer.wrap(homology, "character_table", "homology.character_table", _note_table)
    tracer.wrap(cli, "equivariant_decomposition", "cli.equivariant_decomposition",
                _note_complex_user)
    tracer.wrap(cli, "betti", "cli.betti", _note_complex_user)
    cls = complexes.SimplicialComplex
    from_text = cls.from_text  # bound to the class
    tracer.wrap(cls, "to_text", "SimplicialComplex.to_text")

    @wraps(from_text)
    def traced_from_text(*args, **kwargs):
        return tracer.call("SimplicialComplex.from_text", from_text, args, kwargs)

    cls.from_text = staticmethod(traced_from_text)


# -- span arithmetic ----------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children are clipped to the parent and merged)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for child in sorted(children.get(index, []), key=lambda s: s.start):
            start, end = max(child.start, span.start), min(child.end, span.end)
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(span.duration - covered)
    return out


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one traced job whose root span is `cli.run`."""
    metrics = {name: 0.0 for name in SELF_METRICS}
    for span, own in zip(spans, self_times(spans)):
        metrics[self_metric(span)] += own
    elims = [s for s in spans if s.name == "homology.eliminate"]
    nnz_in = sum(s.attrs["nnz_in"] for s in elims)
    nnz_out = sum(s.attrs["nnz_out"] for s in elims)
    metrics["linalg.nnz_in"] = nnz_in
    metrics["linalg.nnz_out"] = nnz_out
    metrics["linalg.fill_ratio"] = nnz_out / nnz_in if nnz_in else 0.0
    metrics["linalg.rank"] = sum(s.attrs["rank"] for s in elims)
    metrics["linalg.max_coeff_bits"] = max(
        (s.attrs["max_coeff_bits"] for s in elims), default=0
    )
    metrics["linalg.rss_hwm_delta_mb"] = sum(s.rss_after - s.rss_before for s in elims)
    outer_builds = [
        s for s in spans
        if s.name in BUILDERS
        and (s.parent is None or spans[s.parent].name not in BUILDERS)
    ]
    metrics["complexes.rss_hwm_delta_mb"] = sum(
        s.rss_after - s.rss_before for s in outer_builds
    )
    users = [s for s in spans if s.name in ("cli.betti", "cli.equivariant_decomposition")]
    metrics["complexes.vertices"] = sum(s.attrs["vertices"] for s in users)
    metrics["complexes.faces"] = sum(s.attrs["faces"] for s in users)
    tables = [s for s in spans if s.name == "homology.character_table"]
    # one trace per cycle type: the classes are the rows of the table used
    metrics["homology.classes"] = sum(s.attrs["classes"] for s in tables)
    metrics["characters.table_size"] = sum(s.attrs["table_size"] for s in tables)
    roots = [s for s in spans if s.parent is None]
    metrics["trace.wall_s"] = sum(s.duration for s in roots)
    return metrics


def eliminations(spans: list[Span]) -> list[dict]:
    """One record per `eliminate` call, in call order."""
    return [
        dict(s.attrs, seconds=s.duration, rss_hwm_delta_mb=s.rss_after - s.rss_before)
        for s in spans
        if s.name == "homology.eliminate"
    ]
