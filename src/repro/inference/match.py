"""SDO_RDF_MATCH: the SQL-based RDF querying scheme.

The paper's table function (section 6.1)::

    SDO_RDF_MATCH(query, models, rulebases, aliases, filter)
        RETURN ANYDATASET

``query`` is a list of triple patterns; ``models`` the graphs to search;
``rulebases`` the inference rules whose pre-computed rules index extends
the data; ``aliases`` the namespace abbreviations; ``filter`` a
predicate over the variables.  The result is a table whose columns are
the query variables.

Evaluation follows the Chong et al. scheme the paper cites: each triple
pattern becomes a self-join over the triples dataset, executed as one
SQL statement against ``rdf_link$`` (UNION the ``rdf_inferred$`` rows of
a covering rules index when rulebases are given).  Joins happen on
VALUE_IDs; lexical forms are resolved only for the final projection.

Compilation is staged (see :mod:`repro.inference.plan`):

1. parse patterns and filter;
2. build the logical :class:`~repro.inference.plan.QueryPlan` —
   constants resolved to VALUE_IDs, joins reordered most-selective
   first using :mod:`repro.inference.stats`, filter/ORDER BY/LIMIT
   pushed into the generated SQL where provably equivalent;
3. cache the plan in ``store.plan_cache`` keyed on the raw query
   shape, so a repeated query skips stages 1-2 entirely (any data
   change bumps ``data_version`` and invalidates cached plans);
4. execute, resolving result VALUE_IDs to terms in batches.

``explain=True`` returns the :class:`MatchExplanation` for the query
instead of executing it; ``optimize=False`` reproduces the legacy
textual-order compile (no statistics, no pushdown, no caching) as a
reference baseline.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import QueryError
from repro.inference.filters import FilterExpression, parse_filter
from repro.inference.patterns import TriplePattern, parse_pattern_list
from repro.inference.plan import (
    QueryPlan,
    build_plan,
    classify_replica_shape,
    plan_key,
)
from repro.obs.metrics import DEFAULT_COUNT_BUCKETS as _COUNT_BUCKETS
from repro.obs.reqctx import current_trace
from repro.rdf.namespaces import AliasSet
from repro.rdf.terms import RDFTerm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.store import RDFStore

#: Parsed-query cache for the replica fast path.  The SQL pipeline's
#: plan cache already skips parsing on a hit; the replica path must
#: not re-pay it on every query.  Keyed on raw text (like plan_key)
#: and holding only immutable parse artefacts — the pattern tuple,
#: the filter AST, the bound-variable set — so entries are shared
#: safely across stores and threads.  Bounded FIFO: parse results
#: never go stale, so eviction order is a non-issue.
_PARSE_CACHE: dict[tuple, tuple] = {}
_PARSE_CACHE_CAP = 256


class MatchRow:
    """One result row: variable name -> value.

    Supports both mapping access (``row["name"]``) and attribute access
    (``row.name``), mirroring the SQL column style of the paper's
    Figure 8 (``a.name``).  Values are lexical strings; the full terms
    are available via :meth:`term`.
    """

    def __init__(self, terms: dict[str, RDFTerm]) -> None:
        self._terms = terms

    def term(self, name: str) -> RDFTerm:
        """The bound RDF term for a variable."""
        return self._terms[name]

    def __getitem__(self, name: str) -> str:
        return self._terms[name].lexical

    def __getattr__(self, name: str) -> str:
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self._terms[name].lexical
        except KeyError:
            raise AttributeError(name) from None

    def keys(self) -> list[str]:
        return list(self._terms)

    def as_dict(self) -> dict[str, str]:
        return {name: term.lexical for name, term in self._terms.items()}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MatchRow):
            return self._terms == other._terms
        if isinstance(other, dict):
            return self.as_dict() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v.lexical!r}"
                          for k, v in self._terms.items())
        return f"MatchRow({inner})"


class MatchExplanation:
    """The EXPLAIN surface of one SDO_RDF_MATCH query.

    Returned by ``sdo_rdf_match(..., explain=True)`` instead of rows:
    the chosen join order with selectivity estimates, what was pushed
    into SQL, the generated statement, whether the plan came from the
    cache, and which engine would serve the query (``sql``, the
    result ``cache``, the in-memory ``replica``, or the sharded
    ``scatter`` merge).
    """

    def __init__(self, query: str, models: tuple[str, ...],
                 rulebases: tuple[str, ...], cache: str,
                 plan: QueryPlan, engine: str = "sql") -> None:
        self.query = query
        self.models = models
        self.rulebases = rulebases
        self.cache = cache  #: "hit", "miss", or "bypass" (optimize off)
        self.plan = plan
        self.engine = engine  #: "sql", "cache", "replica", or "scatter"

    def as_dict(self) -> dict[str, Any]:
        return {
            "query": self.query,
            "models": list(self.models),
            "rulebases": list(self.rulebases),
            "engine": self.engine,
            "plan_cache": self.cache,
            "plan": self.plan.as_dict(),
        }

    def render(self) -> str:
        """Human-readable EXPLAIN text (the ``repro explain`` output)."""
        plan = self.plan
        lines = [
            "SDO_RDF_MATCH plan",
            f"  query:           {self.query}",
            f"  models:          {', '.join(self.models)}",
        ]
        if self.rulebases:
            lines.append(f"  rulebases:       "
                         f"{', '.join(self.rulebases)}")
        lines.append(f"  engine:          {self.engine}")
        lines.append(f"  plan cache:      {self.cache}")
        if plan.impossible_reason is not None:
            lines.append(f"  impossible:      {plan.impossible_reason}")
            return "\n".join(lines)
        if plan.dataset_size is not None:
            lines.append(f"  dataset size:    {plan.dataset_size} "
                         "triples")
        reordered = "reordered" if plan.reordered else "textual order"
        lines.append(f"  join order:      {reordered}")
        for position, step in enumerate(plan.join_order, start=1):
            entry = (f"    {position}. {step.alias} {step.pattern} "
                     f"(pattern #{step.source_index + 1})")
            if step.estimate is not None:
                counts = " ".join(
                    f"{pos}={count}"
                    for pos, count in sorted(step.constant_counts.items()))
                entry += f"  est_rows={step.estimate:.1f}"
                if counts:
                    entry += f"  [{counts}]"
            lines.append(entry)
        lines.append(f"  distinct:        "
                     f"{'yes' if plan.distinct else 'no'}")
        if plan.pushed_filter is not None:
            lines.append(f"  pushed filter:   {plan.pushed_filter}")
        lines.append(
            "  residual filter: "
            + ("yes (python)" if plan.residual_filter is not None
               else "no"))
        if plan.order_by is None:
            order_line = "none"
        elif plan.order_by_pushed:
            order_line = f"?{plan.order_by} (pushed to SQL)"
        else:
            order_line = f"?{plan.order_by} (python sort)"
        lines.append(f"  order by:        {order_line}")
        if plan.limit is None:
            limit_line = "none"
        elif plan.limit_pushed:
            limit_line = f"{plan.limit} (pushed to SQL)"
        else:
            limit_line = f"{plan.limit} (python slice)"
        lines.append(f"  limit:           {limit_line}")
        lines.append(f"  sql:             {plan.sql}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"MatchExplanation(cache={self.cache!r}, "
                f"patterns={self.plan.pattern_count})")


def sdo_rdf_match(store: "RDFStore", query: str,
                  models: Sequence[str],
                  rulebases: Sequence[str] = (),
                  aliases: AliasSet | None = None,
                  filter: str | None = None,
                  order_by: str | None = None,
                  limit: int | None = None,
                  explain: bool = False,
                  optimize: bool = True):
    """Evaluate an SDO_RDF_MATCH query.

    :param store: the RDF store.
    :param query: the triple-pattern list, e.g.
        ``'(gov:files gov:terrorSuspect ?name)'``.
    :param models: model names to search (``SDO_RDF_MODELS``).
    :param rulebases: rulebase names (``SDO_RDF_RULEBASES``); requires a
        covering rules index to have been created, as in Oracle.
    :param aliases: namespace aliases (``SDO_RDF_ALIASES``).
    :param filter: optional filter predicate over the variables.
    :param order_by: optional variable name (with or without the
        leading ``?``) to sort the rows by, lexically — the Python
        convenience for the ORDER BY the paper wraps around the table
        function in SQL.
    :param limit: optional maximum number of rows, applied after
        filtering and ordering (pushed into the SQL whenever no
        Python-side residual filter remains).
    :param explain: return the :class:`MatchExplanation` instead of
        executing the query.
    :param optimize: False reproduces the legacy naive compile —
        textual join order, no pushdown, no plan cache.
    :returns: ``list[MatchRow]``, or :class:`MatchExplanation` when
        ``explain=True``.
    """
    # An engine that defines scatter_match (the sharded backend)
    # evaluates queries itself: single-subject-anchored patterns route
    # to one shard, everything else fans out per-pattern subplans and
    # merges in Python (see repro.inference.scatter).  Duck-typed so
    # this module never imports the sharded engine.
    scatter = getattr(store, "scatter_match", None)
    if scatter is not None:
        return scatter(query, models, rulebases=rulebases,
                       aliases=aliases, filter=filter,
                       order_by=order_by, limit=limit, explain=explain,
                       optimize=optimize)
    if not models:
        raise QueryError("SDO_RDF_MATCH requires at least one model")
    if limit is not None and limit < 0:
        raise QueryError(f"limit must be >= 0, got {limit}")
    observer = store.observer
    with observer.span("match.execute", models=",".join(models),
                       query=query) as span:
        aliases = aliases or AliasSet()
        if order_by is not None:
            order_by = order_by.lstrip("?")

        # ---- result-cache routing (see repro.cache) ----
        # An attached result cache serves a repeated query from memory
        # without parsing, planning, or SQL.  Keys are the *normalized*
        # query shape; the entry is valid only at the data_version it
        # was computed under, so any committed write invalidates on the
        # next lookup.  Duck-typed like the replica below.
        result_cache = getattr(store, "result_cache", None)
        cache_key = None
        cache_version = None
        if result_cache is not None and optimize and not explain:
            # Lazy import: repro.cache's normalizer reuses this
            # package's parsers, so a module-level import here would
            # be circular through repro.inference.__init__.
            from repro.cache.normalize import normalized_key
            cache_key = normalized_key(query, models, rulebases,
                                       aliases, filter, order_by, limit)
            # The version is read BEFORE executing: a write racing the
            # miss path can only make the stored rows *newer* than
            # their key (the next lookup invalidates and recomputes) —
            # never older, which would be a stale serve.
            cache_version = store.database.data_version
            cached = result_cache.lookup(cache_key, cache_version)
            if cached is not None:
                span.set("engine", "cache")
                span.set("rows", len(cached))
                request = current_trace()
                if request is not None:
                    request.annotate("query", query)
                    request.annotate("engine", "cache")
                if observer.enabled:
                    observer.counter("match.queries").inc()
                    observer.counter("match.result_cache_hits").inc()
                    observer.metrics.histogram(
                        "match.rows", "result rows per query",
                        buckets=_COUNT_BUCKETS).observe(len(cached))
                return list(cached)
            if observer.enabled:
                observer.counter("match.result_cache_misses").inc()

        # ---- replica routing (see repro.replica) ----
        # An attached in-memory replica serves eligible queries —
        # single model, no rulebases, a supported pattern shape —
        # straight from its version-gated partition arrays.  Anything
        # it declines (absent, stale, evicted, unsupported shape)
        # falls through to the SQL pipeline below.  Duck-typed so this
        # module never imports the replica subsystem.
        replica_manager = getattr(store, "replica", None)
        replica_eligible = (replica_manager is not None and optimize
                            and not rulebases and len(models) == 1)
        parsed_patterns: list[TriplePattern] | None = None
        parsed_filter: FilterExpression | None = None
        validated = False
        #: When the replica missed: the start of the SQL answer that
        #: is billed to it (ReplicaManager.charge).
        fallback_started: float | None = None
        if replica_eligible and not explain:
            # The exact parse + validation the SQL compile would do,
            # so the replica path raises identical QueryErrors —
            # cached on the raw text, since parse output depends only
            # on (query, aliases, filter).
            parse_key = (query, filter, tuple(sorted(
                (alias.namespace_id, alias.namespace_val)
                for alias in aliases)))
            parsed = _PARSE_CACHE.get(parse_key)
            if parsed is None:
                parsed_patterns = parse_pattern_list(query, aliases)
                parsed_filter = parse_filter(filter) if filter else None
                _check_filter_variables(parsed_filter, parsed_patterns,
                                        filter)
                bound = frozenset().union(
                    *(p.variables() for p in parsed_patterns))
                if len(_PARSE_CACHE) >= _PARSE_CACHE_CAP:
                    _PARSE_CACHE.pop(next(iter(_PARSE_CACHE)))
                _PARSE_CACHE[parse_key] = (tuple(parsed_patterns),
                                           parsed_filter, bound)
            else:
                parsed_patterns = list(parsed[0])
                parsed_filter, bound = parsed[1], parsed[2]
            if order_by is not None and order_by not in bound:
                raise QueryError(
                    f"order_by variable {order_by!r} is not bound "
                    "by the query")
            validated = True
            rows = replica_manager.try_match(
                store, parsed_patterns, models,
                filter_expression=parsed_filter, order_by=order_by,
                limit=limit, token=parse_key)
            if rows is not None:
                span.set("engine", "replica")
                span.set("rows", len(rows))
                request = current_trace()
                if request is not None:
                    request.annotate("query", query)
                    request.annotate("engine", "replica")
                if observer.enabled:
                    observer.counter("match.queries").inc()
                    observer.counter("match.replica_hits").inc()
                    observer.metrics.histogram(
                        "match.patterns",
                        "triple patterns per query",
                        buckets=range(1, 17)).observe(
                            len(parsed_patterns))
                    observer.metrics.histogram(
                        "match.rows", "result rows per query",
                        buckets=_COUNT_BUCKETS).observe(len(rows))
                if cache_key is not None:
                    _store_result(result_cache, cache_key,
                                  cache_version, rows)
                return rows
            fallback_started = perf_counter()
            if observer.enabled:
                observer.counter("match.replica_fallbacks").inc()

        # ---- plan: cache lookup, else full compile ----
        plan: QueryPlan | None = None
        cache_status = "bypass"
        key: tuple | None = None
        if optimize:
            key = plan_key(query, models, rulebases, aliases, filter,
                           order_by, limit)
            plan = store.plan_cache.lookup(
                key, store.database.data_version)
            cache_status = "miss" if plan is None else "hit"
        if plan is None:
            if parsed_patterns is not None:
                patterns = parsed_patterns
                filter_expression = parsed_filter
            else:
                patterns = parse_pattern_list(query, aliases)
                filter_expression = parse_filter(filter) if filter \
                    else None
            if not validated:
                _check_filter_variables(filter_expression, patterns,
                                        filter)
                if order_by is not None:
                    bound = set().union(
                        *(p.variables() for p in patterns))
                    if order_by not in bound:
                        raise QueryError(
                            f"order_by variable {order_by!r} is not "
                            "bound by the query")
            with observer.span("match.compile", patterns=len(patterns),
                               cache=cache_status):
                plan = build_plan(store, patterns, models, rulebases,
                                  filter_expression=filter_expression,
                                  order_by=order_by, limit=limit,
                                  optimize=optimize)
            if optimize and key is not None:
                store.plan_cache.store(key, plan)
            if observer.enabled and plan.reordered:
                observer.counter("match.join_reorders").inc()

        span.set("plan_cache", cache_status)
        if not explain:
            # Joined to the serving layer's slow-request log: the
            # request that ran this query learns its plan-cache fate
            # and query text even when the observer is disabled.
            request = current_trace()
            if request is not None:
                request.annotate("query", query)
                request.annotate("plan_cache", cache_status)
                request.annotate("engine", "sql")
        if observer.enabled:
            observer.counter("match.queries").inc()
            if optimize:
                observer.counter(
                    "match.plan_cache_hits" if cache_status == "hit"
                    else "match.plan_cache_misses").inc()
            observer.metrics.histogram(
                "match.patterns", "triple patterns per query",
                buckets=range(1, 17)).observe(plan.pattern_count)

        if explain:
            span.set("explain", True)
            span.set("plan_cache", cache_status)
            engine = "sql"
            if result_cache is not None and optimize:
                from repro.cache.normalize import normalized_key
                if result_cache.would_serve(
                        normalized_key(query, models, rulebases,
                                       aliases, filter, order_by,
                                       limit),
                        store.database.data_version):
                    engine = "cache"
            if engine == "sql" and replica_eligible:
                # Advisory: shape-eligible and the replica is fresh
                # (or would build inline).  An eviction between this
                # check and a later execution can still fall back.
                explain_patterns = parsed_patterns \
                    if parsed_patterns is not None \
                    else parse_pattern_list(query, aliases)
                if classify_replica_shape(explain_patterns) is not None \
                        and replica_manager.would_serve(store,
                                                        models[0]):
                    engine = "replica"
            return MatchExplanation(
                query=query, models=tuple(models),
                rulebases=tuple(rulebases), cache=cache_status,
                plan=plan, engine=engine)

        if plan.sql is None:
            # A constant with no VALUE_ID: nothing can match.
            span.set("rows", 0)
            span.set("short_circuit", "unknown-constant")
            if cache_key is not None:
                _store_result(result_cache, cache_key, cache_version,
                              [])
            return []

        # ---- execute + batched term resolution ----
        projection = plan.projection
        with observer.span("match.sql") as sql_span:
            fetched = store.database.query_all(plan.sql, plan.params)
            sql_span.set("fetched", len(fetched))
        rows: list[MatchRow] = []
        if plan.optimized:
            with observer.span("match.resolve") as resolve_span:
                wanted = {raw[index] for raw in fetched
                          for index in projection.values()}
                terms = store.values.get_terms(wanted)
                resolve_span.set("values", len(wanted))
            for raw in fetched:
                rows.append(MatchRow(
                    {name: terms[raw[index]]
                     for name, index in projection.items()}))
        else:
            for raw in fetched:
                rows.append(MatchRow(
                    {name: store.values.get_term(raw[index])
                     for name, index in projection.items()}))

        # ---- residual filter / order / limit ----
        residual = plan.residual_filter
        if residual is not None:
            rows = [row for row in rows
                    if residual.evaluate(dict(row._terms))]
        if order_by is not None and not plan.order_by_pushed:
            rows.sort(key=lambda match_row: match_row[order_by])
        if limit is not None and not plan.limit_pushed:
            rows = rows[:limit]
        span.set("rows", len(rows))
        if observer.enabled:
            observer.metrics.histogram(
                "match.rows", "result rows per query",
                buckets=_COUNT_BUCKETS).observe(len(rows))
        if fallback_started is not None:
            replica_manager.charge(perf_counter() - fallback_started)
        if cache_key is not None:
            _store_result(result_cache, cache_key, cache_version, rows)
        return rows


def ask(store: "RDFStore", query: str, models: Sequence[str],
        rulebases: Sequence[str] = (),
        aliases: AliasSet | None = None) -> bool:
    """Existence form: does the (possibly ground) pattern match at all?

    Compiled with ``limit=1`` so the SQL stops at the first matching
    row instead of materializing the full result set.
    """
    return bool(sdo_rdf_match(store, query, models, rulebases=rulebases,
                              aliases=aliases, limit=1))


def _store_result(result_cache, cache_key: tuple, cache_version,
                  rows: "list[MatchRow]") -> None:
    """Install a computed result set in the attached result cache.

    Sized on the lexical projection (what a consumer actually reads
    out of the rows); the MatchRow/RDFTerm object overhead on top is
    real but bounded, and the flat estimate must stay cheap enough to
    run on every miss.
    """
    from repro.cache.result_cache import estimate_bytes
    result_cache.store(
        cache_key, cache_version, rows,
        nbytes=estimate_bytes([row.as_dict() for row in rows]))


def _check_filter_variables(filter_expression: FilterExpression | None,
                            patterns: list[TriplePattern],
                            filter_text: str | None) -> None:
    if filter_expression is None:
        return
    bound = set().union(*(p.variables() for p in patterns))
    unknown = filter_expression.variables() - bound
    if unknown:
        raise QueryError(
            f"filter {filter_text!r} references unbound variables "
            f"{sorted(unknown)}")
