"""The Big Data Benchmark (§5.2, Figures 5/6/9/12/14/15/17).

Synthetic reproduction of the AMPLab Big Data Benchmark at scale factor
five: a ``rankings`` table (pageURL, pageRank, avgDuration), a
``uservisits`` table (sourceIP, destURL, visitDate, adRevenue, ...), and
a ``documents`` corpus, stored as compressed sequence files.  Table
volumes follow the published scale-5 dataset; ``fraction`` scales
everything down proportionally for fast simulation (shapes -- who is the
bottleneck, who wins -- are volume-independent).

Queries:

* **1a/1b/1c** -- scan-and-filter on rankings with increasing result
  sizes (1c writes most of the table back out, the §5.3 buffer-cache
  case).
* **2a/2b/2c** -- substring aggregation over uservisits with increasing
  group counts (2c's map stage is the paper's Figure 9 CPU-bound stage).
* **3a/3b/3c** -- date-filtered join of uservisits and rankings, then a
  per-IP aggregation (3c has the large on-disk shuffle the paper calls
  out in §6.2).
* **4** -- a UDF ("Python script") pass over the documents corpus that
  extracts links and counts them, page-rank-like and CPU-bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from math import ceil
from typing import List, Optional, Tuple

from repro.api.context import AnalyticsContext
from repro.api.ops import OpCost
from repro.cluster.cluster import Cluster
from repro.config import GB, MB
from repro.datamodel.records import Partition
from repro.datamodel.serialization import COMPRESSED, DataFormat
from repro.engine.base import JobResult
from repro.errors import ConfigError

__all__ = ["BdbScale", "QUERIES", "generate_bdb_tables", "generate_rankings",
           "run_query", "query_names"]

#: All query variants, in the paper's Figure 5 order.
QUERIES = ("1a", "1b", "1c", "2a", "2b", "2c", "3a", "3b", "3c", "4")


@dataclass(frozen=True)
class BdbScale:
    """Dataset dimensions (published scale-5 sizes) and scaling."""

    rankings_rows: float = 90e6
    rankings_bytes: float = 6.4 * GB
    uservisits_rows: float = 775e6
    uservisits_bytes: float = 126.8 * GB
    documents_rows: float = 27e6
    documents_bytes: float = 136.9 * GB
    #: Proportional scale-down applied to every table (1.0 = scale 5).
    fraction: float = 1.0
    block_bytes: float = 128 * MB
    #: The small rankings table is stored in finer blocks so its scan
    #: has several task waves (like the benchmark's many input files).
    rankings_block_bytes: float = 32 * MB
    sample_records_per_block: int = 48
    reduce_tasks: int = 80
    fmt: DataFormat = COMPRESSED

    def __post_init__(self) -> None:
        if not 0 < self.fraction <= 1.0:
            raise ConfigError(f"fraction must be in (0, 1]: {self.fraction}")

    def scaled(self, fraction: float) -> "BdbScale":
        """A copy at a different data-volume fraction."""
        return replace(self, fraction=fraction)

    def blocks_for(self, total_bytes: float,
                   block_bytes: Optional[float] = None) -> int:
        """Block (= map task) count, independent of ``fraction``.

        Scaling down shrinks the blocks instead of dropping tasks, so the
        pipelining behaviour (waves of tasks, §5.3) matches full scale.
        """
        return max(1, ceil(total_bytes / (block_bytes or self.block_bytes)))


#: Query parameters: (selectivity / group ratio / etc.) chosen so result
#: sizes span the business-intelligence -> ETL spectrum, like the
#: benchmark's published cutoffs.
Q1_SELECTIVITY = {"1a": 0.0005, "1b": 0.02, "1c": 0.85}
Q2_PREFIX = {"2a": 8, "2b": 10, "2c": 12}
Q2_GROUP_RATIO = {"2a": 0.001, "2b": 0.005, "2c": 0.02}
Q3_DATE_SELECTIVITY = {"3a": 0.015, "3b": 0.12, "3c": 0.5}
#: Distinct source IPs as a fraction of joined rows (query 3 group-by).
Q3_IP_RATIO = 0.3
#: Links extracted per document and their size (query 4).
Q4_LINKS_PER_DOC = 15
Q4_LINK_BYTES = 48.0
Q4_DISTINCT_RATIO = 0.1

#: Per-record CPU of light SQL operators (predicates, projections) on
#: Spark 1.3's row-at-a-time interpreter.
SQL_OP_COST = OpCost(per_record_s=0.5e-6)
#: Scanning a wide uservisits row (9 fields, strings to parse) costs
#: far more per record than the 3-field rankings row.
UV_PARSE_COST = OpCost(per_record_s=2.5e-6)
RANKINGS_FILTER_COST = OpCost(per_record_s=0.3e-6)
#: The query-4 UDF pipes each ~5 KB document through a Python script
#: (parse HTML, extract links): heavily CPU-bound, as in Figure 14.
UDF_COST = OpCost(per_record_s=100.0e-6)
#: URL id space shared by rankings and uservisits *samples*, so sampled
#: joins actually match (modeled sizes carry the true cardinalities).
SAMPLE_URL_SPACE = 4096


def generate_bdb_tables(cluster: Cluster, scale: Optional[BdbScale] = None,
                        seed: int = 0) -> BdbScale:
    """Create rankings, uservisits, and documents in the cluster's DFS."""
    scale = scale or BdbScale()
    rng = random.Random(seed)
    urls = _sample_urls()
    _make_rankings(cluster, scale, rng, urls)
    _make_uservisits(cluster, scale, rng, urls)
    _make_documents(cluster, scale, rng, urls)
    return scale


def generate_rankings(cluster: Cluster, scale: Optional[BdbScale] = None,
                      seed: int = 0) -> BdbScale:
    """Create only the rankings table, for runs that never read the others.

    Rankings is the first table :func:`generate_bdb_tables` draws from a
    fresh ``random.Random(seed)``, so its records are the same here,
    value for value.
    """
    scale = scale or BdbScale()
    _make_rankings(cluster, scale, random.Random(seed), _sample_urls())
    return scale


def _sample_urls() -> Tuple[str, ...]:
    """One string per sample URL id, shared by all three tables.

    A draw indexes it instead of formatting a fresh string, so the ~850k
    sampled URLs of a full set share 4,096 objects.  Built per call, so
    processes that never generate tables do not pay for it.
    """
    return tuple(f"url{url_id}" for url_id in range(SAMPLE_URL_SPACE))


def _make_table(cluster: Cluster, name: str, scale: BdbScale,
                total_bytes: float, total_rows: float, make_record,
                block_bytes: Optional[float] = None) -> None:
    blocks = scale.blocks_for(total_bytes, block_bytes)
    rows = total_rows * scale.fraction
    logical_block_bytes = total_bytes * scale.fraction / blocks
    stored_block_bytes = scale.fmt.stored_bytes(logical_block_bytes)
    payloads: List[Partition] = []
    for index in range(blocks):
        records = [make_record(index, i)
                   for i in range(scale.sample_records_per_block)]
        payloads.append(Partition(records=records,
                                  record_count=rows / blocks,
                                  data_bytes=logical_block_bytes))
    cluster.dfs.create_file(name, payloads, [stored_block_bytes] * blocks)


def _make_rankings(cluster: Cluster, scale: BdbScale,
                   rng: random.Random, urls: Tuple[str, ...]) -> None:
    def record(block_index: int, i: int) -> Tuple[str, Tuple[int, int]]:
        url_id = rng.randrange(SAMPLE_URL_SPACE)
        page_rank = rng.randrange(10000)
        avg_duration = rng.randrange(100)
        return (urls[url_id], (page_rank, avg_duration))

    _make_table(cluster, "rankings", scale, scale.rankings_bytes,
                scale.rankings_rows, record,
                block_bytes=scale.rankings_block_bytes)


def _make_uservisits(cluster: Cluster, scale: BdbScale,
                     rng: random.Random, urls: Tuple[str, ...]) -> None:
    def record(block_index: int, i: int):
        ip = (f"{rng.randrange(256)}.{rng.randrange(256)}."
              f"{rng.randrange(256)}.{rng.randrange(256)}")
        dest = urls[rng.randrange(SAMPLE_URL_SPACE)]
        visit_date = rng.random()  # normalized [0, 1) date axis
        ad_revenue = rng.random()
        return (ip, (dest, visit_date, ad_revenue))

    _make_table(cluster, "uservisits", scale, scale.uservisits_bytes,
                scale.uservisits_rows, record)


def _make_documents(cluster: Cluster, scale: BdbScale,
                    rng: random.Random, urls: Tuple[str, ...]) -> None:
    def record(block_index: int, i: int):
        links = [urls[rng.randrange(SAMPLE_URL_SPACE)]
                 for _ in range(Q4_LINKS_PER_DOC)]
        return ("doc", links)

    _make_table(cluster, "documents", scale, scale.documents_bytes,
                scale.documents_rows, record)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def run_query(ctx: AnalyticsContext, query: str,
              scale: Optional[BdbScale] = None,
              output_suffix: str = "") -> JobResult:
    """Run one Big Data Benchmark query; results are saved to the DFS."""
    scale = scale or BdbScale()
    output = f"bdb-out-{query}{output_suffix}"
    if query in Q1_SELECTIVITY:
        return _query1(ctx, query, scale, output)
    if query in Q2_PREFIX:
        return _query2(ctx, query, scale, output)
    if query in Q3_DATE_SELECTIVITY:
        return _query3(ctx, query, scale, output)
    if query == "4":
        return _query4(ctx, scale, output)
    raise ConfigError(f"unknown query {query!r}; choose from {QUERIES}")


def query_names() -> List[str]:
    """All query variants, in Figure 5 order."""
    return list(QUERIES)


def _query1(ctx: AnalyticsContext, query: str, scale: BdbScale,
            output: str) -> JobResult:
    """SELECT pageURL, pageRank FROM rankings WHERE pageRank > X."""
    selectivity = Q1_SELECTIVITY[query]
    cutoff = int(10000 * (1 - selectivity))
    (ctx.text_file("rankings", fmt=scale.fmt)
        .filter(lambda row: row[1][0] > cutoff, cost=RANKINGS_FILTER_COST,
                count_ratio=selectivity)
        .save_as_text_file(output))
    return ctx.last_result


def _query2(ctx: AnalyticsContext, query: str, scale: BdbScale,
            output: str) -> JobResult:
    """SELECT SUBSTR(sourceIP, 1, X), SUM(adRevenue) GROUP BY 1."""
    prefix = Q2_PREFIX[query]
    group_ratio = Q2_GROUP_RATIO[query]
    group_row_bytes = prefix + 16.0
    (ctx.text_file("uservisits", fmt=scale.fmt)
        .map(lambda row: (row[0][:prefix], row[1][2]), cost=UV_PARSE_COST,
             output_row_bytes=lambda r: group_row_bytes)
        .reduce_by_key(lambda a, b: a + b,
                       num_partitions=scale.reduce_tasks,
                       combine_cost=OpCost(per_record_s=0.5e-6))
        ._override_combine_ratio(group_ratio)
        .save_as_text_file(output))
    return ctx.last_result


def _query3(ctx: AnalyticsContext, query: str, scale: BdbScale,
            output: str) -> JobResult:
    """Date-filtered join of uservisits and rankings, grouped by IP."""
    selectivity = Q3_DATE_SELECTIVITY[query]
    visits = (ctx.text_file("uservisits", fmt=scale.fmt)
              .filter(lambda row: row[1][1] < selectivity,
                      cost=UV_PARSE_COST, count_ratio=selectivity)
              .map(lambda row: (row[1][0], (row[0], row[1][2])),
                   cost=SQL_OP_COST, size_ratio=0.6))
    ranks = (ctx.text_file("rankings", fmt=scale.fmt)
             .map(lambda row: (row[0], row[1][0]), cost=SQL_OP_COST,
                  size_ratio=0.8))
    joined = visits.join(ranks, num_partitions=scale.reduce_tasks,
                         cost=OpCost(per_record_s=1.0e-6))
    (joined
        .map(lambda kv: (kv[1][0][0], (kv[1][0][1], kv[1][1], 1)),
             cost=SQL_OP_COST, size_ratio=0.8)
        .reduce_by_key(lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2]),
                       num_partitions=scale.reduce_tasks,
                       combine_cost=OpCost(per_record_s=0.5e-6))
        ._override_combine_ratio(Q3_IP_RATIO)
        .save_as_text_file(output))
    return ctx.last_result


def _query4(ctx: AnalyticsContext, scale: BdbScale,
            output: str) -> JobResult:
    """UDF pass over the crawl: extract links, count per target URL."""
    link_count_ratio = Q4_LINKS_PER_DOC
    (ctx.text_file("documents", fmt=scale.fmt)
        .flat_map(lambda doc: doc[1], cost=UDF_COST,
                  count_ratio=link_count_ratio,
                  output_row_bytes=lambda link: Q4_LINK_BYTES)
        .map(lambda link: (link, 1), cost=OpCost(per_record_s=0.3e-6),
             size_ratio=1.0)
        .reduce_by_key(lambda a, b: a + b,
                       num_partitions=scale.reduce_tasks,
                       combine_cost=OpCost(per_record_s=0.5e-6))
        ._override_combine_ratio(Q4_DISTINCT_RATIO)
        .save_as_text_file(output))
    return ctx.last_result
