"""Log preprocessing: scanner removal, enrichment, bot identification.

Mirrors the paper's §3.1 pipeline:

1. screen out IP hashes behaving like vulnerability scanners;
2. map ASNs to ARIN org info via the whois client;
3. name each known bot by matching its user agent against the regexes
   of the known-bot registry (:meth:`BotRegistry.identify`);
4. attach Dark Visitors categories.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..asn.whois import WhoisClient
from ..uaparse.categories import BotCategory
from ..uaparse.registry import BotRegistry, default_registry
from .columnar import RecordList
from .schema import LogRecord

#: Request-path fragments typical of vulnerability scanners.  An IP
#: hash whose traffic is dominated by these is screened out, which is
#: the automatable version of the paper's manual IP-hash removal.
SCANNER_PATH_MARKERS: tuple[str, ...] = (
    "/wp-admin",
    "/wp-login",
    "/wp-content",
    "/.env",
    "/.git",
    "/phpmyadmin",
    "/admin.php",
    "/config.php",
    "/xmlrpc.php",
    "/cgi-bin/",
    "/etc/passwd",
    "/vendor/phpunit",
    "/actuator/",
    "/owa/",
    "/solr/",
)

#: Minimum accesses before an IP hash can be judged a scanner, and the
#: fraction of its traffic that must look like probing.
SCANNER_MIN_ACCESSES = 20
SCANNER_PATH_FRACTION = 0.5


def looks_like_probe(path: str) -> bool:
    """Heuristic: does this path look like a vulnerability probe?"""
    lowered = path.lower()
    return any(marker in lowered for marker in SCANNER_PATH_MARKERS)


def scanner_stats(
    records: Iterable[LogRecord],
) -> tuple[int, Counter[str], Counter[str]]:
    """One streaming pass of per-IP scanner evidence.

    Returns ``(records_seen, totals, probes)``.  The counters are
    mergeable across shards (plain ``Counter`` addition), which is what
    lets the sharded pipeline screen scanners *globally* — an IP's
    traffic may span sites, so per-shard thresholds would diverge from
    the sequential result.  :func:`looks_like_probe` runs once per
    distinct path.
    """
    totals: Counter[str] = Counter()
    probes: Counter[str] = Counter()
    is_probe: dict[str, bool] = {}
    seen = 0
    for record in records:
        seen += 1
        totals[record.ip_hash] += 1
        path = record.uri_path
        probe = is_probe.get(path)
        if probe is None:
            probe = is_probe[path] = looks_like_probe(path)
        if probe:
            probes[record.ip_hash] += 1
    return seen, totals, probes


def scanner_ips_from_stats(
    totals: Counter[str], probes: Counter[str]
) -> set[str]:
    """Apply the scanner thresholds to (possibly merged) counters."""
    return {
        ip
        for ip, total in totals.items()
        if total >= SCANNER_MIN_ACCESSES
        and probes[ip] / total >= SCANNER_PATH_FRACTION
    }


def find_scanner_ips(records: Iterable[LogRecord]) -> set[str]:
    """IP hashes whose traffic is predominantly vulnerability probing."""
    _, totals, probes = scanner_stats(records)
    return scanner_ips_from_stats(totals, probes)


@dataclass
class PreprocessReport:
    """Bookkeeping from one preprocessing run.

    Attributes:
        input_records: rows seen.
        scanner_ips: IP hashes screened out.
        scanner_records: rows removed with them.
        identified_bots: rows matched to a known bot.
        unique_asns: distinct ASNs enriched via whois.
        whois_misses: rows left without ``asn_name`` because the
            whois client returned no result for their ASN (partial
            result maps happen with real whois backends).
    """

    input_records: int = 0
    scanner_ips: set[str] = field(default_factory=set)
    scanner_records: int = 0
    identified_bots: int = 0
    unique_asns: int = 0
    whois_misses: int = 0


class Preprocessor:
    """Reusable preprocessing pipeline bound to registries.

    Args:
        registry: known-bot registry (defaults to the built-in one).
        whois: whois client for ASN enrichment.
        drop_scanners: whether to screen out scanner IP hashes.
    """

    def __init__(
        self,
        registry: BotRegistry | None = None,
        whois: WhoisClient | None = None,
        drop_scanners: bool = True,
    ) -> None:
        self._registry = registry or default_registry()
        self._whois = whois or WhoisClient()
        self._drop_scanners = drop_scanners
        self._ua_cache: dict[str, tuple[str | None, BotCategory | None]] = {}

    @property
    def drop_scanners(self) -> bool:
        return self._drop_scanners

    def run(
        self, records: list[LogRecord]
    ) -> tuple[list[LogRecord], PreprocessReport]:
        """Filter and enrich ``records`` (enrichment mutates in place).

        Returns the surviving records (a
        :class:`~repro.logs.columnar.RecordList`, which pickles as
        columns) and a :class:`PreprocessReport`.
        """
        scanner_ips = (
            find_scanner_ips(records) if self._drop_scanners else set()
        )
        return self.enrich_filtered(records, scanner_ips, len(records))

    def enrich_filtered(
        self,
        records: Iterable[LogRecord],
        scanner_ips: set[str],
        input_records: int | None = None,
    ) -> tuple[list[LogRecord], PreprocessReport]:
        """The enrichment half of :meth:`run`: one pass over ``records``
        with ``scanner_ips`` already known.

        Only the surviving records are retained.  ``input_records`` is
        counted during iteration when not supplied.
        """
        report = PreprocessReport(scanner_ips=scanner_ips)
        seen = 0
        kept = RecordList()
        asns: set[int] = set()
        for record in records:
            seen += 1
            if record.ip_hash in scanner_ips:
                report.scanner_records += 1
                continue
            self._enrich(record)
            if record.bot_name is not None:
                report.identified_bots += 1
            asns.add(record.asn)
            kept.append(record)
        whois_results = self._whois.lookup_many(asns)
        for record in kept:
            result = whois_results.get(record.asn)
            if result is None:
                report.whois_misses += 1
            else:
                record.asn_name = result.handle
        report.unique_asns = len(asns)
        report.input_records = seen if input_records is None else input_records
        return kept, report

    def enrich(self, record: LogRecord) -> None:
        """Public single-record enrichment (bot name + category)."""
        self._enrich(record)

    def _enrich(self, record: LogRecord) -> None:
        cached = self._ua_cache.get(record.useragent)
        if cached is None:
            bot = self._registry.identify(record.useragent)
            if bot is None:
                cached = (None, None)
            else:
                cached = (bot.name, bot.category)
            self._ua_cache[record.useragent] = cached
        record.bot_name, record.bot_category = cached


# -- sharded map/reduce ------------------------------------------------
#
# The pipeline's site-sharded executor splits preprocessing into a
# per-shard map (`preprocess_shard`, safe to run in worker processes)
# and a global reduce (`merge_preprocess_shards`).  The reduce applies
# the scanner thresholds to *merged* counters and restores the original
# stream order, so the sharded result is byte-identical to
# `Preprocessor.run` over the unsharded stream.


@dataclass
class ShardPreprocess:
    """Per-shard output of the preprocessing map step.

    Attributes:
        records: the shard's records, enriched in place (bot name,
            category, ASN handle) but *not* scanner-filtered — the
            scanner verdict needs global counters.  A
            :class:`~repro.logs.columnar.RecordList`, so a result sent
            back from a worker process or cached per shard pickles as
            dictionary-encoded columns (an entry cached as a plain
            list still merges the same way).
        input_records: rows in this shard.
        totals: per-IP access counts (mergeable).
        probes: per-IP probe-looking access counts (mergeable).
        resolved_asns: ASNs the whois client returned a result for.
    """

    records: list[LogRecord]
    input_records: int
    totals: Counter[str]
    probes: Counter[str]
    resolved_asns: set[int]


def preprocess_shard(
    records: list[LogRecord], drop_scanners: bool = True
) -> ShardPreprocess:
    """Map step: enrich one shard and gather mergeable statistics.

    Module-level and argument-picklable, so the sharded executor can
    run it in worker processes; each worker builds its own default
    registry and whois client (both deterministic, so enrichment is
    identical no matter which worker handles a record).
    """
    if not isinstance(records, RecordList):
        records = RecordList(records)
    preprocessor = Preprocessor()
    if drop_scanners:
        _, totals, probes = scanner_stats(records)
    else:
        totals, probes = Counter(), Counter()
    asns: set[int] = set()
    for record in records:
        preprocessor.enrich(record)
        asns.add(record.asn)
    whois_results = preprocessor._whois.lookup_many(asns)
    for record in records:
        result = whois_results.get(record.asn)
        if result is not None:
            record.asn_name = result.handle
    return ShardPreprocess(
        records=records,
        input_records=len(records),
        totals=totals,
        probes=probes,
        resolved_asns=set(whois_results),
    )


def merge_preprocess_shards(
    parts: list[ShardPreprocess],
    positions: list[list[int]],
    drop_scanners: bool = True,
) -> tuple[list[LogRecord], PreprocessReport]:
    """Reduce step: merge shard outputs into the global result.

    Args:
        parts: map outputs, ordered by shard index.
        positions: each shard's original stream positions (parallel to
            its records), used to restore global record order.
        drop_scanners: apply the scanner screen (matching the
            sequential ``Preprocessor`` configuration).
    """
    totals: Counter[str] = Counter()
    probes: Counter[str] = Counter()
    resolved: set[int] = set()
    total_records = 0
    for part in parts:
        totals.update(part.totals)
        probes.update(part.probes)
        resolved |= part.resolved_asns
        total_records += part.input_records
    scanner_ips = (
        scanner_ips_from_stats(totals, probes) if drop_scanners else set()
    )
    # Lazy import: repro.pipeline imports this module at load time.
    from ..pipeline.shard import restore_order

    merged = restore_order(
        [part.records for part in parts], positions, total_records
    )
    report = PreprocessReport(
        input_records=total_records, scanner_ips=scanner_ips
    )
    kept = RecordList()
    asns: set[int] = set()
    for record in merged:
        if record.ip_hash in scanner_ips:
            report.scanner_records += 1
            continue
        if record.bot_name is not None:
            report.identified_bots += 1
        asns.add(record.asn)
        if record.asn not in resolved:
            report.whois_misses += 1
        kept.append(record)
    report.unique_asns = len(asns)
    return kept, report


def records_by_bot(records: Iterable[LogRecord]) -> dict[str, list[LogRecord]]:
    """Group rows by standardized bot name (unknowns excluded)."""
    grouped: defaultdict[str, list[LogRecord]] = defaultdict(list)
    for record in records:
        if record.bot_name is not None:
            grouped[record.bot_name].append(record)
    return dict(grouped)
