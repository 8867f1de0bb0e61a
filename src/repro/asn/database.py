"""Static ASN registry used in place of live ARIN/whois data.

The paper enriched every log row by polling whois for the ASN behind
each request.  Offline, we carry a registry of the autonomous systems
that actually appear in the paper (the dominant ASNs of well-known
bots and every "possible spoofing ASN" from Table 8) plus generic
eyeball/hosting networks for background traffic.

ASN numbers for well-known networks are the real allocations; entries
the paper lists only by name carry plausible private-range numbers so
they remain distinguishable without colliding with real allocations.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ASNLookupError


@dataclass(frozen=True)
class AsnInfo:
    """One autonomous system.

    Attributes:
        asn: the AS number.
        name: the registry handle (e.g. ``GOOGLE-CLOUD-PLATFORM``).
        org: registered organization's human name.
        country: ISO 3166-1 alpha-2 registration country.
        kind: coarse role — ``cloud``, ``isp``, ``corporate``,
            ``hosting`` or ``unknown`` (drives simulation realism only).
    """

    asn: int
    name: str
    org: str
    country: str = "US"
    kind: str = "unknown"


# The registry dataset.  Real numbers where the network is well known;
# 64512+ (private range) for names the paper mentions without numbers.
_ASN_ROWS: tuple[AsnInfo, ...] = (
    # -- major bot home networks (dominant ASNs from Table 8 / §5.2) ---
    AsnInfo(15169, "GOOGLE", "Google LLC", "US", "corporate"),
    AsnInfo(396982, "GOOGLE-CLOUD-PLATFORM", "Google LLC", "US", "cloud"),
    AsnInfo(8075, "MICROSOFT-CORP-MSN-AS-BLOCK", "Microsoft Corporation", "US", "corporate"),
    AsnInfo(8068, "MICROSOFT-CORP-AS", "Microsoft Corporation", "US", "corporate"),
    AsnInfo(16509, "AMAZON-02", "Amazon.com, Inc.", "US", "cloud"),
    AsnInfo(14618, "AMAZON-AES", "Amazon.com, Inc.", "US", "cloud"),
    AsnInfo(32934, "FACEBOOK", "Meta Platforms, Inc.", "US", "corporate"),
    AsnInfo(13414, "TWITTER", "X Corp.", "US", "corporate"),
    AsnInfo(13238, "YANDEX", "Yandex LLC", "RU", "corporate"),
    AsnInfo(714, "APPLE-ENGINEERING", "Apple Inc.", "US", "corporate"),
    AsnInfo(4837, "CHINA169-Backbone", "China Unicom", "CN", "isp"),
    AsnInfo(55967, "BAIDU", "Baidu, Inc.", "CN", "corporate"),
    AsnInfo(138699, "BYTEDANCE", "ByteDance Ltd.", "SG", "corporate"),
    AsnInfo(16276, "OVH", "OVH SAS", "FR", "hosting"),
    AsnInfo(14061, "DIGITALOCEAN-ASN", "DigitalOcean, LLC", "US", "cloud"),
    AsnInfo(24429, "ALIBABA-CN-NET", "Alibaba Group", "CN", "cloud"),
    AsnInfo(132203, "TENCENT-NET-AP", "Tencent Holdings", "CN", "cloud"),
    AsnInfo(37963, "ALIBABA-US-NET", "Alibaba Cloud", "US", "cloud"),
    AsnInfo(201814, "MEltwater-AS", "Meltwater Group", "NO", "corporate"),
    AsnInfo(36459, "GITHUB", "GitHub, Inc.", "US", "corporate"),
    AsnInfo(54113, "FASTLY", "Fastly, Inc.", "US", "cloud"),
    AsnInfo(13335, "CLOUDFLARENET", "Cloudflare, Inc.", "US", "cloud"),
    AsnInfo(45102, "ALIBABA-CN-AP", "Alibaba Cloud AP", "CN", "cloud"),
    AsnInfo(4812, "CHINANET-SH-AP", "China Telecom Shanghai", "CN", "isp"),
    AsnInfo(23724, "CHINANET-IDC-BJ", "China Telecom Beijing IDC", "CN", "hosting"),
    AsnInfo(64520, "SEZNAM-CZ", "Seznam.cz, a.s.", "CZ", "corporate"),
    AsnInfo(64521, "COCCOC-VN", "Coc Coc Company", "VN", "corporate"),
    AsnInfo(136907, "HWCLOUDS-AS-AP", "Huawei Cloud", "CN", "cloud"),
    AsnInfo(64522, "ALLENAI", "Allen Institute for AI", "US", "corporate"),
    AsnInfo(64523, "SEMRUSH", "Semrush Inc.", "US", "corporate"),
    AsnInfo(64524, "DATAFORSEO", "DataForSEO", "EE", "corporate"),
    AsnInfo(64525, "MOZ-AS", "Moz, Inc.", "US", "corporate"),
    AsnInfo(64526, "BRIGHTEDGE", "BrightEdge Technologies", "US", "corporate"),
    AsnInfo(64527, "PERPLEXITY", "Perplexity AI", "US", "corporate"),
    AsnInfo(64528, "RTU-LV", "Riga Technical University", "LV", "corporate"),
    AsnInfo(64529, "ITTECO", "Itteco Corp.", "US", "corporate"),
    AsnInfo(7018, "ATT-INTERNET4", "AT&T Services", "US", "isp"),
    AsnInfo(701, "UUNET", "Verizon Business", "US", "isp"),
    AsnInfo(7922, "COMCAST-7922", "Comcast Cable", "US", "isp"),
    AsnInfo(3320, "DTAG", "Deutsche Telekom AG", "DE", "isp"),
    AsnInfo(3215, "FT-AS", "Orange S.A.", "FR", "isp"),
    # -- "possible spoofing" ASNs from Table 8 --------------------------
    AsnInfo(64600, "DMZHOST", "DMZHOST Ltd.", "GB", "hosting"),
    AsnInfo(132559, "AHREFS-AS-AP", "Ahrefs Pte. Ltd.", "SG", "corporate"),
    AsnInfo(51167, "CONTABO", "Contabo GmbH", "DE", "hosting"),
    AsnInfo(62240, "Clouvider", "Clouvider Limited", "GB", "hosting"),
    AsnInfo(64601, "HOL-GR", "Hellas Online", "GR", "isp"),
    AsnInfo(64602, "ORG-TNL2-AFRINIC", "TelOne Zimbabwe", "ZW", "isp"),
    AsnInfo(64603, "ORG-VNL1-AFRINIC", "Vodacom Lesotho", "LS", "isp"),
    AsnInfo(64604, "DIGITALOCEAN-ASN31", "DigitalOcean region 31", "US", "cloud"),
    AsnInfo(64605, "INTERQ31", "GMO Internet", "JP", "hosting"),
    AsnInfo(64606, "KAKAO-AS-KR-KR51", "Kakao Corp.", "KR", "corporate"),
    AsnInfo(64607, "BORUSANTELEKOM-AS", "Borusan Telekom", "TR", "isp"),
    AsnInfo(9009, "M247", "M247 Europe", "RO", "hosting"),
    AsnInfo(64608, "PROSPERO-AS", "Prospero Ooo", "RU", "hosting"),
    AsnInfo(62041, "Telegram", "Telegram Messenger", "GB", "corporate"),
    AsnInfo(3352, "Telefonica_de_Espana", "Telefonica de Espana", "ES", "isp"),
    AsnInfo(9808, "CHINAMOBILE-CN", "China Mobile", "CN", "isp"),
    AsnInfo(4134, "CHINANET-BACKBONE", "China Telecom Backbone", "CN", "isp"),
    AsnInfo(64609, "CHINANET-IDC-BJ-AP", "China Telecom Beijing IDC AP", "CN", "hosting"),
    AsnInfo(64610, "CHINATELECOM-JIANGSU-NANJING-IDC", "China Telecom Nanjing IDC", "CN", "hosting"),
    AsnInfo(64611, "CHINATELECOM-ZHEJIANG-WENZHOU-IDC", "China Telecom Wenzhou IDC", "CN", "hosting"),
    AsnInfo(3462, "HINET", "Chunghwa Telecom", "TW", "isp"),
    AsnInfo(52468, "52468", "UFINET Panama", "PA", "isp"),
    AsnInfo(64612, "ASN-SATELLITE", "Satellite Net Services", "US", "isp"),
    AsnInfo(270353, "ASN270353", "Conectja Telecom", "BR", "isp"),
    AsnInfo(64613, "CDNEXT", "CDNEXT Ltd.", "GB", "hosting"),
    AsnInfo(64614, "DATACLUB", "DataClub S.A.", "LV", "hosting"),
    AsnInfo(136908, "HWCLOUDS-AS-AP-2", "Huawei Cloud Singapore", "SG", "cloud"),
    AsnInfo(25820, "IT7NET", "IT7 Networks", "CA", "hosting"),
    AsnInfo(46475, "LIMESTONENETWORKS", "Limestone Networks", "US", "hosting"),
    AsnInfo(64615, "ORG-RTL1-AFRINIC", "Rwandatel", "RW", "isp"),
    AsnInfo(64616, "P4NET", "Play (P4 Sp. z o.o.)", "PL", "isp"),
    AsnInfo(23470, "RELIABLESITE", "ReliableSite.Net", "US", "hosting"),
    AsnInfo(55836, "RELIANCEJIO-IN", "Reliance Jio Infocomm", "IN", "isp"),
    AsnInfo(12389, "ROSTELECOM-AS", "Rostelecom", "RU", "isp"),
    AsnInfo(64617, "ROUTERHOSTING", "RouterHosting LLC", "US", "hosting"),
    AsnInfo(132204, "TENCENT-NET-AP-CN", "Tencent Cloud CN", "CN", "cloud"),
    AsnInfo(64618, "VCG-AS", "Virtual Consulting Group", "US", "hosting"),
    # -- generic background-noise networks -------------------------------
    AsnInfo(20473, "AS-CHOOPA", "Vultr Holdings", "US", "cloud"),
    AsnInfo(63949, "LINODE-AP", "Akamai (Linode)", "US", "cloud"),
    AsnInfo(24940, "HETZNER-AS", "Hetzner Online GmbH", "DE", "hosting"),
    AsnInfo(197540, "NETCUP-AS", "netcup GmbH", "DE", "hosting"),
    AsnInfo(209, "CENTURYLINK-US-LEGACY-QWEST", "Lumen Technologies", "US", "isp"),
    AsnInfo(6939, "HURRICANE", "Hurricane Electric", "US", "isp"),
    AsnInfo(64619, "DUKE-UNIV-PEER", "Regional Education Network", "US", "isp"),
)


class AsnRegistry:
    """Lookup table over :class:`AsnInfo` rows.

    Provides lookup by number and by name; unknown numbers raise
    :class:`~repro.exceptions.ASNLookupError` from :meth:`lookup`
    while :meth:`get` returns ``None``.
    """

    def __init__(self, rows: tuple[AsnInfo, ...] = _ASN_ROWS) -> None:
        self._by_number: dict[int, AsnInfo] = {row.asn: row for row in rows}
        self._by_name: dict[str, AsnInfo] = {row.name.lower(): row for row in rows}

    def lookup(self, asn: int) -> AsnInfo:
        """Info for ``asn``; raises :class:`ASNLookupError` if absent."""
        info = self._by_number.get(asn)
        if info is None:
            raise ASNLookupError(asn)
        return info

    def get(self, asn: int) -> AsnInfo | None:
        return self._by_number.get(asn)

    def by_name(self, name: str) -> AsnInfo | None:
        """Case-insensitive lookup by registry handle."""
        return self._by_name.get(name.lower())

    def name_of(self, asn: int) -> str:
        """Handle for ``asn``; synthesizes ``AS<number>`` when unknown."""
        info = self._by_number.get(asn)
        return info.name if info is not None else f"AS{asn}"

    def of_kind(self, kind: str) -> list[AsnInfo]:
        """All ASNs of a coarse role (``cloud``, ``isp``, ...)."""
        return [row for row in self._by_number.values() if row.kind == kind]

    def __len__(self) -> int:
        return len(self._by_number)

    def __contains__(self, asn: int) -> bool:
        return asn in self._by_number


_DEFAULT: AsnRegistry | None = None


def default_asn_registry() -> AsnRegistry:
    """The shared built-in ASN registry."""
    # Idempotent lazy init: every process builds the identical
    # registry from the same constant table, so shard workers racing
    # on the first call cannot diverge.
    global _DEFAULT  # lint: ignore[RPR003]
    if _DEFAULT is None:
        _DEFAULT = AsnRegistry()
    return _DEFAULT
