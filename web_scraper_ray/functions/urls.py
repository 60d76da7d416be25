"""URL predicates, canonicalization and filename rules.

Reference parity:
* ``is_valid_url``        — ``contxt/utils.py:7-13``
* ``sanitize_filename``   — ``contxt/utils.py:15-24``
* ``domain_path_filename``— ``contxt/outputs.py:102-113`` (the
  ``{domain}_{path}`` naming scheme; this is also the "content grouping
  by URL path structure" key the north rule asks for)
* ``matches_ignore_patterns`` — the documented-but-unwired
  ``scraping.ignore_patterns`` substring filter (``README.md:74-75,89``,
  ``contxt/config.py:21``), wired for real here (SURVEY.md §2.3 M5).

``canonicalize_url`` has no reference analog (the reference never
crawls); it is the canonical form shared by the sequential crawl model
and the Ray frontier engine, so that both compute the identical URL-seen
set (SURVEY.md §4.2). Rules: lowercase scheme+host, drop fragment,
drop default port, empty path → ``/``, preserve query.
"""

from __future__ import annotations

import hashlib
import re
from urllib.parse import urljoin, urlparse

_INVALID_FN_RE = re.compile(r'[\\/*?:"<>|]')  # utils.py:18
_WS_FN_RE = re.compile(r"\s+")  # utils.py:20

_DEFAULT_PORTS = {"http": ":80", "https": ":443"}


def is_valid_url(url: str) -> bool:
    """utils.py:7-13 — urlparse, require scheme and netloc."""
    try:
        result = urlparse(url)
        return all([result.scheme, result.netloc])
    except Exception:
        return False


def sanitize_filename(filename: str) -> str:
    """utils.py:15-24 — drop invalid chars, spaces→_, cap at 100."""
    filename = _INVALID_FN_RE.sub("", filename)
    filename = _WS_FN_RE.sub("_", filename)
    if len(filename) > 100:
        filename = filename[:100]
    return filename


def canonicalize_url(url: str) -> str:
    """Deterministic canonical form (see module docstring). Idempotent:
    ``canonicalize_url(canonicalize_url(u)) == canonicalize_url(u)``
    (property-tested)."""
    p = urlparse(url)
    scheme = p.scheme.lower()
    netloc = p.netloc.lower()
    default = _DEFAULT_PORTS.get(scheme)
    if default and netloc.endswith(default):
        netloc = netloc[: -len(default)]
    path = p.path or "/"
    out = f"{scheme}://{netloc}{path}"
    if p.query:
        out += f"?{p.query}"
    return out


def extract_host(url: str) -> str:
    """Lowercased netloc without default port (politeness/robots key)."""
    p = urlparse(url)
    netloc = p.netloc.lower()
    default = _DEFAULT_PORTS.get(p.scheme.lower())
    if default and netloc.endswith(default):
        netloc = netloc[: -len(default)]
    return netloc


#: an absolute http(s) href that ``urljoin`` returns unchanged: a
#: lowercase scheme, a host that starts with a letter or digit, then
#: printable ASCII without ``?#;[]`` (no query, fragment, params or
#: IPv6 brackets for ``urlsplit`` to split, strip or reject)
_ABSOLUTE_HREF = re.compile(r"https?://[A-Za-z0-9][!-\"$-:<->@-Z\\^-~]*")


def resolve_link(base_url: str, href: str) -> str:
    """Absolute URL of an in-page link (``scraper.py:243`` uses the same
    ``urljoin`` for image src resolution). An href that is already
    absolute (:data:`_ABSOLUTE_HREF`) comes back as is, when the base is
    one ``urlsplit`` cannot reject (non-empty ASCII without brackets):
    ``urljoin`` would only split it and join the same parts again.
    Anything else goes to ``urljoin``; tests/test_urls.py checks both
    agree, and raise alike, on random draws."""
    if (base_url and _ABSOLUTE_HREF.fullmatch(href) and base_url.isascii()
            and "[" not in base_url and "]" not in base_url):
        return href
    return urljoin(base_url, href)


def matches_ignore_patterns(url: str, patterns: tuple[str, ...]) -> bool:
    """Substring match, e.g. ``/tags/`` (README.md:74-75; config.py:21
    default ``["/tags/", "/categories/"]``)."""
    return any(pat in url for pat in patterns)


def domain_path_filename(url: str) -> str:
    """outputs.py:102-113 — ``{domain}_{path}`` with ``/``→``_``; empty
    path → ``index``. Used as the content-grouping key and deterministic
    output name (the reference's sequential ``_1,_2`` collision counter,
    ``outputs.py:129-135``, is replaced by this deterministic scheme +
    url hash because a filesystem-probe counter cannot distribute)."""
    parsed = urlparse(url)
    domain = parsed.netloc
    path = parsed.path.rstrip("/")
    if not path:
        path = "index"
    else:
        path = path.replace("/", "_").lstrip("_")
    return sanitize_filename(f"{domain}_{path}")


def path_prefix(url: str, depth: int = 1) -> str:
    """Content-grouping key: first ``depth`` path segments (north-star
    "content grouping by URL path structure"; reference filename analog
    ``outputs.py:102-113``)."""
    parsed = urlparse(url)
    segs = [s for s in parsed.path.split("/") if s]
    return parsed.netloc + "/" + "/".join(segs[:depth])


def url_hash64(url: str) -> int:
    """Stable 64-bit hash (blake2b) for sharding/partitioning keys —
    Python's builtin ``hash`` is per-process salted and must never be
    used as a distributed partition key."""
    return int.from_bytes(hashlib.blake2b(url.encode("utf-8"), digest_size=8).digest(), "big")
