"""Resource broker: registry, matchmaking, ranking, pluggable strategies,
and gangmatching over compute/storage element pairs.

The broker is a Helper: resolve() maps a JDL text to the same JDL
augmented with the chosen resource (SubmitTo, plus ChosenSE when
gangmatched), so it plugs into the workload manager or any other caller
through that single method.
"""

from __future__ import annotations

import logging
import os
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import classad
from .classad import (
    ClassAd,
    Integer,
    ListValue,
    Literal,
    MatchContext,
    Text,
    attr_value,
    evaluate,
    match_two,
    rank_of,
    rank_value,
    references_scope,
)
from .errors import WmsError
from .jdl import JobDescription, validate_job
from .util import now_ms

log = logging.getLogger("gridwms.broker")

DEFAULT_TTL_SECONDS = 120.0
DEFAULT_FUZZY_RATIO = 0.9


class InvalidAdError(WmsError):
    code = "InvalidAd"

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("invalid resource ad: " + "; ".join(violations))


class NoMatchingResourcesError(WmsError):
    code = "NoMatchingResources"


class UnsupportedStrategyError(WmsError):
    code = "UnsupportedStrategy"


@dataclass(frozen=True)
class ResourceEntry:
    id: str
    type: str  # "CE" | "SE"
    ad: ClassAd
    last_update_ms: int

    def fresh(self, ttl_seconds: float, now: int) -> bool:
        return (now - self.last_update_ms) <= ttl_seconds * 1000


@dataclass(frozen=True)
class MatchResult:
    ce_id: str
    rank: float
    strategy: str
    se_id: str | None = None
    job_id: str | None = None


# candidate tuples flowing through selection strategies
Candidate = tuple[str, str | None, float]  # (ceId, seId, rank)
StrategyFn = Callable[[list[Candidate], int | None], Candidate]


def _strategy_best(candidates: list[Candidate], seed: int | None) -> Candidate:
    return candidates[0]


def _strategy_fuzzy(candidates: list[Candidate], seed: int | None, ratio: float = DEFAULT_FUZZY_RATIO) -> Candidate:
    top = candidates[0][2]
    eligible = [c for c in candidates if c[2] >= ratio * top]
    rng = random.Random(seed)
    return eligible[rng.randrange(len(eligible))]


def validate_resource_ad(ad: ClassAd) -> tuple[str, str]:
    """Check ResourceAd conventions; returns (id, type) or raises InvalidAd."""
    problems: list[str] = []
    rid = attr_value(ad, "id")
    if not isinstance(rid, Text) or not rid.value:
        problems.append("Id must be a non-empty string")
        rid = None
    rtype = attr_value(ad, "type")
    if not isinstance(rtype, Text) or rtype.value.upper() not in ("CE", "SE"):
        problems.append('Type must be "CE" or "SE"')
        rtype = None
    if rtype is not None and rtype.value.upper() == "CE":
        free = attr_value(ad, "freecpus")
        total = attr_value(ad, "totalcpus")
        if not isinstance(free, Integer) or free.value < 0:
            problems.append("FreeCPUs must be an integer >= 0")
        if not isinstance(total, Integer) or total.value < 1:
            problems.append("TotalCPUs must be an integer >= 1")
        if isinstance(free, Integer) and isinstance(total, Integer) and free.value > total.value:
            problems.append("FreeCPUs must be <= TotalCPUs")
        status = attr_value(ad, "status")
        if status is not None and not isinstance(status, Text):
            problems.append("Status must be a string")
        close = attr_value(ad, "closeses")
        if close is not None and not isinstance(close, ListValue):
            problems.append("CloseSEs must be a list")
        price = attr_value(ad, "pricepercpusecond")
        if price is not None and (not isinstance(price, Integer) or price.value < 0):
            problems.append("PricePerCpuSecond must be an integer >= 0")
    if rtype is not None and rtype.value.upper() == "SE":
        space = attr_value(ad, "availablespace")
        if not isinstance(space, Integer) or space.value < 0:
            problems.append("AvailableSpace must be an integer >= 0 (MB)")
    if problems:
        raise InvalidAdError(problems)
    return rid.value, rtype.value.upper()


# A parse taken less than this long after the file last changed may have
# missed a same-size rewrite within one timestamp tick (git's "racily
# clean" case), so it is parsed again on the next snapshot.
RACY_MARGIN_NS = 100_000_000


@dataclass(frozen=True)
class _ParsedFile:
    stat_key: tuple[int, int, int, int]  # st_ino, st_size, st_mtime_ns, st_ctime_ns
    trusted: bool
    resource: tuple[str, str, ClassAd] | None  # (id, type, ad); None when rejected


class ResourceRegistry:
    """Information registry fed by fixture files, live heartbeat files,
    and direct upserts; the only reader of resource `.ad` files.

    Heartbeat files (written by the executor) carry their mtime as the
    entry's last update; a static fixture without a heartbeat is treated
    as fresh configuration.  When a heartbeat exists it governs: a stale
    heartbeat means the resource is genuinely not reporting.

    Each file's last parse, rejections included, is reused until its
    stat key changes, except a parse made within RACY_MARGIN_NS of the
    file's ctime.
    """

    def __init__(self, static_dir: Path | str | None = None, live_dir: Path | str | None = None):
        self.static_dir = Path(static_dir) if static_dir else None
        self.live_dir = Path(live_dir) if live_dir else None
        self._manual: dict[str, ResourceEntry] = {}
        self._parsed: dict[Path, _ParsedFile] = {}
        self._lock = threading.Lock()

    def upsert(self, ad: ClassAd, last_update_ms: int | None = None) -> None:
        rid, rtype = validate_resource_ad(ad)
        entry = ResourceEntry(id=rid, type=rtype, ad=ad, last_update_ms=last_update_ms or now_ms())
        with self._lock:
            self._manual[rid] = entry

    def _parse_file(self, path: Path) -> _ParsedFile:
        started = time.time_ns()
        previous = self._parsed.get(path)
        with open(path, "rb") as fh:
            st = os.fstat(fh.fileno())
            stat_key = (st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)
            if previous is not None and previous.trusted and previous.stat_key == stat_key:
                return previous
            data = fh.read()
        try:
            ad = classad.parse_ad(data.decode("utf-8"))
            resource = (*validate_resource_ad(ad), ad)
        except (WmsError, UnicodeDecodeError) as exc:
            if previous is None or previous.stat_key != stat_key or previous.resource is not None:
                log.warning("ignoring resource file %s: %s", path, exc)
            resource = None
        return _ParsedFile(stat_key, started - st.st_ctime_ns >= RACY_MARGIN_NS, resource)

    def _scan_dir(
        self, directory: Path | None, parsed_now: dict[Path, _ParsedFile], mtime_as_update: bool
    ) -> dict[str, ResourceEntry]:
        out: dict[str, ResourceEntry] = {}
        if directory is None or not directory.is_dir():
            return out
        scan_time = now_ms()
        for entry in sorted(os.listdir(directory)):
            if not entry.endswith(".ad"):
                continue
            path = directory / entry
            try:
                parsed = self._parse_file(path)
            except OSError as exc:
                log.warning("ignoring resource file %s: %s", path, exc)
                continue
            parsed_now[path] = parsed
            if parsed.resource is None:
                continue
            rid, rtype, ad = parsed.resource
            update = parsed.stat_key[2] // 1_000_000 if mtime_as_update else scan_time
            out[rid] = ResourceEntry(id=rid, type=rtype, ad=ad, last_update_ms=update)
        return out

    def snapshot(self) -> dict[str, ResourceEntry]:
        """Merged view: static fixtures fill gaps; live heartbeats and
        upserts override, newest information winning."""
        with self._lock:
            parsed_now: dict[Path, _ParsedFile] = {}
            entries = self._scan_dir(self.static_dir, parsed_now, mtime_as_update=False)
            entries.update(self._scan_dir(self.live_dir, parsed_now, mtime_as_update=True))
            self._parsed = parsed_now  # rebuilt from this listing: deleted files drop out
            for rid, entry in self._manual.items():
                current = entries.get(rid)
                if current is None or current.last_update_ms <= entry.last_update_ms:
                    entries[rid] = entry
        return entries

    def get(self, rid: str) -> ResourceEntry | None:
        return self.snapshot().get(rid)

    def list_resources(self) -> list[ResourceEntry]:
        return sorted(self.snapshot().values(), key=lambda e: e.id)


class Broker:
    """Matchmaker Helper over a resource registry."""

    def __init__(
        self,
        registry: ResourceRegistry,
        ttl_seconds: float = DEFAULT_TTL_SECONDS,
        fuzzy_ratio: float = DEFAULT_FUZZY_RATIO,
        default_strategy: str = "best",
        default_seed: int | None = None,
    ):
        self.registry = registry
        self.ttl_seconds = ttl_seconds
        self.default_strategy = default_strategy
        self.default_seed = default_seed
        self._strategies: dict[str, StrategyFn] = {
            "best": _strategy_best,
            "fuzzy": lambda cands, seed: _strategy_fuzzy(cands, seed, fuzzy_ratio),
        }

    def register_strategy(self, name: str, fn: StrategyFn) -> None:
        """Plug in a selection strategy: fn(sorted_candidates, seed) -> candidate."""
        self._strategies[name.lower()] = fn

    def _pick(self, candidates: list[Candidate], strategy: str | None, seed: int | None) -> Candidate:
        name = (strategy or self.default_strategy).lower()
        if name == "economic":
            raise UnsupportedStrategyError("the 'economic' strategy is reserved and not supported")
        fn = self._strategies.get(name)
        if fn is None:
            raise UnsupportedStrategyError(f"unknown strategy {name!r}")
        if not candidates:
            raise NoMatchingResourcesError("no matching resources")
        ordered = sorted(candidates, key=lambda c: (-c[2], c[0], c[1] or ""))
        return fn(ordered, self.default_seed if seed is None else seed)

    def _fresh(self, rtype: str, exclude: tuple[str, ...] = ()) -> list[ResourceEntry]:
        now = now_ms()
        return [
            e
            for e in self.registry.list_resources()
            if e.type == rtype and e.fresh(self.ttl_seconds, now) and e.id not in exclude
        ]

    # -- plain matchmaking -------------------------------------------------

    def find_matches(self, job: JobDescription) -> list[str]:
        """All fresh CEs whose ad matches the job bilaterally, Id ascending."""
        return [e.id for e in self._fresh("CE") if match_two(job.ad, e.ad)]

    def rank_matches(self, job: JobDescription, ce_ids: list[str]) -> list[tuple[str, float]]:
        """(ceId, rank) pairs sorted by rank descending, Id ascending on ties."""
        snapshot = self.registry.snapshot()
        pairs = [(cid, rank_of(job.ad, snapshot[cid].ad)) for cid in ce_ids if cid in snapshot]
        pairs.sort(key=lambda p: (-p[1], p[0]))
        return pairs

    def select_resource(
        self,
        job: JobDescription,
        strategy: str | None = None,
        seed: int | None = None,
        exclude: tuple[str, ...] = (),
    ) -> MatchResult:
        matches = [c for c in self.find_matches(job) if c not in exclude]
        ranked = self.rank_matches(job, matches)
        ce, se, rank = self._pick([(cid, None, r) for cid, r in ranked], strategy, seed)
        return MatchResult(ce_id=ce, rank=rank, strategy=(strategy or self.default_strategy), se_id=se)

    # -- gangmatching ---------------------------------------------------------

    def gang_candidates(self, job: JobDescription, exclude: tuple[str, ...] = ()) -> list[Candidate]:
        """(ce, se, rank) for every close pair satisfying the job's
        requirements evaluated with ce and se scopes bound."""
        ces = self._fresh("CE", exclude)
        ses = {e.id: e for e in self._fresh("SE")}
        out: list[Candidate] = []
        for ce in ces:
            close = attr_value(ce.ad, "closeses")
            if not isinstance(close, ListValue):
                continue
            close_ids = [t.value for t in close.items if isinstance(t, Text)]
            for se_id in close_ids:
                se = ses.get(se_id)
                if se is None:
                    continue
                ctx = MatchContext({"self": job.ad, "other": ce.ad, "ce": ce.ad, "se": se.ad})
                verdict = evaluate(job.requirements, ctx)
                if not (isinstance(verdict, classad.Boolean) and verdict.value):
                    continue
                rank = rank_value(evaluate(job.rank, ctx)) if job.rank is not None else 0.0
                out.append((ce.id, se.id, rank))
        return out

    def gang_match(
        self,
        job: JobDescription,
        strategy: str | None = None,
        seed: int | None = None,
        exclude: tuple[str, ...] = (),
    ) -> MatchResult:
        ce, se, rank = self._pick(self.gang_candidates(job, exclude), strategy, seed)
        return MatchResult(ce_id=ce, rank=rank, strategy=(strategy or self.default_strategy), se_id=se)

    # -- the Helper surface ------------------------------------------------------

    def resolve(self, jdl_text: str) -> str:
        """JDL in, JDL out: augment with the resource choice.

        Already-resolved input (SubmitTo present) is returned unchanged.
        NoMatchingResourcesError propagates as a structured failure; the
        error is never encoded into the returned JDL text.
        """
        job = validate_job(jdl_text)
        if job.submit_to:
            return jdl_text
        exclude = tuple(job.excluded_ces)
        if references_scope(job.requirements, "se"):
            result = self.gang_match(job, exclude=exclude)
        else:
            result = self.select_resource(job, exclude=exclude)
        ad = job.ad.with_attr("SubmitTo", Literal(Text(result.ce_id)))
        if result.se_id:
            ad = ad.with_attr("ChosenSE", Literal(Text(result.se_id)))
        return ad.unparse()
