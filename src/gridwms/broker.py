"""Resource broker: registry, matchmaking, ranking, pluggable strategies,
and gangmatching over compute/storage element pairs.

The broker is a Helper: resolve() maps a parsed job description to the
same description augmented with the chosen resource (SubmitTo, plus
ChosenSE when gangmatched), so it plugs into the workload manager or any
other caller through that single method.  A resolve reads one registry
snapshot, held by a `MatchBatch` that a caller may share between the
resolves of a batch of jobs: the match, the ranking, the gang pairs and
the check that a given SubmitTo names a known CE all use that snapshot.

Placement corrects the stale view of resources with the caller's own
claims, as Condor's matchmaker does: `Requirements` see the published
ad, while `Rank` sees a copy whose `FreeCPUs` is the CE's capacity minus
the attempts the caller has matched there and not yet seen end.
"""

from __future__ import annotations

import logging
import os
import random
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping

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
from .jdl import JobDescription, ValidationError, Violation
from .util import now_ms

log = logging.getLogger("gridwms.broker")

TTL_SECONDS = 120.0  # a resource ad older than this is not matched
FUZZY_RATIO = 0.9  # the fuzzy strategy picks among candidates ranked this close to the top


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

    def fresh(self, now: int) -> bool:
        return (now - self.last_update_ms) <= TTL_SECONDS * 1000


@dataclass(frozen=True)
class MatchResult:
    ce_id: str
    rank: float
    strategy: str
    se_id: str | None = None
    job_id: str | None = None


# candidate tuples flowing through selection strategies
Candidate = tuple[str, str | None, float]  # (ceId, seId, rank)
Resources = dict[str, ResourceEntry]  # one registry snapshot, by Id
StrategyFn = Callable[[list[Candidate], int | None], Candidate]
Pair = tuple[ResourceEntry, ResourceEntry | None]  # a matching CE, and its SE when gangmatched
Claims = Mapping[str, int]  # CE Id -> attempts matched there that have not ended


def _strategy_best(candidates: list[Candidate], seed: int | None) -> Candidate:
    return candidates[0]


def _strategy_fuzzy(candidates: list[Candidate], seed: int | None) -> Candidate:
    top = candidates[0][2]
    eligible = [c for c in candidates if c[2] >= FUZZY_RATIO * top]
    rng = random.Random(seed)
    return eligible[rng.randrange(len(eligible))]


def ce_capacity(ad: ClassAd) -> int:
    """A CE's job slots: its `Slots`, or its `TotalCPUs` when it has no
    `Slots`; at least one."""
    slots = attr_value(ad, "slots") or attr_value(ad, "totalcpus")
    return max(1, slots.value if isinstance(slots, Integer) else 1)


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
# clean" case), so the file is read again on the next snapshot.
RACY_MARGIN_NS = 100_000_000

StatKey = tuple[int, int, int, int]  # st_ino, st_size, st_mtime_ns, st_ctime_ns


@dataclass(frozen=True)
class _ParsedFile:
    stat_key: StatKey
    trusted: bool
    data: bytes  # the bytes parsed
    resource: tuple[str, str, ClassAd] | None  # (id, type, ad); None when rejected
    error: str | None = None  # why it was rejected


def _stat_key(st: os.stat_result) -> StatKey:
    return (st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


class ResourceRegistry:
    """Information registry fed by fixture files, live heartbeat files,
    and direct upserts; the only reader of resource `.ad` files.

    Heartbeat files (written by the executor) carry their mtime as the
    entry's last update; a static fixture without a heartbeat is treated
    as fresh configuration.  When a heartbeat exists it governs: a stale
    heartbeat means the resource is genuinely not reporting.

    A snapshot lists each directory and takes every file's stat key from
    its directory entry.  A file whose key equals that of its last read
    costs that one stat, unless the read was made within RACY_MARGIN_NS
    of the file's ctime.  Any other file is read again, and only bytes
    that differ from the last read are parsed; rejections are reused too.
    """

    def __init__(self, static_dir: Path | str | None = None, live_dir: Path | str | None = None):
        self.static_dir = Path(static_dir) if static_dir else None
        self.live_dir = Path(live_dir) if live_dir else None
        self._manual: dict[str, ResourceEntry] = {}
        self._parsed: dict[str, _ParsedFile] = {}  # by path
        self._lock = threading.Lock()

    def upsert(self, ad: ClassAd, last_update_ms: int | None = None) -> None:
        rid, rtype = validate_resource_ad(ad)
        entry = ResourceEntry(id=rid, type=rtype, ad=ad, last_update_ms=last_update_ms or now_ms())
        with self._lock:
            self._manual[rid] = entry

    def _read_file(self, path: str, previous: _ParsedFile | None) -> _ParsedFile:
        started = time.time_ns()
        with open(path, "rb") as fh:
            st = os.fstat(fh.fileno())
            data = fh.read()
        key, trusted = _stat_key(st), started - st.st_ctime_ns >= RACY_MARGIN_NS
        if previous is not None and previous.data == data:
            return replace(previous, stat_key=key, trusted=trusted)
        resource, error = None, None
        try:
            ad = classad.parse_ad(data.decode("utf-8"))
            resource = (*validate_resource_ad(ad), ad)
        except (WmsError, UnicodeDecodeError) as exc:
            error = str(exc)
            # warn when the file turns invalid, or invalid in a new way, not
            # on every rewrite (a heartbeat rewrites its file every period)
            if previous is None or previous.error != error:
                log.warning("ignoring resource file %s: %s", path, error)
        return _ParsedFile(key, trusted, data, resource, error)

    def _scan_dir(
        self, directory: Path | None, parsed_now: dict[str, _ParsedFile], mtime_as_update: bool
    ) -> dict[str, ResourceEntry]:
        out: dict[str, ResourceEntry] = {}
        if directory is None:
            return out
        try:
            with os.scandir(directory) as listing:
                files = sorted((e for e in listing if e.name.endswith(".ad")), key=lambda e: e.name)
        except (FileNotFoundError, NotADirectoryError):
            return out
        scan_time = now_ms()
        for dirent in files:
            path = dirent.path
            parsed = self._parsed.get(path)
            try:
                if parsed is None or not parsed.trusted or parsed.stat_key != _stat_key(dirent.stat()):
                    parsed = self._read_file(path, parsed)
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
            parsed_now: dict[str, _ParsedFile] = {}
            entries = self._scan_dir(self.static_dir, parsed_now, mtime_as_update=False)
            entries.update(self._scan_dir(self.live_dir, parsed_now, mtime_as_update=True))
            self._parsed = parsed_now  # rebuilt from this listing: deleted files drop out
            for rid, entry in self._manual.items():
                current = entries.get(rid)
                if current is None or current.last_update_ms <= entry.last_update_ms:
                    entries[rid] = entry
        return entries

    def list_resources(self) -> list[ResourceEntry]:
        return sorted(self.snapshot().values(), key=lambda e: e.id)


class MatchBatch:
    """One registry snapshot for the resolves of a batch of jobs, taken
    when first needed; `refresh` drops it."""

    def __init__(self, registry: ResourceRegistry):
        self.registry = registry
        self._resources: Resources | None = None

    @property
    def resources(self) -> Resources:
        if self._resources is None:
            self._resources = self.registry.snapshot()
        return self._resources

    def refresh(self) -> None:
        self._resources = None


class Broker:
    """Matchmaker Helper over a resource registry."""

    def __init__(self, registry: ResourceRegistry, default_strategy: str = "best"):
        self.registry = registry
        self.default_strategy = default_strategy
        self._strategies: dict[str, StrategyFn] = {"best": _strategy_best, "fuzzy": _strategy_fuzzy}

    def register_strategy(self, name: str, fn: StrategyFn) -> None:
        """Plug in a selection strategy: fn(sorted_candidates, seed) -> candidate."""
        self._strategies[name.lower()] = fn

    def _match(self, candidates: list[Candidate], strategy: str | None, seed: int | None) -> MatchResult:
        name = (strategy or self.default_strategy).lower()
        if name == "economic":
            raise UnsupportedStrategyError("the 'economic' strategy is reserved and not supported")
        fn = self._strategies.get(name)
        if fn is None:
            raise UnsupportedStrategyError(f"unknown strategy {name!r}")
        if not candidates:
            raise NoMatchingResourcesError("no matching resources")
        ordered = sorted(candidates, key=lambda c: (-c[2], c[0], c[1] or ""))
        ce, se, rank = fn(ordered, seed)
        return MatchResult(ce_id=ce, rank=rank, strategy=(strategy or self.default_strategy), se_id=se)

    def _fresh(self, resources: Resources, rtype: str, exclude: tuple[str, ...] = ()) -> list[ResourceEntry]:
        """The fresh entries of one type in a snapshot, Id ascending."""
        now = now_ms()
        return [
            e
            for _rid, e in sorted(resources.items())
            if e.type == rtype and e.fresh(now) and e.id not in exclude
        ]

    def _ranked(self, job: JobDescription, pairs: list[Pair], claims: Claims | None = None) -> list[Candidate]:
        """Each pair with the job's Rank.  With `claims`, Rank reads each
        CE's FreeCPUs as its capacity minus its claims, which is negative
        for a backlog."""
        out: list[Candidate] = []
        for ce, se in pairs:
            ad = ce.ad
            if claims is not None:
                free = ce_capacity(ad) - claims.get(ce.id, 0)
                ad = ad.with_attr("FreeCPUs", Literal(Integer(free)))
            if se is None:
                rank = rank_of(job.ad, ad)
            elif job.rank is None:
                rank = 0.0
            else:
                ctx = MatchContext({"self": job.ad, "other": ad, "ce": ad, "se": se.ad})
                rank = rank_value(evaluate(job.rank, ctx))
            out.append((ce.id, se.id if se else None, rank))
        return out

    # -- plain matchmaking -------------------------------------------------

    def _matches(self, job: JobDescription, resources: Resources, exclude: tuple[str, ...]) -> list[Pair]:
        return [(e, None) for e in self._fresh(resources, "CE", exclude) if match_two(job.ad, e.ad)]

    def find_matches(self, job: JobDescription) -> list[str]:
        """All fresh CEs whose ad matches the job bilaterally, Id ascending."""
        return [ce.id for ce, _se in self._matches(job, self.registry.snapshot(), ())]

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
        pairs = self._matches(job, self.registry.snapshot(), exclude)
        return self._match(self._ranked(job, pairs), strategy, seed)

    # -- gangmatching ---------------------------------------------------------

    def _gang_matches(self, job: JobDescription, resources: Resources, exclude: tuple[str, ...]) -> list[Pair]:
        ses = {e.id: e for e in self._fresh(resources, "SE")}
        out: list[Pair] = []
        for ce in self._fresh(resources, "CE", exclude):
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
                if isinstance(verdict, classad.Boolean) and verdict.value:
                    out.append((ce, se))
        return out

    def gang_candidates(self, job: JobDescription, exclude: tuple[str, ...] = ()) -> list[Candidate]:
        """(ce, se, rank) for every close pair satisfying the job's
        requirements evaluated with ce and se scopes bound."""
        return self._ranked(job, self._gang_matches(job, self.registry.snapshot(), exclude))

    def gang_match(
        self,
        job: JobDescription,
        strategy: str | None = None,
        seed: int | None = None,
        exclude: tuple[str, ...] = (),
    ) -> MatchResult:
        return self._match(self.gang_candidates(job, exclude), strategy, seed)

    # -- the Helper surface ------------------------------------------------------

    def resolve(
        self, job: JobDescription, batch: MatchBatch | None = None, claims: Claims | None = None
    ) -> JobDescription:
        """Description in, description out: augment with the resource choice
        made on the batch's snapshot (a snapshot of its own without one).
        Already-resolved input is returned unchanged if its SubmitTo names a
        CE there, and refused otherwise.  Rank reads `claims` when given.
        NoMatchingResourcesError propagates as a structured failure.
        """
        batch = batch or MatchBatch(self.registry)
        resources = batch.resources
        if job.submit_to:
            entry = resources.get(job.submit_to)
            if entry is None or entry.type != "CE":
                raise ValidationError([Violation("value", "SubmitTo", f"names no CE {job.submit_to!r}")])
            return job
        find = self._gang_matches if references_scope(job.requirements, "se") else self._matches
        pairs = find(job, resources, tuple(job.excluded_ces))
        result = self._match(self._ranked(job, pairs, claims), None, None)
        ad = job.ad.with_attr("SubmitTo", Literal(Text(result.ce_id)))
        if result.se_id:
            ad = ad.with_attr("ChosenSE", Literal(Text(result.se_id)))
        return replace(job, ad=ad, submit_to=result.ce_id, chosen_se=result.se_id or job.chosen_se)
