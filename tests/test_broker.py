"""Broker: matchmaking, ranking, strategies, gangmatching, resolve()."""

from __future__ import annotations

import builtins
import contextlib
import dataclasses
import logging
import os
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from gridwms import classad
from gridwms.broker import (
    Broker,
    InvalidAdError,
    MatchBatch,
    NoMatchingResourcesError,
    RACY_MARGIN_NS,
    ResourceRegistry,
    UnsupportedStrategyError,
)
from gridwms.classad import MatchContext, evaluate, match_two, parse_ad, parse_expr, references_scope
from gridwms.jdl import JobDescription, ValidationError, validate_job
from gridwms.util import atomic_write_bytes, atomic_write_text, now_ms


def ce_ad(rid, free=4, total=None, status="Production", close=(), price=2, group="physics", **extra):
    total = total if total is not None else max(free, 1)
    parts = [
        f'Id = "{rid}"',
        'Type = "CE"',
        f'Status = "{status}"',
        f"FreeCPUs = {free}",
        f"TotalCPUs = {total}",
        f"OwnerGroup = \"{group}\"",
        f"PricePerCpuSecond = {price}",
    ]
    if close:
        parts.append("CloseSEs = {" + ", ".join(f'"{c}"' for c in close) + "}")
    for name, value in extra.items():
        parts.append(f"{name} = {value}")
    return parse_ad("[ " + "; ".join(parts) + "; ]")


def se_ad(rid, space=1000):
    return parse_ad(f'[ Id = "{rid}"; Type = "SE"; AvailableSpace = {space}; ]')


def make_broker(*ads) -> Broker:
    registry = ResourceRegistry()
    for ad in ads:
        registry.upsert(ad)
    return Broker(registry)


JOB = validate_job('[ Executable = "/bin/x"; Requirements = other.FreeCPUs > 0 && other.Status == "Production"; ]')


def test_upsert_and_update():
    registry = ResourceRegistry()
    registry.upsert(ce_ad("CE1", free=4))
    registry.upsert(ce_ad("CE1", free=2))
    entries = registry.list_resources()
    assert len(entries) == 1
    free = evaluate(entries[0].ad.get("freecpus"), MatchContext.solo(entries[0].ad))
    assert free == classad.Integer(2)


def test_invalid_resource_ads_rejected():
    with pytest.raises(InvalidAdError) as err:
        ResourceRegistry().upsert(parse_ad('[ Id = "CE9"; Type = "CE"; FreeCPUs = 5; TotalCPUs = 4; ]'))
    assert any("FreeCPUs must be <= TotalCPUs" in v for v in err.value.violations)
    with pytest.raises(InvalidAdError):
        ResourceRegistry().upsert(parse_ad('[ Type = "CE"; FreeCPUs = 1; TotalCPUs = 1; ]'))
    with pytest.raises(InvalidAdError):
        ResourceRegistry().upsert(parse_ad('[ Id = "X"; Type = "Quantum"; ]'))


def test_find_matches_fixture():
    broker = make_broker(ce_ad("CE1", free=4), ce_ad("CE2", free=0, total=2))
    assert broker.find_matches(JOB) == ["CE1"]


def test_find_matches_empty_registry_and_false_requirements():
    assert make_broker().find_matches(JOB) == []
    never = validate_job('[ Executable = "/x"; Requirements = false; ]')
    broker = make_broker(ce_ad("CE1"))
    assert broker.find_matches(never) == []


def test_se_ads_never_match_as_ces():
    broker = make_broker(ce_ad("CE1"), se_ad("SE1"))
    vacuous = validate_job('[ Executable = "/x"; Requirements = true; ]')
    assert broker.find_matches(vacuous) == ["CE1"]


def test_rank_matches_ordering_and_ties():
    broker = make_broker(ce_ad("CE1", free=4), ce_ad("CE3", free=7, total=8))
    ranked = broker.rank_matches(JOB, broker.find_matches(JOB))
    assert ranked == [("CE3", 7.0), ("CE1", 4.0)]
    tie = make_broker(ce_ad("CEb", free=3), ce_ad("CEa", free=3))
    assert tie.rank_matches(JOB, tie.find_matches(JOB)) == [("CEa", 3.0), ("CEb", 3.0)]


def test_select_best_is_argmax():
    broker = make_broker(ce_ad("CE1", free=4), ce_ad("CE3", free=7, total=8))
    result = broker.select_resource(JOB)
    assert result.ce_id == "CE3" and result.rank == 7.0


def test_select_scale_invariance_of_argmax():
    # multiplying every candidate's rank by a positive constant must not
    # change the chosen CE
    ads = [ce_ad("CE1", free=4), ce_ad("CE2", free=6, total=6), ce_ad("CE3", free=5, total=8)]
    plain = make_broker(*ads)
    job_scaled = validate_job(
        '[ Executable = "/bin/x"; Requirements = other.FreeCPUs > 0; Rank = 17 * other.FreeCPUs; ]'
    )
    job_plain = validate_job(
        '[ Executable = "/bin/x"; Requirements = other.FreeCPUs > 0; Rank = other.FreeCPUs; ]'
    )
    assert plain.select_resource(job_plain).ce_id == plain.select_resource(job_scaled).ce_id


def test_fuzzy_deterministic_given_seed():
    ads = [ce_ad(f"CE{i}", free=10 - i, total=10) for i in range(5)]
    broker = make_broker(*ads)
    first = broker.select_resource(JOB, strategy="fuzzy", seed=7)
    second = broker.select_resource(JOB, strategy="fuzzy", seed=7)
    assert first.ce_id == second.ce_id
    eligible = {c for c, r in broker.rank_matches(JOB, broker.find_matches(JOB)) if r >= 0.9 * 10}
    assert first.ce_id in eligible


def test_no_matching_resources_error():
    broker = make_broker(ce_ad("CE1", free=0, total=2))
    with pytest.raises(NoMatchingResourcesError):
        broker.select_resource(JOB)


def test_economic_strategy_reserved_and_unknown_rejected():
    broker = make_broker(ce_ad("CE1"))
    with pytest.raises(UnsupportedStrategyError):
        broker.select_resource(JOB, strategy="economic")
    with pytest.raises(UnsupportedStrategyError):
        broker.select_resource(JOB, strategy="nope")


def test_pluggable_strategy_registration():
    broker = make_broker(ce_ad("CEa", free=9, total=9), ce_ad("CEz", free=1))
    broker.register_strategy("worst", lambda cands, seed: cands[-1])
    assert broker.select_resource(JOB, strategy="worst").ce_id == "CEz"


def test_stale_resources_excluded():
    registry = ResourceRegistry()
    registry.upsert(ce_ad("CE1"), last_update_ms=now_ms() - 600_000)
    registry.upsert(ce_ad("CE2", free=2, total=2))
    broker = Broker(registry)
    assert broker.find_matches(JOB) == ["CE2"]


def test_registry_file_sources(tmp_path):
    static = tmp_path / "static"
    live = tmp_path / "live"
    static.mkdir()
    live.mkdir()
    (static / "ce1.ad").write_text(ce_ad("CE1", free=4).unparse())
    registry = ResourceRegistry(static_dir=static, live_dir=live)
    broker = Broker(registry)
    assert broker.find_matches(JOB) == ["CE1"]
    # a live heartbeat overrides the fixture
    (live / "ce1.ad").write_text(ce_ad("CE1", free=0, total=4).unparse())
    assert broker.find_matches(JOB) == []
    # a stale heartbeat means the CE stopped reporting: excluded
    import os, time
    (live / "ce1.ad").write_text(ce_ad("CE1", free=4).unparse())
    old = time.time() - 1000
    os.utime(live / "ce1.ad", (old, old))
    assert broker.find_matches(JOB) == []


def free_cpus(registry: ResourceRegistry, rid: str = "CE1") -> int:
    entry = registry.snapshot().get(rid)
    return classad.attr_value(entry.ad, "freecpus").value


def test_registry_sees_same_size_rewrite_with_old_mtime(tmp_path):
    path = tmp_path / "ce1.ad"
    path.write_text(ce_ad("CE1", free=4, total=4).unparse())
    time.sleep(2 * RACY_MARGIN_NS / 1e9)  # so that the first parse is trusted
    registry = ResourceRegistry(static_dir=tmp_path)
    assert free_cpus(registry) == 4
    before = os.stat(path)
    with open(path, "r+") as fh:  # in place: same inode, same size
        fh.write(ce_ad("CE1", free=3, total=4).unparse())
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert os.stat(path).st_size == before.st_size
    assert free_cpus(registry) == 3


class FrozenDirEntry:
    """A directory entry whose stat is a fixed value."""

    def __init__(self, entry: os.DirEntry, st):
        self.name, self.path, self._st = entry.name, entry.path, st

    def stat(self):
        return self._st


def freeze_stats(monkeypatch, frozen) -> None:
    """Make every stat that the registry takes, from a directory entry or
    from an open file, return `frozen`."""
    real_scandir = os.scandir

    def scandir(path):
        with real_scandir(path) as listing:
            return contextlib.nullcontext([FrozenDirEntry(e, frozen) for e in listing])

    monkeypatch.setattr("gridwms.broker.os.scandir", scandir)
    monkeypatch.setattr("gridwms.broker.os.fstat", lambda fd: frozen)


def test_registry_reparses_racily_clean_file(tmp_path, monkeypatch):
    """Two versions with one stat key, as within one timestamp tick: a
    parse made close to the file's ctime is not reused, an old one is."""
    path = tmp_path / "ce1.ad"
    path.write_text(ce_ad("CE1", free=4, total=4).unparse())
    real = os.stat(path)
    frozen = SimpleNamespace(st_ino=real.st_ino, st_size=real.st_size, st_mtime_ns=real.st_mtime_ns)
    freeze_stats(monkeypatch, frozen)
    for ctime_ns, expected in ((time.time_ns(), 3), (time.time_ns() - 10 * RACY_MARGIN_NS, 4)):
        frozen.st_ctime_ns = ctime_ns
        path.write_text(ce_ad("CE1", free=4, total=4).unparse())
        registry = ResourceRegistry(static_dir=tmp_path)
        assert free_cpus(registry) == 4
        path.write_text(ce_ad("CE1", free=3, total=4).unparse())
        assert free_cpus(registry) == expected


def test_registry_reuses_parse_of_unchanged_file(tmp_path, monkeypatch):
    (tmp_path / "ce1.ad").write_text(ce_ad("CE1").unparse())
    time.sleep(2 * RACY_MARGIN_NS / 1e9)
    calls = []
    real_parse = classad.parse_ad
    monkeypatch.setattr(classad, "parse_ad", lambda text: calls.append(text) or real_parse(text))
    registry = ResourceRegistry(static_dir=tmp_path)
    for _ in range(3):
        assert registry.snapshot().get("CE1") is not None
    assert len(calls) == 1


def test_registry_sees_rename_over_heartbeat(tmp_path):
    live = tmp_path / "live"
    live.mkdir()
    atomic_write_text(live / "ce1.ad", ce_ad("CE1", free=4, total=4).unparse())
    time.sleep(2 * RACY_MARGIN_NS / 1e9)
    registry = ResourceRegistry(live_dir=live)
    assert free_cpus(registry) == 4
    atomic_write_text(live / "ce1.ad", ce_ad("CE1", free=2, total=4).unparse())
    assert free_cpus(registry) == 2


def test_registry_drops_deleted_file(tmp_path):
    (tmp_path / "ce1.ad").write_text(ce_ad("CE1").unparse())
    (tmp_path / "ce2.ad").write_text(ce_ad("CE2").unparse())
    registry = ResourceRegistry(static_dir=tmp_path)
    assert set(registry.snapshot()) == {"CE1", "CE2"}
    (tmp_path / "ce1.ad").unlink()
    assert set(registry.snapshot()) == {"CE2"}


def test_registry_warns_when_a_file_turns_invalid(tmp_path, caplog):
    bad = tmp_path / "ce9.ad"
    registry = ResourceRegistry(live_dir=tmp_path)
    with caplog.at_level(logging.WARNING, logger="gridwms.broker"):
        for free in (5, 6, 7):  # a heartbeat rewriting the same fault
            atomic_write_text(bad, f'[ Id = "CE9"; Type = "CE"; FreeCPUs = {free}; TotalCPUs = 4; ]')
            for _ in range(2):
                assert registry.snapshot() == {}
        assert len(caplog.records) == 1
        atomic_write_text(bad, '[ Id = "CE9"; Type = "CE"; FreeCPUs = 4; TotalCPUs = 4; ]')
        assert set(registry.snapshot()) == {"CE9"}
        atomic_write_text(bad, '[ Id = "CE9"; Type = "CE"; FreeCPUs = 5; TotalCPUs = 4; ]')
        assert registry.snapshot() == {}
        assert len(caplog.records) == 2  # valid, then invalid again
        atomic_write_text(bad, '[ Id = "CE9"; Type = "CE"; FreeCPUs = 5; TotalCPUs = 0; ]')
        assert registry.snapshot() == {}
    assert len(caplog.records) == 3  # invalid in a new way
    assert all("ce9.ad" in r.getMessage() for r in caplog.records)
    assert "TotalCPUs must be an integer >= 1" in caplog.records[2].getMessage()


def test_a_snapshot_of_unchanged_trusted_files_opens_and_parses_none(tmp_path, monkeypatch):
    static, live = tmp_path / "static", tmp_path / "live"
    static.mkdir()
    live.mkdir()
    (static / "ce1.ad").write_text(ce_ad("CE1").unparse())
    (static / "se1.ad").write_text(se_ad("SE1").unparse())
    (static / "bad.ad").write_text('[ Id = "CE9"; Type = "CE"; ]')
    atomic_write_text(live / "ce2.ad", ce_ad("CE2").unparse())
    time.sleep(2 * RACY_MARGIN_NS / 1e9)  # so that the first reads are trusted
    registry = ResourceRegistry(static_dir=static, live_dir=live)
    first = registry.snapshot()
    opened, parsed = [], []
    real_open, real_os_open, real_parse = builtins.open, os.open, classad.parse_ad
    monkeypatch.setattr(builtins, "open", lambda file, *a, **k: opened.append(str(file)) or real_open(file, *a, **k))
    monkeypatch.setattr(os, "open", lambda path, *a, **k: opened.append(str(path)) or real_os_open(path, *a, **k))
    monkeypatch.setattr(classad, "parse_ad", lambda text: parsed.append(text) or real_parse(text))
    second = registry.snapshot()
    assert [p for p in opened if p.endswith(".ad")] == []
    assert parsed == []
    assert {rid: e.ad for rid, e in second.items()} == {rid: e.ad for rid, e in first.items()}
    assert second["CE2"].last_update_ms == first["CE2"].last_update_ms


def test_a_touched_heartbeat_keeps_its_parse_and_gets_the_new_mtime(tmp_path, monkeypatch):
    path = tmp_path / "ce1.ad"
    atomic_write_text(path, ce_ad("CE1").unparse())
    registry = ResourceRegistry(live_dir=tmp_path)
    registry.snapshot()
    parsed = []
    real_parse = classad.parse_ad
    monkeypatch.setattr(classad, "parse_ad", lambda text: parsed.append(text) or real_parse(text))
    later = time.time_ns() + 5_000_000_000
    os.utime(path, ns=(later, later))
    assert registry.snapshot().get("CE1").last_update_ms == later // 1_000_000
    assert parsed == []


def registry_view(registry: ResourceRegistry, live_ids: set[str]) -> dict:
    """What a snapshot says of each resource; a static fixture's last update
    is the snapshot's own time, so only a live entry's is compared."""
    return {
        rid: (e.type, e.ad.unparse(), e.last_update_ms if rid in live_ids else None)
        for rid, e in registry.snapshot().items()
    }


REGISTRY_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["atomic", "in_place", "utime", "delete", "invalid", "new", "wait"]),
        st.sampled_from(["static", "live"]),
        st.integers(0, 1),  # which file
        st.integers(0, 9),  # FreeCPUs, one digit: every valid version of a file has one size
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(steps=REGISTRY_STEPS)
# a trusted read, then a rewrite that only the ctime shows, or a touch
@example(steps=[("atomic", "static", 0, 1), ("wait", "static", 0, 0), ("in_place", "static", 0, 2)])
@example(steps=[("atomic", "live", 1, 1), ("wait", "live", 1, 0), ("utime", "live", 1, 3)])
def test_the_cached_registry_equals_a_fresh_one(tmp_path_factory, steps):
    root = tmp_path_factory.mktemp("registry")
    dirs = {"static": root / "static", "live": root / "live"}
    for d in dirs.values():
        d.mkdir()
    cached = ResourceRegistry(static_dir=dirs["static"], live_dir=dirs["live"])
    for op, where, n, free in steps:
        path = dirs[where] / f"r{n}.ad"
        text = ce_ad(f"CE{n}", free=free, total=9).unparse()
        if op == "wait":
            time.sleep(1.2 * RACY_MARGIN_NS / 1e9)  # past the racy margin
        elif op == "atomic" or (op in ("in_place", "new") and not path.exists()):
            atomic_write_text(path, text)
        elif op == "new":
            path.unlink()
            path.write_text(text)  # a new file, likely on the old inode
        elif op == "in_place" and path.stat().st_size == len(text):
            before = path.stat()
            with open(path, "r+") as fh:
                fh.write(text)
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        elif op == "in_place":
            path.write_text(text)
        elif op == "utime" and path.exists():
            stamp = time.time_ns() - free * 1_000_000_000
            os.utime(path, ns=(stamp, stamp))
        elif op == "delete" and path.exists():
            path.unlink()
        elif op == "invalid":
            invalid = f'[ Id = "CE{n}"; Type = "CE"; TotalCPUs = 0; ]'.encode()
            atomic_write_bytes(path, b"\xff\xfe" + invalid if free % 2 else invalid)
        live_ids = set(ResourceRegistry(live_dir=dirs["live"]).snapshot())
        fresh = ResourceRegistry(static_dir=dirs["static"], live_dir=dirs["live"])
        assert registry_view(cached, live_ids) == registry_view(fresh, live_ids)


# -- gangmatching ----------------------------------------------------------------

GANG_JOB = validate_job(
    '[ Executable = "/bin/x"; Requirements = se.AvailableSpace >= 500 && ce.FreeCPUs > 0; '
    "Rank = ce.FreeCPUs; ]"
)


def test_gang_match_fixture():
    broker = make_broker(ce_ad("CE1", free=4, close=("SE1",)), se_ad("SE1", space=1000))
    result = broker.gang_match(GANG_JOB)
    assert (result.ce_id, result.se_id) == ("CE1", "SE1")


def test_gang_match_insufficient_space():
    broker = make_broker(ce_ad("CE1", free=4, close=("SE1",)), se_ad("SE1", space=100))
    with pytest.raises(NoMatchingResourcesError):
        broker.gang_match(GANG_JOB)


def test_ce_close_to_no_se_excluded():
    broker = make_broker(
        ce_ad("CE1", free=9, total=9),  # no CloseSEs: not a candidate pair
        ce_ad("CE2", free=1, close=("SE1",)),
        se_ad("SE1"),
    )
    assert broker.gang_match(GANG_JOB).ce_id == "CE2"


def _gang_oracle(broker, job):
    """Brute force over every (CE, SE) pair."""
    snapshot = broker.registry.snapshot()
    ces = {e.id: e.ad for e in snapshot.values() if e.type == "CE"}
    ses = {e.id: e.ad for e in snapshot.values() if e.type == "SE"}
    pairs = []
    for cid, ce in sorted(ces.items()):
        close = ce.get("closeses")
        close_ids = []
        if close is not None:
            value = evaluate(close, MatchContext.solo(ce))
            close_ids = [t.value for t in getattr(value, "items", ()) if isinstance(t, classad.Text)]
        for sid, se in sorted(ses.items()):
            if sid not in close_ids:
                continue
            ctx = MatchContext({"self": job.ad, "other": ce, "ce": ce, "se": se})
            verdict = evaluate(job.requirements, ctx)
            if verdict == classad.TRUE:
                rank = evaluate(job.rank, ctx)
                rank_value = float(rank.value) if isinstance(rank, (classad.Integer, classad.Real)) else 0.0
                pairs.append((cid, sid, rank_value))
    return pairs


def test_gang_match_agrees_with_pair_oracle_random():
    rng = random.Random(11)
    for trial in range(50):
        ads = []
        n_ce = rng.randint(1, 5)
        n_se = rng.randint(1, 4)
        se_ids = [f"SE{i}" for i in range(n_se)]
        for i in range(n_ce):
            close = tuple(s for s in se_ids if rng.random() < 0.6)
            ads.append(ce_ad(f"CE{i}", free=rng.randint(0, 8), total=8, close=close))
        for i, sid in enumerate(se_ids):
            ads.append(se_ad(sid, space=rng.choice([100, 600, 2000])))
        broker = make_broker(*ads)
        oracle_pairs = _gang_oracle(broker, GANG_JOB)
        got = sorted(broker.gang_candidates(GANG_JOB))
        assert got == sorted(oracle_pairs)
        if oracle_pairs:
            best = broker.gang_match(GANG_JOB)
            expected = sorted(oracle_pairs, key=lambda p: (-p[2], p[0], p[1]))[0]
            assert (best.ce_id, best.se_id, best.rank) == expected
        else:
            with pytest.raises(NoMatchingResourcesError):
                broker.gang_match(GANG_JOB)


# -- the Helper surface ---------------------------------------------------------------


def test_resolve_adds_submit_to():
    broker = make_broker(ce_ad("CE1", free=4), ce_ad("CE2", free=0, total=2))
    out = broker.resolve(JOB).to_jdl()
    resolved = validate_job(out)
    assert resolved.submit_to == "CE1"
    # output re-validates and reparses
    assert parse_ad(out) is not None


def test_resolve_idempotent_on_resolved_input():
    broker = make_broker(ce_ad("CE1"))
    once = broker.resolve(JOB)
    assert broker.resolve(once) == once


def test_resolve_structured_failure():
    broker = make_broker(ce_ad("CE1", free=0, total=2))
    with pytest.raises(NoMatchingResourcesError):
        broker.resolve(JOB)


def test_resolve_gangmatch_adds_chosen_se():
    broker = make_broker(ce_ad("CE1", free=4, close=("SE1",)), se_ad("SE1"))
    resolved = validate_job(broker.resolve(GANG_JOB).to_jdl())
    assert resolved.submit_to == "CE1"
    assert resolved.chosen_se == "SE1"


def test_resolve_respects_excluded_ces():
    broker = make_broker(ce_ad("CE1", free=9, total=9), ce_ad("CE2", free=1))
    jdl = JOB.ad.with_attr("ExcludedCEs", parse_expr('{"CE1"}')).unparse()
    resolved = validate_job(broker.resolve(validate_job(jdl)).to_jdl())
    assert resolved.submit_to == "CE2"


def test_resolve_refuses_submit_to_that_names_no_ce():
    broker = make_broker(ce_ad("CE1", close=("SE1",)), se_ad("SE1"))
    for target in ("SE1", "CE9"):
        with pytest.raises(ValidationError, match="SubmitTo"):
            broker.resolve(validate_job(f'[ Executable = "/x"; SubmitTo = "{target}"; ]'))


_RESOLVE_REQS = [
    "other.FreeCPUs > 0",
    'other.FreeCPUs > 1 && other.Status == "Production"',
    "other.FreeCPUs > 0 || other.TotalCPUs >= 8",
    "se.AvailableSpace >= 500 && ce.FreeCPUs > 0",
    'se.AvailableSpace >= 100 && ce.Status == "Production"',
]


@settings(max_examples=150, deadline=None)
@given(
    ces=st.lists(st.tuples(st.integers(0, 8), st.sampled_from(["Production", "Draining"]),
                           st.sets(st.sampled_from(["SE1", "SE2"]))), max_size=6),
    spaces=st.tuples(st.sampled_from([100, 600, 2000]), st.sampled_from([100, 600, 2000])),
    req=st.sampled_from(_RESOLVE_REQS),
    rank=st.sampled_from(["other.FreeCPUs", "-other.FreeCPUs", "0"]),
    excluded=st.sets(st.integers(0, 5), max_size=2),
)
def test_resolve_returns_the_description_its_text_parses_to(ces, spaces, req, rank, excluded):
    ads = [ce_ad(f"CE{i}", free=free, total=8, status=status, close=tuple(sorted(close)))
           for i, (free, status, close) in enumerate(ces)]
    broker = make_broker(*ads, se_ad("SE1", spaces[0]), se_ad("SE2", spaces[1]))
    exclude = ", ".join(f'"CE{i}"' for i in sorted(excluded))
    job = validate_job(f'[ Executable = "/x"; Requirements = {req}; Rank = {rank}; '
                       f"ExcludedCEs = {{{exclude}}}; ]")
    match = broker.gang_match if references_scope(job.requirements, "se") else broker.select_resource
    try:
        expected = match(job, exclude=tuple(job.excluded_ces))
    except NoMatchingResourcesError:
        with pytest.raises(NoMatchingResourcesError):
            broker.resolve(job)
        return
    resolved = broker.resolve(job)
    again = validate_job(resolved.to_jdl())
    for field in dataclasses.fields(JobDescription):
        if field.name == "ad":
            assert resolved.ad.unparse() == again.ad.unparse()
        else:
            assert getattr(resolved, field.name) == getattr(again, field.name), field.name
    assert (resolved.submit_to, resolved.chosen_se) == (expected.ce_id, expected.se_id)


# -- oracle equivalence for plain matching -----------------------------------------


def test_find_matches_agrees_with_brute_force_random():
    rng = random.Random(3)
    requirement_pool = [
        "other.FreeCPUs > 0",
        "other.FreeCPUs >= 4",
        'other.Status == "Production"',
        'other.FreeCPUs > 1 && other.Status == "Production"',
        'member("SE1", other.CloseSEs)',
        "other.FreeCPUs > 0 || other.TotalCPUs >= 8",
    ]
    for _ in range(60):
        ads = []
        for i in range(rng.randint(0, 8)):
            ads.append(
                ce_ad(
                    f"CE{i}",
                    free=rng.randint(0, 8),
                    total=8,
                    status=rng.choice(["Production", "Draining"]),
                    close=("SE1",) if rng.random() < 0.5 else (),
                )
            )
        broker = make_broker(*ads)
        req = rng.choice(requirement_pool)
        job = validate_job(f'[ Executable = "/x"; Requirements = {req}; ]')
        oracle = sorted(
            e.id
            for e in broker.registry.list_resources()
            if e.type == "CE" and match_two(job.ad, e.ad)
        )
        assert broker.find_matches(job) == oracle
        ranked = broker.rank_matches(job, broker.find_matches(job))
        if ranked:
            # head equals scan-computed argmax under the tie-break
            best = min(ranked, key=lambda p: (-p[1], p[0]))
            assert ranked[0] == best
            assert broker.select_resource(job).ce_id == best[0]


# -- claims and batches -------------------------------------------------------


def test_rank_reads_free_cpus_as_capacity_minus_claims():
    broker = make_broker(ce_ad("CE1", free=4, total=4, Slots=3), ce_ad("CE2", free=2, total=2),
                         ce_ad("CE3", free=1, total=8))  # capacity: Slots 3, TotalCPUs 2, TotalCPUs 8
    job = validate_job('[ Executable = "/x"; ]')  # the default Rank, other.FreeCPUs
    assert broker.resolve(job).submit_to == "CE1"  # without claims: the published FreeCPUs
    assert broker.resolve(job, claims={}).submit_to == "CE3"
    assert broker.resolve(job, claims={"CE3": 6}).submit_to == "CE1"  # 3, 2, 2
    assert broker.resolve(job, claims={"CE1": 5, "CE2": 3, "CE3": 9}).submit_to == "CE2"  # -2, -1, -1: a backlog
    assert broker.resolve(job, claims={"CE1": 4, "CE2": 3, "CE3": 9}).submit_to == "CE1"  # -1, -1, -1


def test_requirements_see_the_published_ad_under_claims():
    broker = make_broker(ce_ad("CE1", free=1, total=2), ce_ad("CE2", free=0, total=2))
    job = validate_job('[ Executable = "/x"; Requirements = other.FreeCPUs > 0; ]')
    assert broker.resolve(job, claims={"CE1": 7}).submit_to == "CE1"  # FreeCPUs -5 for its Rank only
    gang = validate_job('[ Executable = "/x"; Requirements = se.AvailableSpace > 0 && ce.FreeCPUs > 0; '
                        'Rank = ce.FreeCPUs; ]')
    broker = make_broker(ce_ad("CE1", free=1, total=2, close=("SE1",)), ce_ad("CE2", free=2, total=2, close=("SE1",)),
                         se_ad("SE1"))
    assert broker.resolve(gang, claims={}).submit_to == "CE1"  # both rank 2: the lowest Id
    assert broker.resolve(gang, claims={"CE1": 1}).submit_to == "CE2"  # ranks 1 and 2


def test_a_batch_reads_one_snapshot_until_refreshed():
    broker = make_broker(ce_ad("CE1"))
    batch = MatchBatch(broker.registry)
    assert broker.resolve(JOB, batch, {}).submit_to == "CE1"
    broker.registry.upsert(ce_ad("CE1", status="Draining"))
    broker.registry.upsert(ce_ad("CE2"))
    assert broker.resolve(JOB, batch, {}).submit_to == "CE1"  # the batch's snapshot
    batch.refresh()
    assert broker.resolve(JOB, batch, {}).submit_to == "CE2"
