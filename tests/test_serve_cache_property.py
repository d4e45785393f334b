"""Property battery: the result store never lies.

The store's contract: (1) a hit returns the byte-identical JSON document that
was saved — for ANY point shape Hypothesis can draw; (2) distinct
(kind, point) pairs never collide — loading one never returns the
other's result, even across hash-adjacent parameter dicts; (3) bumping
:data:`SERVE_CACHE_VERSION` invalidates every stored result at once
(stale keys simply never match again); (4) whatever else lands in a
point's file — torn writes, foreign JSON, a record for another point —
reads as a miss or as the saved result, never as an exception or as
any other value; (5) a file is this point's canonical bytes or it is a
miss — reformatted, cut short or grown, it proves nothing — and those
bytes are the ones every earlier build wrote; (6) what an instance
remembers is keyed by the whole key record and handed out as one shared,
never-mutated object.
"""

import copy
import hashlib
import json
from unittest import mock

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.serve.cache as cache_mod
from repro.serve.cache import PENDING, ResultCache, cache_key
from repro.serve.orchestrator import Orchestrator

SETTINGS = settings(max_examples=50, deadline=None,
                    suppress_health_check=[
                        HealthCheck.too_slow,
                        # tmp_path_factory/monkeypatch reset per test, not
                        # per example — safe here: every example makes its
                        # own directory and sets the same attribute.
                        HealthCheck.function_scoped_fixture])

# Parameter values a job document can carry: anything JSON, including
# the awkward cases (unicode keys, nested lists, null, bool-vs-int).
scalars = st.one_of(st.none(), st.booleans(), st.integers(-2**31, 2**31),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.text(max_size=12))
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=8)
points = st.dictionaries(st.text(min_size=1, max_size=8), values,
                         max_size=4)
kinds = st.sampled_from(["msgrate", "scenario", "selftest"])
results = st.one_of(values, st.lists(values, max_size=4),
                    st.dictionaries(st.text(max_size=8), values,
                                    max_size=4))


def _canon(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      default=str)


@SETTINGS
@given(kind=kinds, point=points, result=results)
def test_hit_returns_byte_identical_result(tmp_path_factory, kind, point,
                                           result):
    cache = ResultCache(str(tmp_path_factory.mktemp("cache")))
    assert cache.load(kind, point) is PENDING  # cold
    cache.save(kind, point, result)
    loaded = cache.load(kind, point)
    assert _canon(loaded) == _canon(json.loads(_canon(result)))


@SETTINGS
@given(kind_a=kinds, point_a=points, kind_b=kinds, point_b=points,
       result_a=results, result_b=results)
def test_distinct_points_never_collide(tmp_path_factory, kind_a, point_a,
                                       kind_b, point_b, result_a, result_b):
    # Identity is the canonical JSON of (version, kind, point): only
    # byte-identical parameter documents share a key.
    same = cache_key(kind_a, point_a) == cache_key(kind_b, point_b)
    assert same == ((kind_a, _canon(point_a)) == (kind_b, _canon(point_b)))

    cache = ResultCache(str(tmp_path_factory.mktemp("cache")))
    cache.save(kind_a, point_a, result_a)
    cache.save(kind_b, point_b, result_b)
    loaded_b = cache.load(kind_b, point_b)
    assert _canon(loaded_b) == _canon(json.loads(_canon(result_b)))
    if not same:
        loaded_a = cache.load(kind_a, point_a)
        assert _canon(loaded_a) == _canon(json.loads(_canon(result_a)))
        assert len(cache) == 2  # one file per point, neither clobbered


@SETTINGS
@given(kind=kinds, point=points, result=results)
def test_version_bump_invalidates_everything(tmp_path_factory, kind, point,
                                             result):
    cache_dir = str(tmp_path_factory.mktemp("cache"))
    ResultCache(cache_dir).save(kind, point, result)
    # Patch inside the example (a monkeypatch fixture would stay applied
    # across Hypothesis examples, poisoning later saves too).
    with mock.patch.object(cache_mod, "SERVE_CACHE_VERSION", "serve0-other"):
        stale = ResultCache(cache_dir)
        assert stale.load(kind, point) is PENDING
    warm = ResultCache(cache_dir)
    assert warm.load(kind, point) is not PENDING  # original version still hits


@SETTINGS
@given(kind=kinds, point=points, result=results,
       junk=st.one_of(st.binary(max_size=64),
                      values.map(lambda doc: _canon(doc).encode("utf-8"))),
       keep=st.integers(0, 200))
def test_overwritten_file_is_a_miss_or_the_saved_result(
        tmp_path_factory, kind, point, result, junk, keep):
    directory = tmp_path_factory.mktemp("cache")
    cache = ResultCache(str(directory))
    cache.save(kind, point, result)
    (path,) = directory.iterdir()
    # Arbitrary bytes, arbitrary JSON ([] / null / 3 / a dict without
    # "result"), or a torn prefix of the real file with junk appended.
    path.write_bytes(path.read_bytes()[:keep] + junk if keep else junk)
    loaded = cache.load(kind, point)
    saved = json.loads(_canon(result))
    assert loaded is PENDING or _canon(loaded) == _canon(saved)
    cache.save(kind, point, result)  # a miss is recomputed and overwritten
    assert _canon(cache.load(kind, point)) == _canon(saved)


@SETTINGS
@given(kind=kinds, point=points, result=results)
def test_reserialised_file_is_a_miss(tmp_path_factory, kind, point, result):
    """Verification is by bytes: the same document with spaces, or with
    its keys in another order, is not this point's file."""
    directory = tmp_path_factory.mktemp("cache")
    writer = ResultCache(str(directory))
    writer.save(kind, point, result)
    (path,) = directory.iterdir()
    payload = json.loads(path.read_text(encoding="utf-8"))
    for text in (json.dumps(payload, sort_keys=True),
                 json.dumps({"result": payload["result"],
                             "point": payload["point"]},
                            sort_keys=False, separators=(",", ":"))):
        assert json.loads(text) == payload
        path.write_text(text, encoding="utf-8")
        assert ResultCache(str(directory)).load(kind, point) is PENDING
    # The instance that saved it proved the record itself and remembers.
    assert _canon(writer.load(kind, point)) == _canon(payload["result"])


@settings(SETTINGS, max_examples=15)
@given(kind=kinds, point=points, result=results,
       tail=st.one_of(st.sampled_from([b"}", b" ", b"\n", b"\r\n", b"\x00"]),
                      st.binary(min_size=1, max_size=8)))
def test_cut_or_grown_file_is_a_miss(tmp_path_factory, kind, point, result,
                                     tail):
    """Every strict prefix of a stored file is a miss, and so is the
    file with anything after it."""
    directory = tmp_path_factory.mktemp("cache")
    ResultCache(str(directory)).save(kind, point, result)
    (path,) = directory.iterdir()
    whole = path.read_bytes()
    for damaged in [whole[:cut] for cut in range(len(whole))] + [whole + tail]:
        path.write_bytes(damaged)
        assert ResultCache(str(directory)).load(kind, point) is PENDING
    path.write_bytes(whole)
    assert ResultCache(str(directory)).load(kind, point) is not PENDING


@SETTINGS
@given(kind_a=kinds, point_a=points, kind_b=kinds, point_b=points,
       result=results)
def test_remembered_record_answers_only_its_own_point(
        tmp_path_factory, kind_a, point_a, kind_b, point_b, result):
    assume((kind_a, _canon(point_a)) != (kind_b, _canon(point_b)))
    directory = tmp_path_factory.mktemp("cache")
    cache = ResultCache(str(directory))
    cache.save(kind_a, point_a, result)
    assert cache.load(kind_b, point_b) is PENDING
    (path,) = directory.iterdir()
    path.unlink()  # content-addressed: what was proved once stays true
    assert cache.load(kind_a, point_a) is result
    assert cache.load(kind_b, point_b) is PENDING


#: (kind, point, result) -> (file name, sha-256 of the file) as written
#: by the commit before the store learned to concatenate, under the
#: version label ``serve-pin``.
PINNED_FILES = [
    ("msgrate",
     {"mode": "everywhere", "cores": 8, "msgs_per_core": 64, "seed": 7},
     {"rate": 12345678.9, "span": 4.1472e-05, "messages": 512,
      "rate_Mmsgs": 12.35},
     "point-ea1805d73c0bb20bf13a4c6b.json",
     "a3942732b8bdb2efb76b75b554995a574cabccbc4c14568c6247eb50e2802ac9"),
    ("selftest", {"i": 3}, {"i": 3, "value": 9},
     "point-745df824c3e8c9587096ce77.json",
     "91b8861951882db654f8ba7fcd7eebd1b0a2519f3596033e2d6e41e7aae3eee6"),
    ("scenario",
     {"spec": {"app": "stencil", "nodes": 4, "faults": None,
               "app_params": {"iters": 2,
                              "\u00e9": [1, 2.5, "x", None, True]}}},
     {"status": "ok", "rule": None, "detail": "", "digest": "0" * 16,
      "checks": [], "spec": {"app": "stencil"}},
     "point-b8fe755248fc308abfdf93aa.json",
     "b064a4d2c1baad20e5048864bbc79afdf1c831ce7d917247e9df63d4ba60b5dc"),
]


def test_saved_bytes_are_the_bytes_every_build_wrote(tmp_path):
    with mock.patch.object(cache_mod, "SERVE_CACHE_VERSION", "serve-pin"):
        cache = ResultCache(str(tmp_path))
        for kind, point, result, name, sha256 in PINNED_FILES:
            cache.save(kind, point, result)
            written = (tmp_path / name).read_bytes()
            assert hashlib.sha256(written).hexdigest() == sha256
            assert ResultCache(str(tmp_path)).load(kind, point) == result
    assert len(cache) == len(PINNED_FILES)


def test_jobs_share_results_and_nothing_mutates_them(tmp_path):
    """Two jobs asking for one point hold the same result object, and two
    jobs of one document the same spec and point list, so nothing
    downstream may write to them: ``job_result`` and
    ``summarize_outcomes`` (a campaign job's summary) do not."""
    orch = Orchestrator(str(tmp_path / "s"))
    first = orch.submit("campaign", {"seed": 7, "n": 2})
    orch.drain_inline()
    second = orch.submit("campaign", {"seed": 7, "n": 2})
    job_a, job_b = orch.jobs[first], orch.jobs[second]
    a, b = job_a.results, job_b.results
    assert len(a) == 2 and all(x is y for x, y in zip(a, b))
    assert job_a.spec is job_b.spec and job_a.points is job_b.points
    before = copy.deepcopy((a, job_a.spec, job_a.points))
    docs = [orch.job_result(first), orch.job_result(second)]
    assert docs[0]["summary"] == docs[1]["summary"]
    assert docs[0]["summary"]["total"] == 2
    assert (a, job_a.spec, job_a.points) == before
    assert all(x is y for x, y in zip(a, b))
    # A restarted service reads each file once and shares from then on.
    orch.close()
    fresh = Orchestrator(str(tmp_path / "s"))
    fresh.resume_jobs()
    assert fresh.jobs[first].results == before[0]
    assert all(x is y for x, y in zip(fresh.jobs[first].results,
                                      fresh.jobs[second].results))
