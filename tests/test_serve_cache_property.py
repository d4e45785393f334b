"""Property battery: the result store never lies.

The store's contract: (1) a hit returns the byte-identical JSON document that
was saved — for ANY point shape Hypothesis can draw; (2) distinct
(kind, point) pairs never collide — loading one never returns the
other's result, even across hash-adjacent parameter dicts; (3) bumping
:data:`SERVE_CACHE_VERSION` invalidates every stored result at once
(stale keys simply never match again); (4) whatever else lands in a
point's file — torn writes, foreign JSON, a record for another point —
reads as a miss or as the saved result, never as an exception or as
any other value.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve.cache import PENDING, ResultCache, cache_key

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
    assert cache.hits == 1 and cache.misses == 1


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
    from unittest import mock

    import repro.serve.cache as cache_mod

    cache_dir = str(tmp_path_factory.mktemp("cache"))
    ResultCache(cache_dir).save(kind, point, result)
    # Patch inside the example (a monkeypatch fixture would stay applied
    # across Hypothesis examples, poisoning later saves too).
    with mock.patch.object(cache_mod, "SERVE_CACHE_VERSION", "serve0-other"):
        stale = ResultCache(cache_dir)
        assert stale.load(kind, point) is PENDING
        assert stale.hits == 0 and stale.misses == 1
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


def test_disabled_cache_always_misses():
    cache = ResultCache(None)
    cache.save("selftest", {"i": 1}, {"v": 1})
    assert cache.load("selftest", {"i": 1}) is PENDING
    assert len(cache) == 0
