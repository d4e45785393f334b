"""The state tree's format version, in a module that imports nothing: a
service keys its result cache on it (:mod:`repro.serve.cache`) and loads
no simulator to read it."""

__all__ = ["STATE_FORMAT_VERSION"]

#: Version of the state-tree layout itself (bumped whenever the shape of
#: the captured tree changes; see docs/snapshot.md).
#: v2: added the ``topology`` subtree (per-link queue/counter state on
#: worlds built over a routed interconnect; None on direct fabrics).
STATE_FORMAT_VERSION = 2
