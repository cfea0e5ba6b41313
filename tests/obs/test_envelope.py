"""Unit tests for the versioned event envelope and its upcaster chain."""

import json

import pytest

from repro.obs.envelope import (
    SCHEMA_VERSION,
    UPCASTERS,
    decode_event,
    encode_event,
)


class TestEncode:
    def test_canonical_form_with_version(self):
        line = encode_event({"seq": 0, "kind": "a", "t": 1.5})
        assert line == '{"kind":"a","seq":0,"t":1.5,"v":2}'

    def test_logical_event_must_not_carry_version(self):
        with pytest.raises(ValueError, match="'v'"):
            encode_event({"seq": 0, "kind": "a", "v": 1})


class TestDecode:
    def test_round_trip(self):
        event = {"seq": 3, "kind": "dispatch", "eid": 7}
        decoded, version = decode_event(json.loads(encode_event(event)))
        assert decoded == event
        assert version == SCHEMA_VERSION

    def test_v1_bare_object_upcasts_losslessly(self):
        # PR 3-era lines have no "v" field; v1 -> v2 is the identity on
        # the payload, so the logical event is exactly the stored one.
        stored = {"seq": 0, "kind": "schedule", "t": 0.0, "at": 1.5}
        decoded, version = decode_event(dict(stored))
        assert decoded == stored
        assert version == 1

    def test_future_version_rejected(self):
        with pytest.raises(ValueError, match="schema version"):
            decode_event({"seq": 0, "kind": "a", "v": SCHEMA_VERSION + 1})


class TestUpcasterChain:
    def test_chain_covers_every_old_version(self):
        # Every version from 1 to SCHEMA_VERSION-1 must have an upcaster
        # or old files become unreadable — the losslessness contract.
        assert set(UPCASTERS) == set(range(1, SCHEMA_VERSION))

    def test_upcasters_are_pure(self):
        original = {"seq": 1, "kind": "a", "t": 2.0}
        copy = dict(original)
        UPCASTERS[1](copy)
        assert copy == original
