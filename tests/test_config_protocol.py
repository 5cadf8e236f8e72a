"""Tests for configuration validation and protocol constants."""

import pytest

from repro.core import TiamatConfig
from repro.core import protocol
from repro.core.config import PEER_TIMEOUT
from repro.core.comms import DISCOVER_WINDOW
from repro.core.instance import DEFAULT_LEASE_TERMS
from repro.leasing import LeaseTerms, OperationKind


# ---------------------------------------------------------------------------
# TiamatConfig
# ---------------------------------------------------------------------------
def test_config_defaults():
    config = TiamatConfig()
    assert config.propagate_mode == "start"  # the paper's prototype
    assert config.comms_strategy == "mru"
    assert PEER_TIMEOUT > 0
    assert DISCOVER_WINDOW > 0
    assert config.claim_timeout > 0


def test_config_rejects_bad_propagate_mode():
    with pytest.raises(ValueError):
        TiamatConfig(propagate_mode="sometimes")


def test_config_rejects_bad_comms_strategy():
    with pytest.raises(ValueError):
        TiamatConfig(comms_strategy="carrier-pigeon")


@pytest.mark.parametrize("field,value", [
    ("claim_timeout", 0.0), ("claim_timeout", -1.0), ("relay_ttl", -3),
])
def test_config_rejects_values_the_simulation_cannot_run(field, value):
    # A claim timeout <= 0 would schedule a put-back into the past from
    # inside a delivery handler; a negative relay budget means nothing.
    with pytest.raises(ValueError, match=field):
        TiamatConfig(**{field: value})


def test_config_default_terms_cover_all_operations():
    for kind in OperationKind:
        terms = DEFAULT_LEASE_TERMS[kind]
        assert isinstance(terms, LeaseTerms)
        assert terms.duration is not None  # no unbounded defaults
    with pytest.raises(TypeError):      # a read-only table
        DEFAULT_LEASE_TERMS[OperationKind.OUT] = LeaseTerms(duration=1.0)


def test_config_blocking_defaults_have_remote_budget():
    for kind in (OperationKind.IN, OperationKind.RD,
                 OperationKind.INP, OperationKind.RDP):
        assert DEFAULT_LEASE_TERMS[kind].max_remotes is not None


def test_config_deposit_defaults_longer_than_probes():
    assert (DEFAULT_LEASE_TERMS[OperationKind.OUT].duration
            > DEFAULT_LEASE_TERMS[OperationKind.RDP].duration)


def test_operation_kind_classification():
    assert OperationKind.OUT.is_deposit and OperationKind.EVAL.is_deposit
    assert not OperationKind.IN.is_deposit
    assert OperationKind.IN.is_blocking and OperationKind.RD.is_blocking
    assert not OperationKind.INP.is_blocking
    assert not OperationKind.RDP.is_blocking
    assert not OperationKind.OUT.is_blocking


# ---------------------------------------------------------------------------
# Protocol constants
# ---------------------------------------------------------------------------
def test_all_kinds_is_complete_and_unique():
    kinds = [
        protocol.DISCOVER, protocol.DISCOVER_ACK,
        protocol.QUERY, protocol.QUERY_REPLY, protocol.QUERY_REFUSED,
        protocol.CANCEL, protocol.CLAIM_ACCEPT, protocol.CLAIM_REJECT,
        protocol.REMOTE_OUT, protocol.REMOTE_OUT_ACK, protocol.RELAY_OUT,
        protocol.REL_ACK,
        protocol.SYNC_REQUEST, protocol.SYNC_RESPONSE,
        protocol.FABRIC_MAP, protocol.FABRIC_OUT, protocol.FABRIC_REPL,
        protocol.FABRIC_INVAL, protocol.FABRIC_MIGRATE,
        protocol.FABRIC_MIGRATE_ACK,
    ]
    assert len(kinds) == len(set(kinds))
    assert protocol.ALL_KINDS == frozenset(kinds)
    assert protocol.FABRIC_KINDS < protocol.ALL_KINDS


def test_kind_strings_are_stable():
    # The wire format is part of the public surface: renaming a kind is a
    # protocol break, so pin the strings.
    assert protocol.QUERY == "query"
    assert protocol.QUERY_REPLY == "query_reply"
    assert protocol.CLAIM_ACCEPT == "claim_accept"
    assert protocol.CLAIM_REJECT == "claim_reject"
    assert protocol.DISCOVER == "discover"
    assert protocol.REMOTE_OUT == "remote_out"
    assert protocol.SYNC_REQUEST == "sync_request"
    assert protocol.SYNC_RESPONSE == "sync_response"
    assert protocol.FABRIC_MAP == "fabric_map"
    assert protocol.FABRIC_OUT == "fabric_out"
    assert protocol.FABRIC_REPL == "fabric_repl"
    assert protocol.FABRIC_INVAL == "fabric_inval"
    assert protocol.FABRIC_MIGRATE == "fabric_migrate"
    assert protocol.FABRIC_MIGRATE_ACK == "fabric_migrate_ack"
