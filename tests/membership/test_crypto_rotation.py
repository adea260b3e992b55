"""Epoch-key rotation: the cryptographic cut behind quarantine."""

import pytest

from repro.errors import ConfigurationError, CryptoError
from repro.messages import PeerTimeRequest, PeerTimeResponse
from repro.net.crypto import SecureChannelKey, derive_epoch_secret

PING = PeerTimeRequest(request_id=1)
PONG = PeerTimeResponse(request_id=1, timestamp_ns=42)


class TestEpochSecret:
    def test_deterministic_per_epoch_and_label(self):
        assert derive_epoch_secret(3, "cluster") == derive_epoch_secret(3, "cluster")
        assert derive_epoch_secret(3, "cluster") != derive_epoch_secret(4, "cluster")
        assert derive_epoch_secret(3, "cluster") != derive_epoch_secret(3, "other")

    def test_negative_epoch_rejected(self):
        with pytest.raises(CryptoError):
            derive_epoch_secret(-1, "cluster")


class TestRekey:
    def _pair(self):
        return (
            SecureChannelKey.between("node-1", "node-2"),
            SecureChannelKey.between("node-2", "node-1"),
        )

    def test_same_secret_keeps_the_link_interoperating(self):
        a, b = self._pair()
        secret = derive_epoch_secret(1, "cluster")
        a.rekey(secret, 1)
        b.rekey(secret, 1)
        assert b.open(a.seal(PONG)) == PONG
        assert a.epoch == b.epoch == 1

    def test_old_epoch_blob_is_rejected(self):
        a, b = self._pair()
        stale = a.seal(PING)
        b.rekey(derive_epoch_secret(1, "cluster"), 1)
        with pytest.raises(CryptoError, match="tag mismatch"):
            b.open(stale)
        # And the cut is symmetric: the un-rotated side cannot read the
        # rotated side's messages either.
        with pytest.raises(CryptoError, match="tag mismatch"):
            a.open(b.seal(PONG))

    def test_missed_epochs_recover_in_one_step(self):
        # Rotation derives from the base key, not the previous epoch key:
        # a node that missed epochs 1..4 re-keys straight to epoch 5.
        a, b = self._pair()
        for epoch in range(1, 6):
            a.rekey(derive_epoch_secret(epoch, "cluster"), epoch)
        b.rekey(derive_epoch_secret(5, "cluster"), 5)
        assert b.open(a.seal(PING)) == PING

    def test_epoch_zero_restores_the_base_key(self):
        a, b = self._pair()
        a.rekey(derive_epoch_secret(2, "cluster"), 2)
        a.rekey(b"\x00" * 32, 0)  # secret is irrelevant for epoch 0
        assert b.open(a.seal(PING)) == PING
        assert a.epoch == 0

    def test_negative_epoch_rejected(self):
        a, _ = self._pair()
        with pytest.raises(CryptoError):
            a.rekey(b"\x00" * 32, -2)


class TestEndpointRotation:
    def _cluster(self):
        from repro.core.cluster import ClusterConfig, TriadCluster
        from repro.sim.kernel import Simulator

        sim = Simulator(seed=1)
        return TriadCluster(sim, ClusterConfig(node_count=3))

    def test_rekey_peer_rotates_one_link(self):
        cluster = self._cluster()
        node = cluster.nodes[0]
        peer = node.peer_names[0]
        secret = derive_epoch_secret(1, "cluster")
        assert node.endpoint.peer_epoch(peer) == 0
        node.endpoint.rekey_peer(peer, secret, 1)
        assert node.endpoint.peer_epoch(peer) == 1
        # Other links are untouched — notably the TA link.
        ta = cluster.tas[0].name
        assert node.endpoint.peer_epoch(ta) == 0

    def test_unknown_peer_raises(self):
        cluster = self._cluster()
        node = cluster.nodes[0]
        with pytest.raises(ConfigurationError, match="no peer"):
            node.endpoint.rekey_peer("node-99", b"\x00" * 32, 1)
        with pytest.raises(ConfigurationError, match="no peer"):
            node.endpoint.peer_epoch("node-99")

    def test_peer_names_exclude_the_time_authority(self):
        cluster = self._cluster()
        node = cluster.nodes[0]
        ta_names = {ta.name for ta in cluster.tas}
        assert not (set(node.peer_names) & ta_names)
