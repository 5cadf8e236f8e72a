"""Centralized client/server tuple space (TSpaces / JavaSpaces style).

Section 4.2: "Both systems offer the tuple space abstraction to devices on
a client/server basis. ... centralised architectures, where one machine
must be visible to all others, are not appropriate in a mobile
environment."

One :class:`CentralServer` hosts the only tuple space; every
:class:`CentralClient` forwards each operation to it over unicast and fails
the operation when the server is not visible.  Blocking operations park a
waiter *at the server* until a match or the client-supplied timeout.
"""

from __future__ import annotations

from repro.baselines.base import SimpleOp, SpaceNode
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.tuples import LocalTupleSpace, Pattern, Tuple
from repro.tuples.serialization import (
    decode_pattern,
    decode_tuple,
    encode_pattern,
    encode_tuple,
)

_OUT = "cs_out"
_OP = "cs_op"
_REPLY = "cs_reply"


class CentralServer:
    """The single space-hosting node."""

    def __init__(self, sim: Simulator, network: Network, name: str = "server") -> None:
        self.sim = sim
        self.name = name
        self.space = LocalTupleSpace(sim, name=name)
        self.iface = network.attach(name, self._on_message)
        self.ops_served = 0

    def _on_message(self, msg: Message) -> None:
        payload = msg.payload
        if msg.kind == _OUT:
            self.space.out(decode_tuple(payload["tuple"]))
            self.ops_served += 1
            return
        if msg.kind != _OP:
            return
        self.ops_served += 1
        pattern = decode_pattern(payload["pattern"])
        op, op_id, client = payload["op"], payload["op_id"], msg.src
        if op == "rdp":
            self._reply(client, op_id, self.space.rdp(pattern))
        elif op == "inp":
            self._reply(client, op_id, self.space.inp(pattern))
        elif op in ("rd", "in"):
            waiter = (self.space.rd(pattern) if op == "rd"
                      else self.space.in_(pattern))
            deadline = payload.get("timeout", 30.0)
            if waiter.satisfied:
                self._reply(client, op_id, waiter.event.value)
                return
            waiter.event.add_callback(
                lambda event: self._reply(client, op_id, event.value))
            self.sim.schedule(deadline, self._give_up, waiter, client, op_id)

    def _give_up(self, waiter, client: str, op_id: int) -> None:
        if not waiter.satisfied:
            waiter.cancel()
            self._reply(client, op_id, None)

    def _reply(self, client: str, op_id: int, tup) -> None:
        payload = {"kind": _REPLY, "op_id": op_id, "found": tup is not None}
        if tup is not None:
            payload["tuple"] = encode_tuple(tup)
        self.iface.unicast(client, payload)


class CentralClient(SpaceNode):
    """A client of the central server; useless while the server is invisible."""

    def __init__(self, sim: Simulator, network: Network, name: str,
                 server: str = "server") -> None:
        self.sim = sim
        self._op_ids = sim.ids("central_op")
        self.name = name
        self.server = server
        self.iface = network.attach(name, self._on_message)
        self._pending: dict[int, SimpleOp] = {}
        self.failures_unreachable = 0

    # ------------------------------------------------------------------
    def out(self, tup: Tuple) -> None:
        """Forward the deposit to the server; silently lost if unreachable."""
        sent = self.iface.unicast(self.server, {"kind": _OUT,
                                                "tuple": encode_tuple(tup)})
        if not sent:
            self.failures_unreachable += 1

    def rdp(self, pattern: Pattern) -> SimpleOp:
        return self._remote_op("rdp", pattern, timeout=5.0)

    def inp(self, pattern: Pattern) -> SimpleOp:
        return self._remote_op("inp", pattern, timeout=5.0)

    def rd(self, pattern: Pattern, timeout: float = 30.0) -> SimpleOp:
        return self._remote_op("rd", pattern, timeout=timeout)

    def in_(self, pattern: Pattern, timeout: float = 30.0) -> SimpleOp:
        return self._remote_op("in", pattern, timeout=timeout)

    def stored_tuples(self) -> int:
        return 0  # clients store nothing; the server carries everything

    # ------------------------------------------------------------------
    def _remote_op(self, op: str, pattern: Pattern, timeout: float) -> SimpleOp:
        handle = SimpleOp(self.sim)
        op_id = next(self._op_ids)
        sent = self.iface.unicast(self.server, {
            "kind": _OP, "op": op, "op_id": op_id,
            "pattern": encode_pattern(pattern), "timeout": timeout,
        })
        if not sent:
            self.failures_unreachable += 1
            handle.finalize(None, error="server unreachable")
            return handle
        self._pending[op_id] = handle
        # Client-side backstop in case the reply is lost or the server dies.
        self.sim.schedule(timeout + 5.0, self._abandon, op_id)
        return handle

    def _abandon(self, op_id: int) -> None:
        handle = self._pending.pop(op_id, None)
        if handle is not None and not handle.done:
            handle.finalize(None, error="timeout")

    def _on_message(self, msg: Message) -> None:
        if msg.kind != _REPLY:
            return
        handle = self._pending.pop(msg.payload["op_id"], None)
        if handle is None or handle.done:
            return
        if msg.payload["found"]:
            handle.finalize(decode_tuple(msg.payload["tuple"]))
        else:
            handle.finalize(None, error="no match")


def build_central_system(sim: Simulator, network: Network,
                         client_names: list[str],
                         server_name: str = "server"):
    """Construct a server plus clients; returns (server, {name: client})."""
    server = CentralServer(sim, network, server_name)
    clients = {name: CentralClient(sim, network, name, server_name)
               for name in client_names}
    return server, clients
