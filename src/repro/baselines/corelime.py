"""CoreLime protocol model: host-level spaces plus mobile agents.

Section 4.5: "Operations are only allowed on local spaces, no remote
communications are permitted at all.  Instead, clients are expected to take
advantage of mobile agents to access other host-level tuple spaces.  If a
client wants to perform an operation on a remote, host-level tuple space,
it must create a new mobile agent and migrate it to the desired host.  Once
there, the agent would engage with the host-level space, perform the
operation and finally migrate back to the originating host."

Model: the plain :class:`SpaceNode` operations act on the local host-level
space only.  Remote access goes through :meth:`CoreLimeHost.send_agent`,
which pays the agent's migration cost both ways (agent code size dominates
the wire bytes) and fails when the destination is not visible — locating
usable remote spaces is explicitly "placed on the application developer".
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

_AGENT_GO = "cl_agent_go"
_AGENT_BACK = "cl_agent_back"

#: Padding representing the serialized agent code shipped with each hop.
_AGENT_CODE_SIZE = 2048


class CoreLimeHost(SpaceNode):
    """A host with a local space; remote access only via mobile agents."""

    def __init__(self, sim: Simulator, network: Network, name: str) -> None:
        self.sim = sim
        self._agent_ids = sim.ids("corelime_agent")
        self.name = name
        self.space = LocalTupleSpace(sim, name=name)
        self.iface = network.attach(name, self._on_message)
        self._pending_agents: dict[int, SimpleOp] = {}
        self.agents_sent = 0
        self.agents_lost = 0

    # ------------------------------------------------------------------
    # Local-only SpaceNode operations
    # ------------------------------------------------------------------
    def out(self, tup: Tuple) -> None:
        self.space.out(tup)

    def rdp(self, pattern: Pattern) -> SimpleOp:
        handle = SimpleOp(self.sim)
        handle.finalize(self.space.rdp(pattern))
        return handle

    def inp(self, pattern: Pattern) -> SimpleOp:
        handle = SimpleOp(self.sim)
        handle.finalize(self.space.inp(pattern))
        return handle

    def rd(self, pattern: Pattern, timeout: float = 30.0) -> SimpleOp:
        return self._local_blocking(self.space.rd(pattern), timeout)

    def in_(self, pattern: Pattern, timeout: float = 30.0) -> SimpleOp:
        return self._local_blocking(self.space.in_(pattern), timeout)

    def _local_blocking(self, waiter, timeout: float) -> SimpleOp:
        handle = SimpleOp(self.sim)
        if waiter.satisfied:
            handle.finalize(waiter.event.value)
            return handle
        waiter.event.add_callback(lambda event: handle.finalize(event.value))
        self.sim.schedule(timeout, self._give_up, waiter, handle)
        return handle

    def _give_up(self, waiter, handle: SimpleOp) -> None:
        if not handle.done:
            waiter.cancel()
            handle.finalize(None, error="timeout")

    def stored_tuples(self) -> int:
        return self.space.count()

    # ------------------------------------------------------------------
    # Mobile agents: the only road to a remote space
    # ------------------------------------------------------------------
    def send_agent(self, destination: str, op: str, pattern: Pattern = None,
                   tup: Tuple = None, timeout: float = 10.0) -> SimpleOp:
        """Migrate an agent to ``destination`` to run ``op`` there.

        ``op`` is one of ``"out"``, ``"rdp"``, ``"inp"``, ``"rd"``,
        ``"in"``.  The agent carries its code (a fixed padding) plus the
        operation payload each way.  The returned handle yields the result
        tuple (or None) once the agent migrates back — or fails when either
        migration leg is impossible.
        """
        handle = SimpleOp(self.sim)
        agent_id = next(self._agent_ids)
        payload = {"kind": _AGENT_GO, "agent_id": agent_id, "op": op,
                   "home": self.name, "code": "x" * _AGENT_CODE_SIZE,
                   "timeout": timeout}
        if pattern is not None:
            payload["pattern"] = encode_pattern(pattern)
        if tup is not None:
            payload["tuple"] = encode_tuple(tup)
        if not self.iface.unicast(destination, payload):
            self.agents_lost += 1
            handle.finalize(None, error=f"{destination} not visible")
            return handle
        self.agents_sent += 1
        self._pending_agents[agent_id] = handle
        self.sim.schedule(timeout + 5.0, self._agent_timeout, agent_id)
        return handle

    def _agent_timeout(self, agent_id: int) -> None:
        handle = self._pending_agents.pop(agent_id, None)
        if handle is not None and not handle.done:
            self.agents_lost += 1
            handle.finalize(None, error="agent never returned")

    # ------------------------------------------------------------------
    def _on_message(self, msg: Message) -> None:
        if msg.kind == _AGENT_GO:
            self._host_agent(msg.payload)
        elif msg.kind == _AGENT_BACK:
            handle = self._pending_agents.pop(msg.payload["agent_id"], None)
            if handle is not None and not handle.done:
                found = msg.payload.get("found", False)
                tup = decode_tuple(msg.payload["tuple"]) if found else None
                handle.finalize(tup, None if found else "no match")

    def _host_agent(self, payload: dict) -> None:
        """An incoming agent engages with the local space and runs its op."""
        op = payload["op"]
        home = payload["home"]
        agent_id = payload["agent_id"]
        if op == "out":
            self.space.out(decode_tuple(payload["tuple"]))
            self._agent_return(home, agent_id, decode_tuple(payload["tuple"]))
            return
        pattern = decode_pattern(payload["pattern"])
        if op == "rdp":
            self._agent_return(home, agent_id, self.space.rdp(pattern))
        elif op == "inp":
            self._agent_return(home, agent_id, self.space.inp(pattern))
        elif op in ("rd", "in"):
            waiter = (self.space.rd(pattern) if op == "rd"
                      else self.space.in_(pattern))
            if waiter.satisfied:
                self._agent_return(home, agent_id, waiter.event.value)
                return
            waiter.event.add_callback(
                lambda event: self._agent_return(home, agent_id, event.value))
            self.sim.schedule(payload.get("timeout", 10.0),
                              self._agent_give_up, waiter, home, agent_id)

    def _agent_give_up(self, waiter, home: str, agent_id: int) -> None:
        if not waiter.satisfied:
            waiter.cancel()
            self._agent_return(home, agent_id, None)

    def _agent_return(self, home: str, agent_id: int, tup) -> None:
        payload = {"kind": _AGENT_BACK, "agent_id": agent_id,
                   "found": tup is not None, "code": "x" * _AGENT_CODE_SIZE}
        if tup is not None:
            payload["tuple"] = encode_tuple(tup)
        self.iface.unicast(home, payload)


def build_corelime_system(sim: Simulator, network: Network, names: list[str]):
    """Construct CoreLime hosts; returns {name: host}."""
    return {name: CoreLimeHost(sim, network, name) for name in names}
