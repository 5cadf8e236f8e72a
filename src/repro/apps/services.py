"""Leased service discovery and invocation over the tuple space.

The third application domain (after the paper's web proxy and fractal
farm): ad-hoc service provision, the use case the generative-communication
literature around Tiamat repeatedly motivates.  It showcases the leasing
model doing what registries use heartbeats for:

* a provider advertises with a **soft-state tuple** — the advert carries a
  lease and is refreshed while the provider is alive; when the provider
  dies (battery, departure) the advert silently expires and no stale
  registration ever lingers (compare section 2.5's garbage argument);
* clients *discover* by reading advert tuples through the logical space —
  any provider of the right service type matches, none is named
  (identity decoupling);
* invocation is the request/response pattern over tuples, so providers
  can be replaced between a client's calls without the client noticing.

Tuple vocabulary::

    ("svc_advert",   <service type:str>, <provider:str>)
    ("svc_request",  <service type:str>, <call id:int>, <argument:str>)
    ("svc_response", <call id:int>, <result:str>)
"""

from __future__ import annotations

from typing import Callable

from repro.core.instance import TiamatInstance
from repro.errors import LeaseError
from repro.leasing import LeaseTerms, SimpleLeaseRequester
from repro.sim.kernel import Simulator
from repro.tuples import Formal, Pattern, Tuple

ADVERT_TAG = "svc_advert"
REQUEST_TAG = "svc_request"
RESPONSE_TAG = "svc_response"


def advert_pattern(service_type: str) -> Pattern:
    """The discovery pattern for one service type."""
    return Pattern(ADVERT_TAG, service_type, Formal(str))


class ServiceProvider:
    """Advertises a service as soft state and serves its requests.

    ``handler`` maps the request argument string to a result string; the
    virtual service time models the work.
    """

    def __init__(self, sim: Simulator, instance: TiamatInstance,
                 service_type: str, handler: Callable[[str], str],
                 advert_lease: float = 10.0, refresh_every: float = 4.0,
                 service_time: float = 0.1, wait_lease: float = 15.0) -> None:
        self.sim = sim
        self.instance = instance
        self.service_type = service_type
        self.handler = handler
        self.advert_lease = advert_lease
        self.refresh_every = refresh_every
        self.service_time = service_time
        self.wait_lease = wait_lease
        self.served = 0
        self.running = False

    def start(self) -> None:
        """Begin advertising and serving."""
        self.running = True
        self.sim.spawn(self._advertise_loop())
        self.sim.spawn(self._serve_loop())

    def stop(self) -> None:
        """Stop refreshing the advert and taking requests.

        The current advert is left to expire on its own — exactly how a
        crashed provider disappears.
        """
        self.running = False

    # ------------------------------------------------------------------
    def _advertise_loop(self):
        while self.running:
            try:
                self.instance.out(
                    Tuple(ADVERT_TAG, self.service_type, self.instance.name),
                    requester=SimpleLeaseRequester(
                        LeaseTerms(duration=self.advert_lease)))
            except LeaseError:
                pass  # too pressured to advertise this round
            yield self.sim.timeout(self.refresh_every)

    def _serve_loop(self):
        pattern = Pattern(REQUEST_TAG, self.service_type, Formal(int),
                          Formal(str))
        while self.running:
            try:
                op = self.instance.in_(
                    pattern,
                    requester=SimpleLeaseRequester(
                        LeaseTerms(duration=self.wait_lease, max_remotes=16)))
            except LeaseError:
                yield self.sim.timeout(1.0)
                continue
            request = yield op.event
            if request is None:
                continue
            call_id, argument = request[2], request[3]
            yield self.sim.timeout(self.service_time)
            try:
                self.instance.out(
                    Tuple(RESPONSE_TAG, call_id, self.handler(argument)))
            except LeaseError:
                continue
            self.served += 1


class ServiceClient:
    """Discovers services through the logical space and invokes them."""

    def __init__(self, sim: Simulator, instance: TiamatInstance,
                 discover_lease: float = 2.0, call_timeout: float = 15.0) -> None:
        self.sim = sim
        self._call_ids = sim.ids("service_call")
        self.instance = instance
        self.discover_lease = discover_lease
        self.call_timeout = call_timeout
        self.calls = 0
        self.completed = 0

    def discover(self, service_type: str):
        """Find *some* provider of ``service_type``; a simulation process.

        Returns the provider's instance name, or None if no live advert is
        reachable within the discovery lease.
        """
        op = self.instance.rdp(
            advert_pattern(service_type),
            requester=SimpleLeaseRequester(
                LeaseTerms(duration=self.discover_lease, max_remotes=16)))
        advert = yield op.event
        return advert[2] if advert is not None else None

    def call(self, service_type: str, argument: str):
        """Invoke the service anonymously; a simulation process.

        The request goes into the space for *any* provider of the type;
        the response is matched back by call id.  Returns the result
        string, or None if no provider answered within the timeout.
        """
        call_id = next(self._call_ids)
        self.calls += 1
        try:
            self.instance.out(
                Tuple(REQUEST_TAG, service_type, call_id, argument),
                requester=SimpleLeaseRequester(
                    LeaseTerms(duration=self.call_timeout)))
        except LeaseError:
            return None
        op = self.instance.in_(
            Pattern(RESPONSE_TAG, call_id, Formal(str)),
            requester=SimpleLeaseRequester(
                LeaseTerms(duration=self.call_timeout, max_remotes=16)))
        response = yield op.event
        if response is None:
            return None
        self.completed += 1
        return response[2]

    def available_types(self, candidates: list[str]):
        """Which of ``candidates`` have a live, reachable advert right now.

        A simulation process; returns the sorted list of available types.
        """
        found = []
        for service_type in candidates:
            provider = yield from self.discover(service_type)
            if provider is not None:
                found.append(service_type)
        return sorted(found)
