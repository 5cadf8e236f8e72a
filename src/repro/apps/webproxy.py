"""The web client / proxy server application (section 3.2).

"Clients place their identified requests into the space as tuples.  The
client then performs a blocking operation attempting to retrieve a response
tuple with the same identifying information.  Proxy servers perform
blocking operations awaiting requests.  When a request is placed into the
space it is removed and given to a proxy server, which obtains the relevant
pages, wraps them up in a tuple along with the original identifying
information.  The proxy server then places this tuple back into the space
allowing it to be retrieved by the client."

The benefits the T2 bench measures are quoted directly from the paper:
proxies "can be dynamically added without the clients' knowledge" (load
balancing and failure replacement, neither visible to clients), and "the
client can still make requests even in the absence of any servers ...
once a server becomes visible it will see the tuple (assuming the lease
has not expired) and perform the necessary operation".

Tuple vocabulary::

    ("web_request",  <req_id:int>, <url:str>)
    ("web_response", <req_id:int>, <body:str>)
"""

from __future__ import annotations

from typing import Optional

from repro.core.instance import TiamatInstance
from repro.errors import LeaseError
from repro.leasing import LeaseTerms, SimpleLeaseRequester
from repro.sim.kernel import Simulator
from repro.tuples import Formal, Pattern, Tuple

REQUEST_TAG = "web_request"
RESPONSE_TAG = "web_response"


class OriginFabric:
    """The synthetic web: URL -> page body, with a fetch delay.

    Stands in for the real HTTP origin servers the paper's third-party
    proxy talked to; the coordination claims under test do not depend on
    real HTTP semantics, only on the fetch taking time.
    """

    def __init__(self, fetch_time: float = 0.05) -> None:
        self.fetch_time = fetch_time
        self.fetches = 0

    def page_for(self, url: str) -> str:
        """Deterministic synthetic page body for a URL."""
        self.fetches += 1
        return f"<html>content of {url} ({len(url)} chars)</html>"


class WebClient:
    """A client issuing leased request tuples and awaiting responses."""

    def __init__(self, sim: Simulator, instance: TiamatInstance,
                 request_lease: float = 60.0, response_wait: float = 60.0) -> None:
        self.sim = sim
        self._req_ids = sim.ids("webproxy_req")
        self.instance = instance
        self.request_lease = request_lease
        self.response_wait = response_wait
        self.issued = 0
        self.satisfied = 0
        self.failed = 0
        self.latencies: list[float] = []

    def fetch(self, url: str):
        """Issue one request; a generator usable as a simulation process.

        Yields until the response tuple arrives (or the wait lease
        expires).  Returns the body string or None.
        """
        req_id = next(self._req_ids)
        started = self.sim.now
        self.issued += 1
        try:
            self.instance.out(
                Tuple(REQUEST_TAG, req_id, url),
                requester=SimpleLeaseRequester(LeaseTerms(duration=self.request_lease)))
        except LeaseError:
            self.failed += 1
            return None
        op = self.instance.in_(
            Pattern(RESPONSE_TAG, req_id, Formal(str)),
            requester=SimpleLeaseRequester(
                LeaseTerms(duration=self.response_wait, max_remotes=16)))
        response = yield op.event
        if response is None:
            self.failed += 1
            return None
        self.satisfied += 1
        self.latencies.append(self.sim.now - started)
        return response[2]

    def browse(self, urls: list[str], think_time: float = 0.5):
        """Fetch a sequence of URLs with think time between them."""
        for url in urls:
            yield from self.fetch(url)
            yield self.sim.timeout(think_time)


class ProxyServer:
    """A proxy: takes request tuples, fetches pages, answers with responses.

    Completely anonymous to clients — it never learns who asked, and
    clients never learn who answered (identity decoupling).
    """

    def __init__(self, sim: Simulator, instance: TiamatInstance,
                 fabric: OriginFabric, wait_lease: float = 30.0) -> None:
        self.sim = sim
        self.instance = instance
        self.fabric = fabric
        self.wait_lease = wait_lease
        self.handled = 0
        self.running = False
        self._process = None

    def start(self) -> None:
        """Begin the serve loop."""
        self.running = True
        self._process = self.sim.spawn(self._serve_loop())

    def stop(self) -> None:
        """Stop taking new requests (in-flight work finishes)."""
        self.running = False

    def _serve_loop(self):
        while self.running:
            try:
                op = self.instance.in_(
                    Pattern(REQUEST_TAG, Formal(int), Formal(str)),
                    requester=SimpleLeaseRequester(
                        LeaseTerms(duration=self.wait_lease, max_remotes=16)))
            except LeaseError:
                yield self.sim.timeout(1.0)
                continue
            request = yield op.event
            if request is None:
                continue  # lease expired with no request; go around again
            req_id, url = request[1], request[2]
            yield self.sim.timeout(self.fabric.fetch_time)
            body = self.fabric.page_for(url)
            try:
                self.instance.out(Tuple(RESPONSE_TAG, req_id, body))
            except LeaseError:
                pass  # response dropped; the client's wait lease will expire
            self.handled += 1


class WebScenario:
    """Builder for T2: clients and proxies over a shared network."""

    def __init__(self, sim: Simulator, network, fabric: Optional[OriginFabric] = None,
                 config=None) -> None:
        from repro.core import TiamatConfig

        self.sim = sim
        self.network = network
        self.fabric = fabric if fabric is not None else OriginFabric()
        # The disconnected-client story (3.2) needs operations to reach
        # instances that become visible mid-operation, i.e. the model's
        # continuous propagation; pass an explicit config to ablate.
        self.config = (config if config is not None
                       else TiamatConfig(propagate_mode="continuous"))
        self.clients: dict[str, WebClient] = {}
        self.proxies: dict[str, ProxyServer] = {}
        self.instances: dict[str, TiamatInstance] = {}

    def add_client(self, name: str, **kwargs) -> WebClient:
        """Create a client instance + app."""
        instance = TiamatInstance(self.sim, self.network, name, config=self.config)
        client = WebClient(self.sim, instance, **kwargs)
        self.instances[name] = instance
        self.clients[name] = client
        return client

    def add_proxy(self, name: str, start: bool = True, **kwargs) -> ProxyServer:
        """Create (and by default start) a proxy instance + app."""
        instance = TiamatInstance(self.sim, self.network, name, config=self.config)
        proxy = ProxyServer(self.sim, instance, self.fabric, **kwargs)
        self.instances[name] = instance
        self.proxies[name] = proxy
        if start:
            proxy.start()
        return proxy

    def connect_all(self) -> None:
        """Make every participant mutually visible."""
        self.network.visibility.connect_clique(list(self.instances))

    def total_satisfied(self) -> int:
        """Requests answered across all clients."""
        return sum(c.satisfied for c in self.clients.values())

    def total_failed(self) -> int:
        """Requests that timed out across all clients."""
        return sum(c.failed for c in self.clients.values())
