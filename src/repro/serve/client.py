"""Blocking client for the analysis service (plain sockets, stdlib only).

The protocol is a line of JSON each way, so the client is a thin
convenience layer: connect, frame, correlate ids, decode.  It is what
``repro request`` and ``repro cluster request`` use, what the
benchmarks drive load with, and the reference for writing clients in
other languages.

    with ServeClient(port=7421) as c:
        c.ping()
        resp = c.analyze(model_doc, params={"scale:network": 2.0})
        resp["result"]["nc"]["delay_bound"]

Connection behavior: a server (or cluster router/shard) that is *still
binding* — the common race right after ``repro serve``/``repro cluster
start`` — refuses connections for a moment; :meth:`ServeClient.connect`
therefore retries with exponential backoff for a bounded window and
raises :class:`ServeConnectError` (a ``ConnectionError`` naming the
endpoint, the attempt count, and the window) when the endpoint never
comes up, instead of leaking a raw ``ConnectionRefusedError`` from
whichever attempt failed last.

Both the connect and the request-retry backoffs apply **full jitter**:
the actual sleep is ``uniform(0, backoff)`` while the backoff ceiling
doubles per attempt.  Deterministic sleeps synchronize — a fleet of
clients reconnecting after a router bounce would otherwise hammer the
listener in lockstep waves.  The RNG is injectable (``rng=``) so tests
can pin the draw.  A server-supplied ``retry_after_s`` hint is honored
exactly, un-jittered: the server already knows when capacity frees up.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Any, Mapping

from .protocol import PROTOCOL_VERSION, encode, parse_response

__all__ = ["ServeClient", "ServeClosedError", "ServeConnectError"]

#: response statuses that :meth:`ServeClient.request` may retry on —
#: admission rejection (the server names a retry_after_s) and transient
#: unavailability (draining server, router with a shard mid-failover)
RETRYABLE_STATUSES = (429, 503)

#: 429 codes no retry can turn: the router refuses the caller's identity
#: until the tenant registers, so these come back at once
FINAL_CODES = frozenset({"unknown_tenant", "tenant_required"})


class ServeClosedError(ConnectionError):
    """The server closed the connection before answering."""


class ServeConnectError(ConnectionError):
    """No server accepted a connection within the retry window."""


class ServeClient:
    """One connection to a running analysis server or cluster router."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7421,
        *,
        timeout: float = 60.0,
        connect_retries: int = 0,
        connect_backoff_s: float = 0.05,
        rng: "random.Random | None" = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: extra connect attempts after the first (0 = fail fast)
        self.connect_retries = int(connect_retries)
        #: backoff *ceiling* between attempts; doubles per retry, capped
        #: at 1 s — each sleep draws uniform(0, ceiling) (full jitter)
        self.connect_backoff_s = float(connect_backoff_s)
        self._rng = rng if rng is not None else random.Random()
        self._sock: "socket.socket | None" = None
        self._file: Any = None
        self._next_id = 0

    # ------------------------------------------------------------------ #
    # connection management
    # ------------------------------------------------------------------ #

    def connect(self) -> "ServeClient":
        if self._sock is not None:
            return self
        attempts = 1 + max(0, self.connect_retries)
        backoff = max(0.0, self.connect_backoff_s)
        t0 = time.monotonic()
        last: "Exception | None" = None
        for attempt in range(attempts):
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), self.timeout
                )
                break
            except (ConnectionError, OSError) as exc:
                last = exc
                self._sock = None
                if attempt + 1 < attempts:
                    time.sleep(self._rng.uniform(0.0, backoff))
                    backoff = min(1.0, backoff * 2 if backoff > 0 else 0.05)
        if self._sock is None:
            waited = time.monotonic() - t0
            raise ServeConnectError(
                f"no analysis server accepted a connection at "
                f"{self.host}:{self.port} after {attempts} attempt(s) over "
                f"{waited:.2f} s ({type(last).__name__}: {last}); is the "
                "server/router running (or still binding)?"
            ) from last
        # one small frame per request: Nagle + delayed ACK would add
        # a ~10 ms floor to every round trip
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rwb")
        return self

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self.connect()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # requests
    # ------------------------------------------------------------------ #

    def request(
        self,
        op: str,
        *,
        model: "Mapping[str, Any] | None" = None,
        params: "Mapping[str, Any] | None" = None,
        options: "Mapping[str, Any] | None" = None,
        tenant: "str | None" = None,
        id: "str | int | None" = None,
        retries: int = 0,
        retry_backoff_s: float = 0.05,
    ) -> dict[str, Any]:
        """Send one request and block for its response document.

        ``retries > 0`` makes the client router-aware: a 429 (admission
        rejected) or 503 (draining / shard failing over) response is
        retried up to ``retries`` times, honoring the server's
        ``retry_after_s`` hint when present and a full-jittered
        exponential backoff otherwise.  A 429 for an unknown or missing
        tenant (``unknown_tenant``, ``tenant_required``) is not retried:
        it stays refused until the tenant registers.  The final
        response — success or not — is returned.
        """
        self.connect()
        if id is None:
            self._next_id += 1
            id = self._next_id
        doc: dict[str, Any] = {"v": PROTOCOL_VERSION, "id": id, "op": op}
        if model is not None:
            doc["model"] = dict(model)
        if params:
            doc["params"] = dict(params)
        if options:
            doc["options"] = dict(options)
        if tenant is not None:
            doc["tenant"] = tenant
        frame = encode(doc)
        backoff = max(0.0, retry_backoff_s)
        for attempt in range(1 + max(0, retries)):
            response = self._exchange(frame)
            error = response.get("error") or {}
            if (
                response.get("ok")
                or response.get("status") not in RETRYABLE_STATUSES
                or error.get("code") in FINAL_CODES
                or attempt >= retries
            ):
                return response
            hint = error.get("retry_after_s")
            # the hint is exact (the server computed when the bucket
            # refills); only the blind backoff gets jittered
            delay = float(hint) if hint else self._rng.uniform(0.0, backoff)
            time.sleep(min(2.0, max(0.0, delay)))
            backoff = min(1.0, backoff * 2 if backoff > 0 else 0.05)
        return response

    def _exchange(self, frame: bytes) -> dict[str, Any]:
        self._file.write(frame)
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ServeClosedError(
                f"server at {self.host}:{self.port} closed the connection"
            )
        return parse_response(line)

    # convenience verbs -------------------------------------------------- #

    def ping(self) -> dict[str, Any]:
        return self.request("ping")

    def capacity(self) -> dict[str, Any]:
        return self.request("capacity")

    def stats(self) -> dict[str, Any]:
        return self.request("stats")

    def shutdown(self) -> dict[str, Any]:
        """Ask the server to drain and exit (answered before it does)."""
        return self.request("shutdown")

    def register_tenant(
        self,
        tenant: str,
        rate: float,
        burst: float,
        *,
        slo_ms: "float | None" = None,
    ) -> dict[str, Any]:
        """Declare a tenant's leaky bucket alpha(t) = rate*t + burst (router op)."""
        options: dict[str, Any] = {"rate": rate, "burst": burst}
        if slo_ms is not None:
            options["slo_ms"] = slo_ms
        return self.request("register_tenant", tenant=tenant, options=options)

    def tenants(self) -> dict[str, Any]:
        """The router's tenant registry report (router op)."""
        return self.request("tenants")

    def analyze(
        self,
        model: Mapping[str, Any],
        params: "Mapping[str, Any] | None" = None,
        *,
        tenant: "str | None" = None,
        retries: int = 0,
        **options: Any,
    ) -> dict[str, Any]:
        return self.request(
            "analyze", model=model, params=params, options=options,
            tenant=tenant, retries=retries,
        )

    def simulate(
        self,
        model: Mapping[str, Any],
        params: "Mapping[str, Any] | None" = None,
        *,
        tenant: "str | None" = None,
        retries: int = 0,
        **options: Any,
    ) -> dict[str, Any]:
        return self.request(
            "simulate", model=model, params=params, options=options,
            tenant=tenant, retries=retries,
        )

    def sweep_point(
        self,
        model: Mapping[str, Any],
        params: "Mapping[str, Any] | None" = None,
        *,
        tenant: "str | None" = None,
        retries: int = 0,
        **options: Any,
    ) -> dict[str, Any]:
        return self.request(
            "sweep_point", model=model, params=params, options=options,
            tenant=tenant, retries=retries,
        )
